"""EWMA + MAD anomaly detection over per-query-class telemetry.

For every ``(query class, metric)`` pair the detector keeps two
exponentially weighted moving estimates: the *level* (EWMA of the
values) and a robust *spread* (EWMA of absolute deviations from the
level — the streaming analogue of the median absolute deviation,
scaled by the usual 1.4826 so it estimates a standard deviation under
normality).  A new sample scores

    z = (x - level) / (1.4826 · spread)

and is anomalous when the score exceeds ``threshold`` *and* the value
sits above the level (one-sided: only slow / misestimated / skewed
runs are incidents; unusually fast runs are not).

Two details matter in production:

* **Warm-up** — no scoring until ``min_samples`` observations exist
  for the pair, so a cold service does not page on its first queries.

* **No contamination** — anomalous samples do *not* update the
  baseline.  A level shift (say, a buffer pool that suddenly misses to
  slow storage) keeps being flagged instead of being absorbed into
  "the new normal" within a handful of requests.  The flip side — a
  *legitimate* permanent shift keeps raising anomalies — is the right
  default for a diagnostic feed and is documented in
  docs/observability.md.

Metrics scored per query completion: latency (seconds), misestimate
(cost q-error), shard skew (max/mean), and barrier-wait fraction.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

__all__ = ["AnomalyConfig", "Anomaly", "AnomalyDetector", "MAD_SCALE"]

#: Consistency constant making a MAD estimate comparable to a standard
#: deviation under normality.
MAD_SCALE = 1.4826


@dataclass
class AnomalyConfig:
    """Tuning knobs for :class:`AnomalyDetector`."""

    #: Robust z-score beyond which a sample is anomalous.
    threshold: float = 4.0
    #: Observations required per (class, metric) before scoring starts.
    min_samples: int = 8
    #: EWMA update rate for level and spread.
    alpha: float = 0.2
    #: Spread floor as a fraction of the level — protects against a
    #: perfectly stable warm-up window making any jitter "anomalous".
    min_spread_fraction: float = 0.05
    #: Absolute spread floor (seconds) for the latency metric.  Sub-ms
    #: queries see routine 2-4x scheduler hiccups that a purely
    #: relative floor would flag; an incident must hurt on a
    #: milliseconds scale before latency scoring reacts.
    min_latency_spread: float = 0.005
    #: LRU bound on tracked query classes.
    max_classes: int = 512


@dataclass
class Anomaly:
    """One flagged (query class, metric) observation."""

    query_class: str
    metric: str
    value: float
    baseline: float
    spread: float
    score: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "query_class": self.query_class,
            "metric": self.metric,
            "value": round(self.value, 6),
            "baseline": round(self.baseline, 6),
            "spread": round(self.spread, 6),
            "score": round(self.score, 2),
        }

    def describe(self) -> str:
        return (
            f"anomaly:{self.metric} {self.value:.4g} vs baseline "
            f"{self.baseline:.4g} (z={self.score:.1f})"
        )


class _Baseline:
    __slots__ = ("level", "spread", "count")

    def __init__(self) -> None:
        self.level = 0.0
        self.spread = 0.0
        self.count = 0

    def update(self, value: float, alpha: float) -> None:
        if self.count == 0:
            self.level = value
            self.spread = 0.0
        else:
            deviation = abs(value - self.level)
            self.spread += alpha * (deviation - self.spread)
            self.level += alpha * (value - self.level)
        self.count += 1

    def score(
        self,
        value: float,
        min_spread_fraction: float,
        min_spread: float = 0.0,
    ) -> float:
        spread = max(
            self.spread,
            abs(self.level) * min_spread_fraction,
            min_spread,
            1e-9,
        )
        return (value - self.level) / (MAD_SCALE * spread)


class AnomalyDetector:
    """Streaming per-query-class anomaly scoring.  Thread-safe."""

    def __init__(self, config: Optional[AnomalyConfig] = None) -> None:
        self.config = config or AnomalyConfig()
        self._lock = threading.Lock()
        #: query_class -> metric -> _Baseline (class-level LRU).
        self._classes: "OrderedDict[str, Dict[str, _Baseline]]" = OrderedDict()
        self.observed = 0
        self.flagged = 0

    def _baselines(self, query_class: str) -> Dict[str, _Baseline]:
        baselines = self._classes.get(query_class)
        if baselines is None:
            baselines = {}
            self._classes[query_class] = baselines
            while len(self._classes) > self.config.max_classes:
                self._classes.popitem(last=False)
        else:
            self._classes.move_to_end(query_class)
        return baselines

    def observe(
        self,
        query_class: str,
        latency: float,
        misestimate: Optional[float] = None,
        skew: Optional[float] = None,
        barrier_wait: Optional[float] = None,
    ) -> List[Anomaly]:
        """Score one completed query; returns the anomalies it raised.

        ``misestimate`` is the cost q-error (≥ 1), ``skew`` the
        max/mean per-shard tuple ratio, ``barrier_wait`` the fraction
        of execute time spent waiting at round barriers; pass ``None``
        for metrics that do not apply (serial runs have no skew).
        """

        config = self.config
        samples = (
            ("latency", latency),
            ("misestimate", misestimate),
            ("skew", skew),
            ("barrier_wait", barrier_wait),
        )
        flagged: List[Anomaly] = []
        with self._lock:
            self.observed += 1
            baselines = self._baselines(query_class)
            for metric, value in samples:
                if value is None:
                    continue
                baseline = baselines.get(metric)
                if baseline is None:
                    baseline = baselines[metric] = _Baseline()
                anomalous = False
                if baseline.count >= config.min_samples and value > baseline.level:
                    floor = (
                        config.min_latency_spread
                        if metric == "latency"
                        else 0.0
                    )
                    score = baseline.score(
                        value, config.min_spread_fraction, floor
                    )
                    if score > config.threshold:
                        anomalous = True
                        flagged.append(
                            Anomaly(
                                query_class=query_class,
                                metric=metric,
                                value=value,
                                baseline=baseline.level,
                                spread=baseline.spread,
                                score=score,
                            )
                        )
                if not anomalous:
                    baseline.update(value, config.alpha)
            self.flagged += len(flagged)
        return flagged

    def snapshot(self, top: int = 32) -> Dict[str, Any]:
        """Stats for the ``governor`` service op."""

        with self._lock:
            classes = list(self._classes.items())[-top:]
            return {
                "observed": self.observed,
                "flagged": self.flagged,
                "threshold": self.config.threshold,
                "min_samples": self.config.min_samples,
                "classes": {
                    name: {
                        metric: {
                            "level": round(baseline.level, 6),
                            "spread": round(baseline.spread, 6),
                            "count": baseline.count,
                        }
                        for metric, baseline in baselines.items()
                    }
                    for name, baselines in classes
                },
            }
