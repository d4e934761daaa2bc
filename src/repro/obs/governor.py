"""The observability overhead governor.

The paper's discipline — spend optimization effort only while it pays —
applied to observability itself.  Full tracing + profiling on every
request is unaffordable at production traffic; turning it off entirely
means the one anomalous request per million leaves no artifact.  The
governor keeps *total observability cost under an explicit budget*
(a fraction of execute wall time, ``--obs-budget``, default 5%) by
degrading detail per query class only when — and only where — the spend
actually exceeds the budget:

* **Under budget**: undegraded classes run with full detail (a
  sampled run keeps its trace and profile); previously degraded
  classes earn their probability back gradually — ``recover_factor``
  per decision, and only while spend sits below
  ``recover_ratio × budget`` (hysteresis) — and return to full detail
  only once it reaches 1.
  Without the dead band a degraded class alternates degrade/recover
  right at the budget line and spends half its runs at full detail.

* **Over budget**: the classes *responsible* for the spend (those whose
  own share of recent observability seconds exceeds
  ``dominant_share × budget``) are degraded to deterministic head
  sampling — probability halves per over-budget decision down to
  ``min_probability``, and the 1-in-*stride* admitted runs carry
  ``weight = stride`` so recalibration stays unbiased.  Minor classes
  keep full detail: their absolute overhead is negligible and they are
  exactly the rare queries worth observing.  Only under gross overload
  (spend > ``overload_ratio × budget``) does degradation hit every
  class.

* **Anomaly pinning**: once a class raises an anomaly it is pinned to
  full detail for ``anomaly_pin_runs`` runs, so follow-up occurrences
  of a production incident always yield complete traces.

Observability spend is *modeled*, not separately clocked (clocking the
clock would itself blow the budget): each profiler metering probe and
each trace span/event is charged a per-unit cost measured once at
startup with a micro-benchmark of the probe body.  Charges and wall
time decay exponentially (``decay`` per request), so the spent fraction
tracks a recent window rather than all history.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Optional

from .sampler import SamplingDecision, StrideSampler

__all__ = ["GovernorConfig", "ObservabilityGovernor", "measure_probe_cost"]


#: Bench-to-production scale applied to the measured probe cost.  The
#: micro-benchmark runs the metering wrapper over a flat synthetic
#: stream; in a live plan the same probe sits at the bottom of a deep
#: generator chain reading live counter objects under cache pressure,
#: which costs several times the tight-loop figure.  The governor
#: deliberately models spend HIGH: over-charging degrades detail a bit
#: earlier than strictly necessary, under-charging silently blows the
#: throughput budget the whole feature exists to honour.
PROBE_COST_SCALE = 32.0


def measure_probe_cost(samples: int = 4096) -> float:
    """Seconds one profiler metering probe costs, measured in-process.

    Benchmarks the *real* per-batch metering wrapper
    (:meth:`repro.obs.profile.PlanProfiler._metered_batches` — two
    clock reads, counter deltas, one generator resumption per batch)
    over a synthetic batch stream, then scales by
    :data:`PROBE_COST_SCALE` (see its docstring).
    """

    from repro.obs.profile import NodeProfile, PlanProfiler

    class _Counters:
        physical_reads = 0
        index_page_reads = 0.0
        predicate_evals = 0

    class _Batch:
        __slots__ = ("rows",)

        def __init__(self) -> None:
            self.rows = ()

        def __len__(self) -> int:
            return len(self.rows)

    profiler = PlanProfiler()
    profiler._buffer = profiler._metrics = _Counters()
    profile = NodeProfile(node_id="bench", label="bench", kind="Bench")
    batch = _Batch()

    def stream():
        for _ in range(samples):
            yield batch

    clock = time.perf_counter
    start = clock()
    for _ in profiler._metered_batches(profile, stream()):
        pass
    elapsed = clock() - start
    return max(elapsed / samples * PROBE_COST_SCALE, 1e-8)


@dataclass
class GovernorConfig:
    """Tuning knobs for :class:`ObservabilityGovernor`."""

    #: Observability budget as a fraction of execute wall time.
    budget: float = 0.05
    #: Exponential decay applied to spend/wall accumulators per charge;
    #: 0.99 ≈ a sliding window of the last ~100 requests.
    decay: float = 0.99
    #: Per-over-budget-decision probability multiplier for dominant classes.
    degrade_factor: float = 0.5
    #: Per-recovery-decision probability multiplier.  Deliberately much
    #: slower than ``degrade_factor`` is fast: backing off must be
    #: immediate, earning detail back can take its time.
    recover_factor: float = 1.25
    #: Hysteresis: probability recovers only while spend sits below
    #: ``recover_ratio × budget``.  Without the dead band a degraded
    #: class alternates degrade/recover decisions right at the budget
    #: line and (with symmetric factors) spends half its runs at full
    #: detail — twice the budget's worth.
    recover_ratio: float = 0.5
    #: Sampling probability floor — even the hottest class keeps
    #: 1-in-64 fully observed runs.
    min_probability: float = 1.0 / 64.0
    #: A brand-new query class gets this many full-detail runs
    #: unconditionally (its first anomaly must not go unobserved).
    grace_runs: int = 2
    #: Full-detail runs granted to a class after it raises an anomaly.
    anomaly_pin_runs: int = 64
    #: A class is "dominant" (degradable) when its own recent obs spend
    #: exceeds this share of the budget.
    dominant_share: float = 0.5
    #: Spend beyond ``overload_ratio × budget`` degrades every class.
    overload_ratio: float = 2.0
    #: Seconds charged per profiler probe; measured at startup if None.
    probe_cost: Optional[float] = None
    #: Seconds charged per trace span/event; defaults to probe_cost.
    span_cost: Optional[float] = None
    #: LRU bound on tracked query classes.
    max_classes: int = 512


class _ClassState:
    __slots__ = (
        "probability",
        "runs",
        "sampled_runs",
        "anomalies",
        "pin_remaining",
        "obs_seconds",
    )

    def __init__(self) -> None:
        self.probability = 1.0
        self.runs = 0
        self.sampled_runs = 0
        self.anomalies = 0
        self.pin_remaining = 0
        self.obs_seconds = 0.0


class ObservabilityGovernor:
    """Budgeted per-query-class sampling decisions.  Thread-safe."""

    def __init__(self, config: Optional[GovernorConfig] = None) -> None:
        self.config = config or GovernorConfig()
        self.probe_cost = (
            self.config.probe_cost
            if self.config.probe_cost is not None
            else measure_probe_cost()
        )
        self.span_cost = (
            self.config.span_cost
            if self.config.span_cost is not None
            else self.probe_cost
        )
        self._lock = threading.Lock()
        self._classes: "OrderedDict[str, _ClassState]" = OrderedDict()
        self._sampler = StrideSampler()
        # EWMA accumulators: recent observability seconds vs recent
        # execute wall seconds.  Their ratio is the spent fraction.
        self._obs_seconds = 0.0
        self._work_seconds = 0.0
        # Lifetime counters for the stats op / Prometheus.
        self.decisions: Dict[str, int] = {"full": 0, "head": 0, "skip": 0}
        self.anomalies_noted = 0
        self.charged_obs_seconds = 0.0
        self.charged_wall_seconds = 0.0

    # -- internals ----------------------------------------------------------

    def _state(self, query_class: str) -> _ClassState:
        state = self._classes.get(query_class)
        if state is None:
            state = _ClassState()
            self._classes[query_class] = state
            while len(self._classes) > self.config.max_classes:
                evicted, _ = self._classes.popitem(last=False)
                self._sampler.forget(evicted)
        else:
            self._classes.move_to_end(query_class)
        return state

    def _spent_locked(self) -> float:
        if self._work_seconds <= 0.0:
            return 0.0
        return self._obs_seconds / self._work_seconds

    # -- the decision -------------------------------------------------------

    def decide(self, query_class: str) -> SamplingDecision:
        """The observability verdict for one request of *query_class*."""

        config = self.config
        with self._lock:
            state = self._state(query_class)
            state.runs += 1
            mode, weight, reason = "full", 1.0, "under-budget"
            if state.pin_remaining > 0:
                state.pin_remaining -= 1
                reason = "anomaly-pinned"
            elif state.runs <= config.grace_runs:
                reason = "new-class"
            else:
                spent = self._spent_locked()
                degrade = False
                if spent > config.budget:
                    share = state.obs_seconds / max(self._work_seconds, 1e-9)
                    dominant = share > config.budget * config.dominant_share
                    overloaded = spent > config.budget * config.overload_ratio
                    degrade = dominant or overloaded
                    if not degrade:
                        reason = "minor-class"
                if degrade:
                    state.probability = max(
                        config.min_probability,
                        state.probability * config.degrade_factor,
                    )
                elif spent <= config.budget * config.recover_ratio:
                    state.probability = min(
                        1.0, state.probability * config.recover_factor
                    )
                # A degraded class stays on stride sampling until its
                # probability has climbed all the way back to 1 —
                # flipping straight to full detail the moment the spend
                # window dips under budget would duty-cycle the hot
                # class between "everything on" and "everything off"
                # around the budget instead of settling near the
                # sampling rate the budget actually affords.
                if state.probability < 1.0:
                    admitted, stride = self._sampler.admit(
                        query_class, state.probability
                    )
                    weight = float(stride)
                    if admitted:
                        mode, reason = "head", "head-sample"
                    else:
                        mode, reason = "skip", "degraded"
            sampled = mode != "skip"
            if sampled:
                state.sampled_runs += 1
            self.decisions[mode] += 1
            return SamplingDecision(
                mode=mode,
                sampled=sampled,
                weight=weight,
                reason=reason,
                query_class=query_class,
            )

    # -- accounting ---------------------------------------------------------

    def charge(
        self,
        query_class: str,
        wall_seconds: float,
        probes: int = 0,
        spans: int = 0,
    ) -> float:
        """Charge one request's modeled observability spend and wall
        time against the budget window.  Returns the charged seconds."""

        obs = probes * self.probe_cost + spans * self.span_cost
        wall = max(wall_seconds, 0.0)
        decay = self.config.decay
        with self._lock:
            self._obs_seconds = self._obs_seconds * decay + obs
            self._work_seconds = self._work_seconds * decay + wall
            self.charged_obs_seconds += obs
            self.charged_wall_seconds += wall
            state = self._classes.get(query_class)
            if state is not None:
                state.obs_seconds = state.obs_seconds * decay + obs
        return obs

    def note_anomaly(self, query_class: str) -> None:
        """Pin *query_class* to full detail after an anomaly."""

        with self._lock:
            state = self._state(query_class)
            state.anomalies += 1
            state.pin_remaining = self.config.anomaly_pin_runs
            state.probability = 1.0
            self._sampler.forget(query_class)
            self.anomalies_noted += 1

    # -- reporting ----------------------------------------------------------

    def spent_fraction(self) -> float:
        with self._lock:
            return self._spent_locked()

    def snapshot(self, top: int = 32) -> Dict[str, Any]:
        """Stats for the ``governor`` service op and ``repro feedback``."""

        with self._lock:
            classes = sorted(
                self._classes.items(), key=lambda kv: kv[1].runs, reverse=True
            )[:top]
            return {
                "budget": self.config.budget,
                "spent_fraction": round(self._spent_locked(), 6),
                "probe_cost_us": round(self.probe_cost * 1e6, 4),
                "span_cost_us": round(self.span_cost * 1e6, 4),
                "decisions": dict(self.decisions),
                "anomalies": self.anomalies_noted,
                "charged_obs_seconds": round(self.charged_obs_seconds, 6),
                "charged_wall_seconds": round(self.charged_wall_seconds, 6),
                "classes": [
                    {
                        "query_class": name,
                        "probability": round(state.probability, 6),
                        "runs": state.runs,
                        "sampled_runs": state.sampled_runs,
                        "anomalies": state.anomalies,
                        "pinned": state.pin_remaining > 0,
                    }
                    for name, state in classes
                ],
            }
