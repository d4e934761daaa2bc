"""Persistent query telemetry: estimated vs. measured, per plan, per
operator, across restarts.

PR 2's ``EXPLAIN ANALYZE`` pairs the cost model's per-node estimates
with one execution's actuals — and then throws the pairing away.  The
:class:`QueryTelemetryStore` keeps it: for every executed query it
records, per **plan fingerprint**
(:func:`repro.plans.canonical.canonical_fingerprint`, stable across
processes) and per **operator** (the stable pre-order node ids
of :func:`repro.obs.profile.assign_node_ids`, the same ids that key
:attr:`~repro.engine.metrics.RuntimeMetrics.tuples_by_node`), the
estimated vs. measured cardinalities, page reads, predicate
evaluations and wall time.

The store is bounded in memory (a ring of observations per plan, an
LRU bound on the number of plans) and persistable as JSONL — one
self-describing record per line (``plan`` / ``obs`` / ``event``) — so
telemetry survives service restarts and can be shipped as a CI
artifact.  :mod:`repro.obs.feedback` builds the control loop on top:
online cost-model recalibration and plan-regression detection.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

__all__ = [
    "OperatorEstimate",
    "OperatorActual",
    "Observation",
    "PlanHistory",
    "QueryTelemetryStore",
]


def query_class(canonical: str) -> str:
    """Short stable id for one canonical query text (a metrics-label
    safe stand-in for the text itself)."""
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:8]


def q_error(estimated: float, actual: float) -> float:
    """The symmetric misestimate ratio ``max(est/act, act/est)``.

    1.0 is a perfect estimate; both zero is also perfect; one-sided
    zero is scored against a one-unit floor instead of infinity so a
    single empty operator cannot dominate a mean.
    """
    if estimated <= 0 and actual <= 0:
        return 1.0
    est = max(abs(estimated), 1.0 if estimated <= 0 else 1e-9)
    act = max(abs(actual), 1.0 if actual <= 0 else 1e-9)
    return max(est / act, act / est)


@dataclass
class OperatorEstimate:
    """The cost model's per-node prediction, fixed at plan time."""

    node_id: str
    label: str
    kind: str
    est_rows: Optional[float] = None
    est_cost: Optional[float] = None

    def to_dict(self) -> dict:
        return {
            "node_id": self.node_id,
            "label": self.label,
            "kind": self.kind,
            "est_rows": self.est_rows,
            "est_cost": self.est_cost,
        }


#: ``slots=True`` (3.10+): one of these per plan node is retained for
#: every observation in every plan's ring.
_SLOTS = {"slots": True} if sys.version_info >= (3, 10) else {}


@dataclass(**_SLOTS)
class OperatorActual:
    """One execution's measured counters for one node (profiled runs
    carry everything; unprofiled runs carry cardinalities only)."""

    rows: int = 0
    cost: Optional[float] = None
    seconds: Optional[float] = None
    page_reads: Optional[float] = None
    predicate_evals: Optional[int] = None

    def to_dict(self) -> dict:
        payload: Dict[str, object] = {"rows": self.rows}
        if self.cost is not None:
            payload["cost"] = round(self.cost, 4)
        if self.seconds is not None:
            payload["ms"] = round(self.seconds * 1000, 4)
        if self.page_reads is not None:
            payload["page_reads"] = round(self.page_reads, 2)
        if self.predicate_evals is not None:
            payload["predicate_evals"] = self.predicate_evals
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "OperatorActual":
        return cls(
            rows=int(payload.get("rows", 0)),
            cost=payload.get("cost"),
            seconds=(
                payload["ms"] / 1000.0 if payload.get("ms") is not None else None
            ),
            page_reads=payload.get("page_reads"),
            predicate_evals=payload.get("predicate_evals"),
        )


@dataclass
class Observation:
    """One executed query, as remembered by the telemetry store."""

    at: float
    request_id: str
    estimated_cost: float
    measured_cost: float
    execute_seconds: float
    rows: int
    #: Query-level event counts — the calibration features of
    #: :data:`repro.cost.calibrate.EVENT_NAMES`.
    events: Dict[str, float] = field(default_factory=dict)
    #: Per-node actuals keyed by pre-order node id.
    operators: Dict[str, OperatorActual] = field(default_factory=dict)
    profiled: bool = False
    #: Distributed actuals (None for single-store runs): exchanged
    #: tuples/bytes/frames, rounds, shard width, the max per-shard
    #: logical reads, observed max/mean load skew and barrier wait —
    #: the measured counterparts of the distributed cost terms.
    distributed: Optional[Dict[str, float]] = None

    def to_dict(self) -> dict:
        payload = {
            "at": round(self.at, 3),
            "request_id": self.request_id,
            "estimated_cost": round(self.estimated_cost, 4),
            "measured_cost": round(self.measured_cost, 4),
            "execute_ms": round(self.execute_seconds * 1000, 4),
            "rows": self.rows,
            "events": {k: round(v, 4) for k, v in self.events.items()},
            "operators": {
                node_id: actual.to_dict()
                for node_id, actual in self.operators.items()
            },
            "profiled": self.profiled,
        }
        if self.distributed is not None:
            payload["distributed"] = {
                k: round(float(v), 6) for k, v in self.distributed.items()
            }
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "Observation":
        """Unknown keys are ignored, so lines written with since-retired
        fields (the head-sampling ``weight`` and ``committed``) load."""
        return cls(
            at=float(payload.get("at", 0.0)),
            request_id=payload.get("request_id", ""),
            estimated_cost=float(payload.get("estimated_cost", 0.0)),
            measured_cost=float(payload.get("measured_cost", 0.0)),
            execute_seconds=float(payload.get("execute_ms", 0.0)) / 1000.0,
            rows=int(payload.get("rows", 0)),
            events={
                k: float(v) for k, v in (payload.get("events") or {}).items()
            },
            operators={
                node_id: OperatorActual.from_dict(op)
                for node_id, op in (payload.get("operators") or {}).items()
            },
            profiled=bool(payload.get("profiled")),
            distributed=(
                {
                    k: float(v)
                    for k, v in payload["distributed"].items()
                }
                if payload.get("distributed")
                else None
            ),
        )


@dataclass
class PlanHistory:
    """Everything remembered about one plan fingerprint."""

    fingerprint: str
    canonical: str
    plan_cost: float
    estimates: Dict[str, OperatorEstimate] = field(default_factory=dict)
    observations: Deque[Observation] = field(default_factory=deque)
    total_runs: int = 0
    #: The distributed cost model's term decomposition for the plan's
    #: fixpoints (summed over Fix nodes): estimated exchange volume,
    #: network cost, skew-free disk share and assumed skew.  ``None``
    #: for plans costed at ``shards == 1``.
    distributed_estimate: Optional[Dict[str, float]] = None
    #: ``(stats_fp, params by value)`` the estimates were captured
    #: under, or ``None`` (not persisted): a re-registration under the
    #: same pair reuses them.
    estimated_under: Optional[tuple] = None

    # -- derived -------------------------------------------------------------

    def latencies(self) -> List[float]:
        return [obs.execute_seconds for obs in self.observations]

    def median_latency(self) -> Optional[float]:
        values = sorted(self.latencies())
        if not values:
            return None
        middle = len(values) // 2
        if len(values) % 2:
            return values[middle]
        return (values[middle - 1] + values[middle]) / 2.0

    def cost_misestimate(self) -> Optional[float]:
        """Mean query-level q-error of estimated vs. measured cost."""
        ratios = [
            q_error(obs.estimated_cost, obs.measured_cost)
            for obs in self.observations
        ]
        return sum(ratios) / len(ratios) if ratios else None

    def operator_misestimates(self) -> Dict[str, Dict[str, Optional[float]]]:
        """Per-node mean q-errors: rows (every run) and cost (profiled
        runs only)."""
        rows_sums: Dict[str, List[float]] = {}
        cost_sums: Dict[str, List[float]] = {}
        for obs in self.observations:
            for node_id, actual in obs.operators.items():
                estimate = self.estimates.get(node_id)
                if estimate is None:
                    continue
                if estimate.est_rows is not None:
                    rows_sums.setdefault(node_id, []).append(
                        q_error(estimate.est_rows, actual.rows)
                    )
                if estimate.est_cost is not None and actual.cost is not None:
                    cost_sums.setdefault(node_id, []).append(
                        q_error(estimate.est_cost, actual.cost)
                    )
        summary: Dict[str, Dict[str, Optional[float]]] = {}
        for node_id in self.estimates:
            rows = rows_sums.get(node_id)
            cost = cost_sums.get(node_id)
            if rows is None and cost is None:
                continue
            estimate = self.estimates[node_id]
            summary[node_id] = {
                "label": estimate.label,
                "kind": estimate.kind,
                "est_rows": estimate.est_rows,
                "rows_q_error": (
                    round(sum(rows) / len(rows), 4) if rows else None
                ),
                "cost_q_error": (
                    round(sum(cost) / len(cost), 4) if cost else None
                ),
                "samples": max(
                    len(rows) if rows else 0, len(cost) if cost else 0
                ),
            }
        return summary

    def distributed_misestimate(self, params) -> Optional[float]:
        """Mean q-error of the distributed cost terms — network, disk
        and skew — under ``params``, over the sharded observations.

        Each observation scores the mean of three symmetric ratios:

        * **network** — the model's exchange charge for the *estimated*
          wire volume vs. the same charge for the *measured* volume;
        * **disk** — the skew-inflated per-shard disk share vs. the
          measured max-shard logical reads (a barrier round is gated by
          its most loaded shard);
        * **skew** — ``params.shard_skew`` vs. the observed max/mean
          shard load.

        ``None`` when the plan has no distributed estimate or no
        sharded observations; recalibration minimizes this directly.
        """
        est = self.distributed_estimate
        if not est:
            return None
        ratios: List[float] = []
        for obs in self.observations:
            act = obs.distributed
            if not act:
                continue
            est_network = (
                est.get("exchange_tuples", 0.0) * params.network_per_tuple
                + est.get("exchange_frames", 0.0) * params.network_per_round
            )
            act_network = (
                act.get("exchange_tuples", 0.0) * params.network_per_tuple
                + act.get("exchange_frames", 0.0) * params.network_per_round
            )
            est_disk = est.get("disk_base", 0.0) * max(1.0, params.shard_skew)
            act_disk = act.get("max_shard_reads", 0.0)
            observed = max(1.0, act.get("observed_skew", 1.0))
            terms = [
                q_error(est_network, act_network),
                q_error(est_disk, act_disk),
                q_error(max(1.0, params.shard_skew), observed),
            ]
            ratios.append(sum(terms) / len(terms))
        return sum(ratios) / len(ratios) if ratios else None

    def mean_operator_misestimate(self) -> Optional[float]:
        """The headline number: the mean per-operator cost q-error
        across profiled runs (falling back to the rows q-error where a
        node was never profiled)."""
        per_node = self.operator_misestimates()
        values = [
            entry["cost_q_error"]
            if entry["cost_q_error"] is not None
            else entry["rows_q_error"]
            for entry in per_node.values()
        ]
        values = [v for v in values if v is not None and math.isfinite(v)]
        return sum(values) / len(values) if values else None

    def snapshot(self, recent: int = 3) -> dict:
        median = self.median_latency()
        return {
            "fingerprint": self.fingerprint,
            "plan_cost": round(self.plan_cost, 2),
            "runs": self.total_runs,
            "window": len(self.observations),
            "median_execute_ms": (
                round(median * 1000, 3) if median is not None else None
            ),
            "cost_misestimate": (
                round(self.cost_misestimate(), 4)
                if self.cost_misestimate() is not None
                else None
            ),
            "mean_operator_misestimate": (
                round(self.mean_operator_misestimate(), 4)
                if self.mean_operator_misestimate() is not None
                else None
            ),
            "operators": self.operator_misestimates(),
            "distributed_estimate": (
                {
                    k: round(float(v), 4)
                    for k, v in self.distributed_estimate.items()
                }
                if self.distributed_estimate
                else None
            ),
            "recent": [
                obs.to_dict() for obs in list(self.observations)[-recent:]
            ],
        }


class QueryTelemetryStore:
    """Bounded, persistable history of estimated vs. measured execution.

    ``window`` bounds the per-plan observation ring; ``max_plans``
    bounds the number of plan histories (least-recently-observed plans
    are dropped).  ``persist_path`` enables append-only JSONL
    persistence: every registration/observation/event is written as one
    line, and :meth:`load` replays a file back into memory (respecting
    the same bounds), so a restarted service resumes with its history.

    ``max_bytes`` bounds the JSONL file itself.  When an append would
    push the file past the cap, the store *compacts*: it atomically
    rewrites the file from the live in-memory state — which already
    holds exactly the newest ``window`` observations per plan — keeping
    the most-recently-observed plans first-class and dropping the
    oldest plans/observations until the rewrite fits in half the cap
    (headroom for subsequent appends).  Nothing in the newest window of
    the most recent plans is ever lost to compaction.
    """

    def __init__(
        self,
        window: int = 128,
        max_plans: int = 256,
        persist_path: Optional[str] = None,
        event_window: int = 128,
        max_bytes: Optional[int] = None,
    ) -> None:
        if window < 1:
            raise ValueError("telemetry window must be >= 1")
        if max_plans < 1:
            raise ValueError("telemetry max_plans must be >= 1")
        if max_bytes is not None and max_bytes < 4096:
            raise ValueError("telemetry max_bytes must be >= 4096")
        self.window = window
        self.max_plans = max_plans
        self.persist_path = persist_path
        self.max_bytes = max_bytes
        self._plans: "OrderedDict[str, PlanHistory]" = OrderedDict()
        #: canonical text -> fingerprints seen for it, oldest first.
        self._by_query: Dict[str, List[str]] = {}
        self.events: Deque[dict] = deque(maxlen=event_window)
        self._lock = threading.Lock()
        self._sink = None
        self._sink_bytes = 0
        self.dropped_plans = 0
        self.compactions = 0
        if persist_path:
            self.load(persist_path)
            self._sink = open(persist_path, "a", encoding="utf-8")
            try:
                self._sink_bytes = os.path.getsize(persist_path)
            except OSError:
                self._sink_bytes = 0
            if max_bytes is not None and self._sink_bytes > max_bytes:
                with self._lock:
                    self._compact_locked()

    # -- recording -----------------------------------------------------------

    def register_plan(
        self,
        canonical: str,
        fingerprint: str,
        plan_cost: float,
        estimates: Optional[Dict[str, OperatorEstimate]] = None,
        distributed: Optional[Dict[str, float]] = None,
        estimated_under: Optional[tuple] = None,
    ) -> PlanHistory:
        """Create (or refresh the estimates of) one plan history."""
        with self._lock:
            history = self._register_locked(
                canonical, fingerprint, plan_cost, estimates or {}, distributed
            )
            if estimates:
                history.estimated_under = estimated_under
            record = {
                "kind": "plan",
                "fingerprint": fingerprint,
                "canonical": canonical,
                "plan_cost": round(plan_cost, 4),
                "estimates": [
                    e.to_dict() for e in (estimates or {}).values()
                ],
            }
            if distributed:
                record["distributed"] = {
                    k: round(float(v), 6) for k, v in distributed.items()
                }
            self._persist(record)
            return history

    def _register_locked(
        self,
        canonical: str,
        fingerprint: str,
        plan_cost: float,
        estimates: Dict[str, OperatorEstimate],
        distributed: Optional[Dict[str, float]] = None,
    ) -> PlanHistory:
        history = self._plans.get(fingerprint)
        if history is None:
            history = PlanHistory(
                fingerprint,
                canonical,
                plan_cost,
                observations=deque(maxlen=self.window),
            )
            self._plans[fingerprint] = history
            fps = self._by_query.setdefault(canonical, [])
            if fingerprint not in fps:
                fps.append(fingerprint)
            while len(self._plans) > self.max_plans:
                dropped_fp, dropped = self._plans.popitem(last=False)
                self.dropped_plans += 1
                survivors = self._by_query.get(dropped.canonical, [])
                if dropped_fp in survivors:
                    survivors.remove(dropped_fp)
                if not survivors:
                    self._by_query.pop(dropped.canonical, None)
        else:
            history.plan_cost = plan_cost
        if estimates:
            history.estimates = dict(estimates)
        if distributed:
            history.distributed_estimate = dict(distributed)
        return history

    def record(self, fingerprint: str, observation: Observation) -> None:
        """Append one execution to a registered plan's ring."""
        with self._lock:
            history = self._plans.get(fingerprint)
            if history is None:
                return
            history.observations.append(observation)
            history.total_runs += 1
            self._plans.move_to_end(fingerprint)
            self._persist(
                {
                    "kind": "obs",
                    "fingerprint": fingerprint,
                    **observation.to_dict(),
                }
            )

    def record_event(self, name: str, **payload) -> dict:
        """Remember one control-loop event (plan change, regression,
        recalibration, pin)."""
        event = {"event": name, "at": round(time.time(), 3), **payload}
        with self._lock:
            self.events.append(event)
            self._persist({"kind": "event", **event})
        return event

    # -- queries -------------------------------------------------------------

    def plan(self, fingerprint: str) -> Optional[PlanHistory]:
        with self._lock:
            return self._plans.get(fingerprint)

    def plans_for(self, canonical: str) -> List[PlanHistory]:
        with self._lock:
            return [
                self._plans[fp]
                for fp in self._by_query.get(canonical, [])
                if fp in self._plans
            ]

    def latencies(self, fingerprint: str) -> List[float]:
        with self._lock:
            history = self._plans.get(fingerprint)
            return history.latencies() if history else []

    def calibration_samples(self) -> List[Dict[str, float]]:
        """Every observation with event counts as a calibration sample:
        the event-count features and the ``target`` measured cost."""
        with self._lock:
            samples = []
            for history in self._plans.values():
                for obs in history.observations:
                    if obs.events:
                        samples.append(
                            {**obs.events, "target": obs.measured_cost}
                        )
            return samples

    def distributed_misestimate(self, params) -> Optional[float]:
        """Mean distributed-term q-error under ``params`` across every
        plan that ran sharded (``None`` if none did) — the objective
        the feedback loop's distributed recalibration minimizes."""
        with self._lock:
            ratios = [
                value
                for history in self._plans.values()
                for value in [history.distributed_misestimate(params)]
                if value is not None
            ]
            return sum(ratios) / len(ratios) if ratios else None

    def observed_skews(self) -> List[float]:
        """Every sharded observation's measured max/mean load skew —
        the candidate set distributed recalibration searches over."""
        with self._lock:
            return [
                max(1.0, obs.distributed.get("observed_skew", 1.0))
                for history in self._plans.values()
                for obs in history.observations
                if obs.distributed
            ]

    def misestimate_by_query(self) -> Dict[str, dict]:
        """Per-query-class misestimate summary (the Prometheus gauge
        source): mean query-level cost q-error and the mean
        per-operator misestimate over every plan of the class."""
        with self._lock:
            summary: Dict[str, dict] = {}
            for canonical, fps in self._by_query.items():
                cost_ratios: List[float] = []
                op_ratios: List[float] = []
                runs = 0
                for fp in fps:
                    history = self._plans.get(fp)
                    if history is None:
                        continue
                    runs += history.total_runs
                    ratio = history.cost_misestimate()
                    if ratio is not None:
                        cost_ratios.append(ratio)
                    op_ratio = history.mean_operator_misestimate()
                    if op_ratio is not None:
                        op_ratios.append(op_ratio)
                summary[query_class(canonical)] = {
                    "query": canonical,
                    "runs": runs,
                    "plans": len(fps),
                    "cost_misestimate": (
                        round(sum(cost_ratios) / len(cost_ratios), 4)
                        if cost_ratios
                        else None
                    ),
                    "operator_misestimate": (
                        round(sum(op_ratios) / len(op_ratios), 4)
                        if op_ratios
                        else None
                    ),
                }
            return summary

    def snapshot(
        self, query: Optional[str] = None, limit: int = 20
    ) -> dict:
        """The ``history`` protocol payload."""
        with self._lock:
            queries = []
            for canonical, fps in self._by_query.items():
                if query is not None and query not in canonical:
                    continue
                plans = [
                    self._plans[fp].snapshot()
                    for fp in fps
                    if fp in self._plans
                ]
                queries.append(
                    {
                        "query": canonical,
                        "class": query_class(canonical),
                        "plans": plans,
                    }
                )
            queries.sort(
                key=lambda entry: -sum(p["runs"] for p in entry["plans"])
            )
            return {
                "plans": len(self._plans),
                "dropped_plans": self.dropped_plans,
                "compactions": self.compactions,
                "queries": queries[:limit],
                "events": list(self.events),
            }

    # -- persistence ---------------------------------------------------------

    def _persist(self, payload: dict) -> None:
        """Append one JSONL record (caller holds ``_lock``), compacting
        first when the append would push the file past ``max_bytes``."""
        if self._sink is None:
            return
        line = json.dumps(payload, default=str) + "\n"
        size = len(line.encode("utf-8"))
        if (
            self.max_bytes is not None
            and self._sink_bytes + size > self.max_bytes
        ):
            self._compact_locked()
        self._sink.write(line)
        self._sink.flush()
        self._sink_bytes += size

    def _plan_record(self, history: PlanHistory) -> dict:
        record = {
            "kind": "plan",
            "fingerprint": history.fingerprint,
            "canonical": history.canonical,
            "plan_cost": round(history.plan_cost, 4),
            "estimates": [e.to_dict() for e in history.estimates.values()],
        }
        if history.distributed_estimate:
            record["distributed"] = {
                k: round(float(v), 6)
                for k, v in history.distributed_estimate.items()
            }
        return record

    def _compact_locked(self) -> None:
        """Atomically rewrite the JSONL file from live state, dropping
        the *oldest* plans (and, if one plan alone overflows, its
        oldest observations) until the rewrite fits ``max_bytes // 2``.
        The bounded event ring is always kept."""
        if self._sink is None or self.max_bytes is None:
            return
        target = max(self.max_bytes // 2, 1)

        def measure(line: str) -> int:
            return len(line.encode("utf-8")) + 1

        event_lines = [
            json.dumps({"kind": "event", **event}, default=str)
            for event in self.events
        ]
        remaining = target - sum(measure(line) for line in event_lines)
        # Walk plans newest-observed first; each block is the plan
        # registration line followed by its observations oldest-first
        # (reload order must rebuild the ring correctly).
        kept_blocks: List[List[str]] = []
        for fingerprint, history in reversed(list(self._plans.items())):
            plan_line = json.dumps(self._plan_record(history), default=str)
            obs_lines = [
                json.dumps(
                    {"kind": "obs", "fingerprint": fingerprint, **obs.to_dict()},
                    default=str,
                )
                for obs in history.observations
            ]
            block = [plan_line] + obs_lines
            size = sum(measure(line) for line in block)
            if size > remaining:
                # Partial fit: the plan line plus the newest
                # observations that still fit, then stop — everything
                # older is compacted away.
                trimmed = [plan_line]
                size = measure(plan_line)
                tail: List[str] = []
                for line in reversed(obs_lines):
                    line_size = measure(line)
                    if size + line_size > remaining:
                        break
                    tail.append(line)
                    size += line_size
                if size <= remaining:
                    trimmed.extend(reversed(tail))
                    kept_blocks.append(trimmed)
                break
            kept_blocks.append(block)
            remaining -= size
        tmp_path = self.persist_path + ".compact"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            # Oldest plan first so a reload reconstructs the same LRU
            # order the live store has.
            for block in reversed(kept_blocks):
                for line in block:
                    handle.write(line + "\n")
            for line in event_lines:
                handle.write(line + "\n")
        self._sink.close()
        os.replace(tmp_path, self.persist_path)
        self._sink = open(self.persist_path, "a", encoding="utf-8")
        self._sink_bytes = os.path.getsize(self.persist_path)
        self.compactions += 1

    def load(self, path: str) -> int:
        """Replay a JSONL telemetry file into memory; returns the
        number of lines applied.  Unknown/corrupt lines are skipped —
        a truncated tail (crash mid-write) must not poison a restart."""
        applied = 0
        try:
            handle = open(path, "r", encoding="utf-8")
        except FileNotFoundError:
            return 0
        with handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if self._apply(payload):
                    applied += 1
        return applied

    def _apply(self, payload: dict) -> bool:
        kind = payload.get("kind")
        if kind == "plan":
            estimates = {
                entry["node_id"]: OperatorEstimate(
                    entry["node_id"],
                    entry.get("label", ""),
                    entry.get("kind", ""),
                    entry.get("est_rows"),
                    entry.get("est_cost"),
                )
                for entry in payload.get("estimates", [])
                if "node_id" in entry
            }
            with self._lock:
                self._register_locked(
                    payload.get("canonical", ""),
                    payload.get("fingerprint", ""),
                    float(payload.get("plan_cost", 0.0)),
                    estimates,
                    distributed=(
                        {
                            k: float(v)
                            for k, v in payload["distributed"].items()
                        }
                        if payload.get("distributed")
                        else None
                    ),
                )
            return True
        if kind == "obs":
            fingerprint = payload.get("fingerprint", "")
            with self._lock:
                history = self._plans.get(fingerprint)
                if history is None:
                    return False
                history.observations.append(Observation.from_dict(payload))
                history.total_runs += 1
                self._plans.move_to_end(fingerprint)
            return True
        if kind == "event":
            with self._lock:
                self.events.append(
                    {k: v for k, v in payload.items() if k != "kind"}
                )
            return True
        return False

    def close(self) -> None:
        if self._sink is not None:
            self._sink.close()
            self._sink = None

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)
