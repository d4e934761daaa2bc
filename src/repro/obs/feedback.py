"""The feedback loop: telemetry → recalibration → regression detection.

The paper's push/no-push decisions are only as good as the cost
model's constants and cardinality estimates; this module makes the
optimizer *cost-controlled* in the closed-loop sense by feeding the
measured actuals of :class:`~repro.obs.history.QueryTelemetryStore`
back into the decision machinery:

* **online recalibration** — reuses the NNLS fit of
  :mod:`repro.cost.calibrate`, but sources the probes from accumulated
  production observations instead of a synthetic probe workload.  The
  result is an updated :class:`~repro.cost.params.CostParameters` the
  service can hot-swap behind a flag;
* **plan-regression detection** — when drift invalidation or a
  recalibration makes the plan cache re-optimize a cached query, the
  old and new PTs are diffed (operator inventory + push/no-push
  choice) and the new plan is put on watch.  Once it has enough runs,
  its *measured* latency history is compared against the old plan's;
  beyond ``regression_ratio`` the change is flagged as a
  ``plan_regression`` event carrying both plan fingerprints — and the
  old plan is kept around so the service can *pin* it back.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.cost.params import CostParameters
from repro.engine.metrics import node_cost
from repro.errors import ServiceError
from repro.obs.history import (
    Observation,
    OperatorActual,
    OperatorEstimate,
    PlanHistory,
    QueryTelemetryStore,
)
from repro.obs.profile import PlanProfiler, assign_node_ids
from repro.plans.canonical import canonical_fingerprint

__all__ = [
    "FeedbackConfig",
    "FeedbackManager",
    "PlanChange",
    "build_observation",
    "distributed_plan_estimate",
    "operator_estimates",
    "plan_diff",
    "plan_pushes_into_recursion",
]


@dataclass
class FeedbackConfig:
    """Knobs of the control loop."""

    #: Per-plan observation ring size.
    history_window: int = 128
    #: How many plan histories to keep (least-recently-observed drop).
    max_plans: int = 256
    #: JSONL file the telemetry survives restarts in; ``None`` keeps
    #: history in memory only.
    persist_path: Optional[str] = None
    #: Size cap (bytes) on the JSONL file; exceeding it triggers an
    #: oldest-first rotation + compaction.  ``None`` = unbounded.
    history_max_bytes: Optional[int] = None
    #: A re-optimized plan whose median measured latency exceeds the
    #: old plan's by more than this factor is flagged as a regression.
    regression_ratio: float = 1.5
    #: Runs of the new plan required before the comparison is made.
    regression_min_runs: int = 3
    #: Observations required before :meth:`FeedbackManager.recalibrate`
    #: will fit (the NNLS itself needs at least five).
    recalibrate_min_samples: int = 8
    #: Profile every Nth query so per-operator actual costs accumulate
    #: with bounded overhead; 0 records cardinalities only.
    profile_sample_every: int = 0
    #: Automatically pin the old plan when a regression is flagged.
    auto_pin: bool = False


@dataclass
class PlanChange:
    """One re-optimization of a cached query, under watch."""

    canonical: str
    old_fingerprint: str
    new_fingerprint: str
    old_plan: object
    old_cost: float
    new_cost: float
    reason: str
    diff: dict = field(default_factory=dict)
    at: float = field(default_factory=time.time)
    #: ``None`` while pending, then ``"regression"`` or ``"ok"``.
    verdict: Optional[str] = None


# -- plan structure helpers ---------------------------------------------------


def plan_pushes_into_recursion(plan) -> bool:
    """Whether a PT carries a selection inside a ``Fix`` body (the
    paper's push-through-recursion choice)."""
    from repro.plans.nodes import Fix, Sel

    for node in plan.walk():
        if isinstance(node, Fix):
            for inner in node.body.walk():
                if isinstance(inner, Sel):
                    return True
    return False


def _operator_inventory(plan) -> Dict[str, int]:
    inventory: Dict[str, int] = {}
    for node in plan.walk():
        key = f"{type(node).__name__} {node.label()}"
        inventory[key] = inventory.get(key, 0) + 1
    return inventory


def plan_diff(old_plan, new_plan) -> dict:
    """Operator-tree diff between two PTs: the push decision on each
    side plus the operators only one side has."""
    old_ops = _operator_inventory(old_plan)
    new_ops = _operator_inventory(new_plan)
    removed = [
        op
        for op, count in old_ops.items()
        for _ in range(count - new_ops.get(op, 0))
        if count > new_ops.get(op, 0)
    ]
    added = [
        op
        for op, count in new_ops.items()
        for _ in range(count - old_ops.get(op, 0))
        if count > old_ops.get(op, 0)
    ]
    return {
        "old_push": plan_pushes_into_recursion(old_plan),
        "new_push": plan_pushes_into_recursion(new_plan),
        "removed": removed,
        "added": added,
        "old_size": sum(old_ops.values()),
        "new_size": sum(new_ops.values()),
    }


def operator_estimates(plan, cost_model) -> Dict[str, OperatorEstimate]:
    """Per-node estimates keyed by the stable pre-order node ids —
    computed once per plan registration, not per query.  The model is
    the one that just priced ``plan``, so costing it again cannot fail:
    an error here is a bug and propagates."""
    if cost_model is None:
        return {}
    _report, captured = cost_model.annotated_report(plan)
    node_ids = assign_node_ids(plan)
    estimates: Dict[str, OperatorEstimate] = {}
    for node in plan.walk():
        node_id = node_ids[id(node)]
        if node_id in estimates:
            continue
        entry = OperatorEstimate(node_id, node.label(), type(node).__name__)
        capture = captured.get(id(node))
        if capture is not None:
            entry.est_rows = round(capture.tuples, 4)
            entry.est_cost = round(capture.cost, 4)
        estimates[node_id] = entry
    return estimates


def distributed_plan_estimate(cost_model) -> Optional[Dict[str, float]]:
    """Aggregate the cost model's per-Fix distributed term breakdowns
    (:attr:`~repro.cost.model.DetailedCostModel.fix_breakdowns`, filled
    by the last ``report``/``annotated_report``) into one plan-level
    estimate; ``None`` when the plan was costed at ``shards == 1``."""
    breakdowns = getattr(cost_model, "fix_breakdowns", None)
    if not breakdowns:
        return None
    total: Dict[str, float] = {
        "shards": 0.0,
        "rounds": 0.0,
        "exchange_tuples": 0.0,
        "exchange_frames": 0.0,
        "network": 0.0,
        "disk_base": 0.0,
        "disk": 0.0,
        "skew": 1.0,
    }
    for breakdown in breakdowns.values():
        total["shards"] = max(total["shards"], float(breakdown["shards"]))
        total["skew"] = max(total["skew"], float(breakdown["skew"]))
        for key in (
            "rounds",
            "exchange_tuples",
            "exchange_frames",
            "network",
            "disk_base",
            "disk",
        ):
            total[key] += float(breakdown.get(key, 0.0))
    return total


def build_observation(
    request_id: str,
    estimated_cost: float,
    measured_cost: float,
    execute_seconds: float,
    rows: int,
    runtime,
    profiler: Optional[PlanProfiler] = None,
) -> Observation:
    """Turn one execution's metrics into a telemetry observation.

    Profiled runs carry full per-node actuals (rows, cost, time,
    reads, evals); plain runs carry the per-node cardinalities the
    engine already counts in
    :attr:`~repro.engine.metrics.RuntimeMetrics.tuples_by_node` — free
    either way on the serving hot path.
    """
    # Imported here (not at module scope): calibrate pulls in the
    # engine, whose import re-enters this package.
    from repro.cost.calibrate import events_of

    operators: Dict[str, OperatorActual] = {}
    if profiler is not None:
        for node_id, profile in profiler.profiles.items():
            operators[node_id] = OperatorActual(
                rows=profile.tuples_out,
                cost=node_cost(profile),
                seconds=profile.wall_seconds,
                page_reads=profile.page_reads + profile.index_page_reads,
                predicate_evals=profile.predicate_evals,
            )
    else:
        for node_id, count in runtime.tuples_by_node.items():
            operators[node_id] = OperatorActual(rows=count)
    distributed = None
    if getattr(runtime, "shards_used", 0) > 1:
        distributed = {
            "shards": float(runtime.shards_used),
            "rounds": float(runtime.exchange_rounds),
            "exchange_tuples": float(runtime.exchange_tuples),
            "exchange_bytes": float(runtime.exchange_bytes),
            "exchange_frames": float(runtime.exchange_frames),
            "max_shard_reads": float(
                max(runtime.reads_by_shard.values(), default=0)
            ),
            "observed_skew": runtime.observed_skew(),
            "barrier_wait_s": runtime.barrier_wait_seconds,
        }
    return Observation(
        at=time.time(),
        request_id=request_id,
        estimated_cost=estimated_cost,
        measured_cost=measured_cost,
        execute_seconds=execute_seconds,
        rows=rows,
        events=events_of(runtime),
        operators=operators,
        profiled=profiler is not None,
        distributed=distributed,
    )


class FeedbackManager:
    """Owns the telemetry store, the pending plan changes, and the
    recalibration entry point.  Thread-safe; one per service."""

    def __init__(self, config: Optional[FeedbackConfig] = None) -> None:
        self.config = config or FeedbackConfig()
        self.store = QueryTelemetryStore(
            window=self.config.history_window,
            max_plans=self.config.max_plans,
            persist_path=self.config.persist_path,
            max_bytes=self.config.history_max_bytes,
        )
        self._lock = threading.Lock()
        #: canonical query -> plan change awaiting a verdict.
        self._pending: Dict[str, PlanChange] = {}
        #: canonical query -> the last change flagged as a regression
        #: (keeps the old plan object alive for pinning).
        self._regressions: Dict[str, PlanChange] = {}
        self._sample_counter = 0
        self.recalibrations = 0
        self.regressions_flagged = 0
        self.last_calibration: Optional[dict] = None

    # -- the per-query path --------------------------------------------------

    def should_profile(self) -> bool:
        """Sampling decision for the periodic profiled run."""
        every = self.config.profile_sample_every
        if every <= 0:
            return False
        with self._lock:
            self._sample_counter += 1
            return self._sample_counter % every == 0

    def register_plan(
        self,
        canonical: str,
        plan,
        plan_cost: float,
        cost_model=None,
        stats_fp: Optional[str] = None,
    ) -> str:
        """Fingerprint a (new or re-registered) plan and freeze its
        per-node estimates; returns the fingerprint.

        ``stats_fp`` is the plan-cache entry's statistics fingerprint.
        A re-registration under the same statistics and the same
        ``cost_model.params`` reuses the estimates the history already
        holds for the fingerprint instead of re-costing the plan: they
        are the numbers ``operator_estimates`` would return."""
        fingerprint = canonical_fingerprint(plan)
        under = None
        if cost_model is not None and stats_fp is not None:
            under = (stats_fp, cost_model.params.memo_key())
        history = self.store.plan(fingerprint) if under is not None else None
        if history is not None and history.estimated_under == under:
            estimates = history.estimates
            distributed = history.distributed_estimate
        else:
            estimates = operator_estimates(plan, cost_model)
            # annotated_report above refreshed the model's per-Fix
            # distributed breakdowns for exactly this plan.
            distributed = distributed_plan_estimate(cost_model)
        self.store.register_plan(
            canonical,
            fingerprint,
            plan_cost,
            estimates,
            distributed=distributed,
            estimated_under=under,
        )
        return fingerprint

    def plan_changed(
        self,
        canonical: str,
        old_plan,
        old_cost: float,
        new_plan,
        new_cost: float,
        reason: str,
    ) -> Optional[dict]:
        """A cached query was re-optimized; put the new plan on watch.

        Returns the recorded ``plan_change`` event, or ``None`` when
        the "new" plan has the old one's canonical fingerprint.
        """
        old_fp = canonical_fingerprint(old_plan)
        new_fp = canonical_fingerprint(new_plan)
        if old_fp == new_fp:
            return None
        change = PlanChange(
            canonical,
            old_fp,
            new_fp,
            old_plan,
            old_cost,
            new_cost,
            reason,
            plan_diff(old_plan, new_plan),
        )
        with self._lock:
            self._pending[canonical] = change
        return self.store.record_event(
            "plan_change",
            query=canonical,
            old_fingerprint=old_fp,
            new_fingerprint=new_fp,
            reason=reason,
            diff=change.diff,
        )

    def observe(
        self, canonical: str, fingerprint: str, observation: Observation
    ) -> Optional[dict]:
        """Record one execution; returns a ``plan_regression`` event
        when this run settles a pending plan change as a regression."""
        self.store.record(fingerprint, observation)
        return self._judge_pending(canonical, fingerprint)

    def _judge_pending(
        self, canonical: str, fingerprint: str
    ) -> Optional[dict]:
        with self._lock:
            change = self._pending.get(canonical)
            if change is None or change.new_fingerprint != fingerprint:
                return None
        new_history = self.store.plan(change.new_fingerprint)
        old_history = self.store.plan(change.old_fingerprint)
        if (
            new_history is None
            or len(new_history.observations) < self.config.regression_min_runs
        ):
            return None
        with self._lock:
            self._pending.pop(canonical, None)
        if old_history is None or not old_history.observations:
            return None  # nothing to compare against
        old_median = old_history.median_latency() or 0.0
        new_median = new_history.median_latency() or 0.0
        ratio = new_median / max(old_median, 1e-9)
        if ratio <= self.config.regression_ratio:
            change.verdict = "ok"
            self.store.record_event(
                "plan_change_ok",
                query=canonical,
                old_fingerprint=change.old_fingerprint,
                new_fingerprint=change.new_fingerprint,
                latency_ratio=round(ratio, 3),
            )
            return None
        change.verdict = "regression"
        with self._lock:
            self._regressions[canonical] = change
            self.regressions_flagged += 1
        return self.store.record_event(
            "plan_regression",
            query=canonical,
            old_fingerprint=change.old_fingerprint,
            new_fingerprint=change.new_fingerprint,
            old_median_ms=round(old_median * 1000, 3),
            new_median_ms=round(new_median * 1000, 3),
            latency_ratio=round(ratio, 3),
            reason=change.reason,
            diff=change.diff,
            auto_pin=self.config.auto_pin,
        )

    # -- pinning support -----------------------------------------------------

    def regression_for(self, canonical: str) -> Optional[PlanChange]:
        """The last flagged regression of a query (old plan included)."""
        with self._lock:
            return self._regressions.get(canonical)

    def record_pin(self, canonical: str, fingerprint: str, pinned: bool) -> dict:
        with self._lock:
            if pinned:
                self._regressions.pop(canonical, None)
                self._pending.pop(canonical, None)
        return self.store.record_event(
            "plan_pinned" if pinned else "plan_unpinned",
            query=canonical,
            fingerprint=fingerprint,
        )

    # -- recalibration -------------------------------------------------------

    def recalibrate(self, base: Optional[CostParameters] = None):
        """Fit fresh unit weights from the accumulated production
        actuals (the online counterpart of
        :func:`repro.cost.calibrate.calibrate`); returns
        ``(CalibratedWeights, CostParameters, report_dict)``."""
        from repro.cost.calibrate import EVENT_NAMES, fit_from_samples

        samples = self.store.calibration_samples()
        # The fit is underdetermined below one sample per *exercised*
        # event weight (features the workload never produced — e.g. the
        # exchange columns on a single-store deployment — cost nothing).
        exercised = sum(
            1
            for name in EVENT_NAMES
            if any(sample.get(name, 0.0) for sample in samples)
        )
        needed = max(self.config.recalibrate_min_samples, exercised)
        if len(samples) < needed:
            raise ServiceError(
                f"recalibration needs at least {needed} observed "
                f"queries, have {len(samples)}"
            )
        weights = fit_from_samples(samples)
        params = weights.to_parameters(base)
        params, distributed_report = self._refit_distributed(params)
        with self._lock:
            self.recalibrations += 1
        report = {
            "samples": len(samples),
            "residual": round(weights.residual, 6),
            "weights": {
                name: round(value, 6)
                for name, value in weights.weights.items()
            },
            "parameters": {
                "page_read": params.page_read,
                "eval_per_tuple": params.eval_per_tuple,
                "tuple_cpu": params.tuple_cpu,
                "index_page": params.index_page,
                "network_per_tuple": params.network_per_tuple,
                "network_per_round": params.network_per_round,
                "shard_skew": params.shard_skew,
            },
        }
        if distributed_report is not None:
            report["distributed"] = distributed_report
        self.last_calibration = report
        self.store.record_event("recalibration", **report)
        return weights, params, report

    def _refit_distributed(self, params: CostParameters):
        """Refit ``shard_skew`` against the sharded observations: pick
        the candidate (1.0, each observed skew, their mean, the current
        value) that minimizes the store's distributed-term q-error.
        The argmin over a set containing the incumbent guarantees the
        misestimate never gets worse; on a skewed workload it strictly
        improves.  No sharded observations -> ``params`` unchanged."""
        from dataclasses import replace

        before = self.store.distributed_misestimate(params)
        if before is None:
            return params, None
        skews = self.store.observed_skews()
        candidates = {1.0, max(1.0, params.shard_skew)}
        candidates.update(skews)
        if skews:
            candidates.add(sum(skews) / len(skews))
        best_skew = max(1.0, params.shard_skew)
        best_score = before
        for candidate in sorted(candidates):
            trial = replace(params, shard_skew=candidate)
            score = self.store.distributed_misestimate(trial)
            if score is not None and score < best_score:
                best_skew, best_score = candidate, score
        params = replace(params, shard_skew=best_skew)
        return params, {
            "sharded_samples": len(skews),
            "observed_skew": (
                round(sum(skews) / len(skews), 4) if skews else 1.0
            ),
            "shard_skew": round(best_skew, 4),
            "misestimate_before": round(before, 4),
            "misestimate_after": round(best_score, 4),
        }

    # -- reporting -----------------------------------------------------------

    def misestimate_by_query(self) -> Dict[str, dict]:
        return self.store.misestimate_by_query()

    def snapshot(self) -> dict:
        with self._lock:
            pending = [
                {
                    "query": change.canonical,
                    "old_fingerprint": change.old_fingerprint,
                    "new_fingerprint": change.new_fingerprint,
                    "reason": change.reason,
                }
                for change in self._pending.values()
            ]
            regressions = [
                {
                    "query": change.canonical,
                    "old_fingerprint": change.old_fingerprint,
                    "new_fingerprint": change.new_fingerprint,
                    "reason": change.reason,
                }
                for change in self._regressions.values()
            ]
        return {
            "recalibrations": self.recalibrations,
            "regressions_flagged": self.regressions_flagged,
            "pending_changes": pending,
            "regressions": regressions,
            "last_calibration": self.last_calibration,
            "tracked_plans": len(self.store),
        }

    def close(self) -> None:
        self.store.close()
