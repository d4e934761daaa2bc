"""``EXPLAIN ANALYZE``: the cost model's estimates next to the
engine's actuals, per PT node.

The paper validates its cost model once, offline (Figures 5 and 6:
estimated vs. measured cost per plan).  This module turns that into a
per-query, per-operator audit: :func:`build_explain` walks an optimized
plan, pairs each node's *estimated* rows/cost (from
:meth:`~repro.cost.model.DetailedCostModel.annotated_report`, which
accumulates over the Fix iterations the model predicts) with the
*actual* rows, wall time, page reads and predicate evaluations the
:class:`~repro.obs.profile.PlanProfiler` measured, and
:func:`render_explain` prints the annotated tree through the standard
plan printer.  ``Fix`` nodes additionally list their semi-naive
iterations (new tuples and wall time per round).

Export: :meth:`ExplainTree.to_dict` (JSON).  The Chrome timeline of
a run is the tracer's (:meth:`repro.obs.trace.Tracer.to_chrome_trace`),
whose spans carry real start times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro import units
from repro.engine.metrics import network_cost, node_cost
from repro.errors import CostModelError
from repro.obs.profile import FixIterationProfile, PlanProfiler, assign_node_ids
from repro.plans.display import render_tree
from repro.plans.nodes import PlanNode

__all__ = ["ExplainNode", "ExplainTree", "build_explain", "render_explain"]


@dataclass
class ExplainNode:
    """One PT operator with estimates and (optionally) actuals."""

    node_id: str
    label: str
    kind: str
    est_cost: Optional[float] = None
    est_rows: Optional[float] = None
    est_visits: int = 0
    actual_rows: Optional[int] = None
    actual_cost: Optional[float] = None
    actual_seconds: Optional[float] = None
    exclusive_seconds: Optional[float] = None
    page_reads: Optional[int] = None
    index_page_reads: Optional[float] = None
    predicate_evals: Optional[int] = None
    fix_iterations: List[dict] = field(default_factory=list)
    #: Distributed est-vs-act terms for a sharded Fix node:
    #: ``{"est": {...}, "act": {...}}`` with the network/disk/skew
    #: decomposition of :mod:`repro.cost.distributed` on the est side
    #: and the measured exchange volumes on the act side.
    distributed: Optional[Dict[str, Dict[str, float]]] = None
    children: List["ExplainNode"] = field(default_factory=list)

    @property
    def analyzed(self) -> bool:
        return self.actual_rows is not None

    def to_dict(self) -> dict:
        payload: Dict[str, object] = {
            "node_id": self.node_id,
            "label": self.label,
            "kind": self.kind,
            "est_rows": _round(self.est_rows),
            "est_cost": _round(self.est_cost),
        }
        if self.analyzed:
            payload.update(
                {
                    "actual_rows": self.actual_rows,
                    "actual_cost": _round(self.actual_cost),
                    "actual_ms": _round_ms(self.actual_seconds),
                    "exclusive_ms": _round_ms(self.exclusive_seconds),
                    "page_reads": self.page_reads,
                    "index_page_reads": _round(self.index_page_reads),
                    "predicate_evals": self.predicate_evals,
                }
            )
        if self.fix_iterations:
            payload["fix_iterations"] = list(self.fix_iterations)
        if self.distributed is not None:
            payload["distributed"] = {
                side: {key: _round(value) for key, value in terms.items()}
                for side, terms in self.distributed.items()
            }
        payload["children"] = [child.to_dict() for child in self.children]
        return payload

    def annotation(self) -> str:
        """The one-line estimate/actual summary shown after the label."""
        est = (
            f"est rows={_fmt(self.est_rows)} cost={_fmt(self.est_cost)}"
        )
        if not self.analyzed:
            return f"({est})"
        actual = (
            f"act rows={self.actual_rows} cost={_fmt(self.actual_cost)} "
            f"time={_fmt_ms(self.actual_seconds)} "
            f"reads={self.page_reads}"
        )
        return f"({est} | {actual})"

    def extra_lines(self) -> List[str]:
        """Per-iteration actuals listed under a Fix node.

        Distributed rounds additionally show their shard fan-out and
        per-round exchange volume (tuples and frame bytes, both legs).
        """
        lines = []
        for entry in self.fix_iterations:
            what = "base" if entry["iteration"] == 0 else f"iter {entry['iteration']}"
            line = f"[{what}: +{entry['new_tuples']} tuples in {entry['ms']:.3f}ms"
            if entry.get("shards") is not None:
                line += (
                    f" | shards={entry['shards']}"
                    f" exchanged={entry.get('exchange_tuples', 0)} tuples"
                    f"/{entry.get('exchange_bytes', 0)}B"
                )
            lines.append(line + "]")
        if self.distributed is not None:
            est = self.distributed.get("est", {})
            act = self.distributed.get("act", {})
            lines.append(
                "[distributed:"
                f" network est={_fmt(est.get('network'))}"
                f" act={_fmt(act.get('network'))}"
                f" | disk est={_fmt(est.get('disk'))}"
                f" act={_fmt(act.get('disk'))}"
                f" | skew est={_fmt(est.get('skew'))}"
                f" act={_fmt(act.get('skew'))}]"
            )
        return lines


class ExplainTree:
    """The whole annotated plan plus roll-up totals."""

    def __init__(
        self,
        plan: PlanNode,
        root: ExplainNode,
        by_id: Dict[str, ExplainNode],
        node_ids: Dict[int, str],
        analyzed: bool,
    ) -> None:
        self.plan = plan
        self.root = root
        self.by_id = by_id
        self.node_ids = node_ids
        self.analyzed = analyzed

    def node_for(self, plan_node: PlanNode) -> Optional[ExplainNode]:
        node_id = self.node_ids.get(id(plan_node))
        return self.by_id.get(node_id) if node_id is not None else None

    def to_dict(self) -> dict:
        return {
            "analyzed": self.analyzed,
            "estimated_cost": _round(self.root.est_cost),
            "actual_cost": _round(self.root.actual_cost),
            "plan": self.root.to_dict(),
        }


def build_explain(
    plan: PlanNode,
    cost_model,
    profiler: Optional[PlanProfiler] = None,
) -> ExplainTree:
    """Pair a plan's per-node estimates with profiled actuals.

    ``cost_model`` is a :class:`~repro.cost.model.DetailedCostModel`;
    ``profiler`` is the :class:`PlanProfiler` passed to
    ``Engine.execute`` (omit for a plain ``EXPLAIN``)."""
    _report, estimates = cost_model.annotated_report(plan)
    node_ids = assign_node_ids(plan)
    by_id: Dict[str, ExplainNode] = {}

    def build(node: PlanNode) -> ExplainNode:
        node_id = node_ids[id(node)]
        if node_id in by_id:  # shared subtree: reuse the annotated node
            return by_id[node_id]
        explain = ExplainNode(node_id, node.label(), type(node).__name__)
        by_id[node_id] = explain
        captured = estimates.get(id(node))
        if captured is not None:
            explain.est_cost = captured.cost
            explain.est_rows = captured.tuples
            explain.est_visits = captured.visits
        else:
            # Not separately costed (e.g. the leaf under an
            # index-assisted selection); fall back to a bare estimate.
            # A recursion reference has none outside its fixpoint.
            try:
                explain.est_rows = cost_model.estimator.estimate(node).tuples
            except CostModelError:
                pass
        if profiler is not None:
            profile = profiler.profiles.get(node_id)
            if profile is not None:
                explain.actual_rows = profile.tuples_out
                explain.actual_seconds = profile.wall_seconds
                explain.exclusive_seconds = profiler.exclusive_seconds(node_id)
                explain.page_reads = profile.page_reads
                explain.index_page_reads = profile.index_page_reads
                explain.predicate_evals = profile.predicate_evals
                explain.actual_cost = node_cost(profile)
                explain.fix_iterations = [
                    it.to_dict() for it in profile.fix_iterations
                ]
        breakdown = getattr(cost_model, "fix_breakdowns", {}).get(id(node))
        if breakdown is not None:
            explain.distributed = {"est": dict(breakdown)}
            profile = profiler.profiles.get(node_id) if profiler else None
            actual = _distributed_actuals(
                profile.fix_iterations if profile is not None else ()
            )
            if actual is not None:
                if explain.page_reads is not None:
                    actual["disk"] = float(explain.page_reads) * units.PAGE_READ
                explain.distributed["act"] = actual
        explain.children = [build(child) for child in node.children]
        return explain

    root = build(plan)
    return ExplainTree(plan, root, by_id, node_ids, profiler is not None)


def render_explain(tree: ExplainTree) -> str:
    """Render the annotated PT through the standard plan printer."""
    def annotate(plan_node: PlanNode):
        explain = tree.node_for(plan_node)
        if explain is None:
            return "", []
        return f"  {explain.annotation()}", explain.extra_lines()

    return render_tree(tree.plan, annotate=annotate)


def _distributed_actuals(
    iterations: Iterable[FixIterationProfile],
) -> Optional[Dict[str, float]]:
    """Aggregate a Fix node's sharded round records into the same
    network/disk/skew terms the distributed cost model estimates."""
    sharded = [entry for entry in iterations if entry.shards is not None]
    if not sharded:
        return None
    tuples = float(sum(entry.exchange_tuples or 0 for entry in sharded))
    frames = float(sum(entry.exchange_frames or 0 for entry in sharded))
    skews = [entry.skew for entry in sharded if entry.skew is not None]
    return {
        "shards": float(max(entry.shards for entry in sharded)),
        "rounds": float(len(sharded)),
        "exchange_tuples": tuples,
        "exchange_frames": frames,
        "exchange_bytes": float(
            sum(entry.exchange_bytes or 0 for entry in sharded)
        ),
        "network": network_cost(tuples, frames),
        "skew": (sum(skews) / len(skews)) if skews else 1.0,
        "barrier_wait_ms": 1000.0
        * sum(entry.barrier_wait_s or 0.0 for entry in sharded),
    }


def _round(value: Optional[float]) -> Optional[float]:
    return round(value, 2) if value is not None else None


def _round_ms(seconds: Optional[float]) -> Optional[float]:
    return round(seconds * 1000, 3) if seconds is not None else None


def _fmt(value: Optional[float]) -> str:
    return f"{value:.1f}" if value is not None else "?"


def _fmt_ms(seconds: Optional[float]) -> str:
    return f"{seconds * 1000:.2f}ms" if seconds is not None else "?"
