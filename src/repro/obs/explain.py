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

Exports: :meth:`ExplainTree.to_dict` (JSON) and
:meth:`ExplainTree.to_chrome_trace` (a synthesized flame view of
inclusive per-node wall time, loadable in ``chrome://tracing``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import CostModelError
from repro.obs.profile import PlanProfiler, assign_node_ids
from repro.plans.display import render_tree
from repro.plans.nodes import PlanNode

__all__ = ["ExplainNode", "ExplainTree", "build_explain", "render_explain"]

#: Unit weights mirroring RuntimeMetrics.measured_cost, so per-node
#: actual cost is in the same currency as the model's estimate.
PAGE_READ_COST = 1.0
EVAL_COST = 0.1
#: Network unit weights mirroring RuntimeMetrics.measured_cost (the
#: CostParameters defaults), so the measured wire volumes price into
#: the same currency as the distributed model's network estimate.
NETWORK_TUPLE_COST = 0.005
NETWORK_FRAME_COST = 0.05


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

    def to_chrome_trace(self) -> dict:
        """A flame view of inclusive per-node wall time: children are
        laid out sequentially inside their parent's extent (the real
        execution interleaves pulls, so offsets are synthetic — the
        *durations* are the measured inclusive times)."""
        trace_events: List[dict] = []

        def emit(node: ExplainNode, start_us: float, depth: int) -> None:
            duration_us = (node.actual_seconds or 0.0) * 1e6
            trace_events.append(
                {
                    "name": f"{node.node_id} {node.label}",
                    "cat": "execute",
                    "ph": "X",
                    "ts": round(start_us, 3),
                    "dur": round(duration_us, 3),
                    "pid": 1,
                    "tid": 1,
                    "args": {
                        "rows": node.actual_rows,
                        "est_rows": _round(node.est_rows),
                        "page_reads": node.page_reads,
                    },
                }
            )
            offset = start_us
            for child in node.children:
                emit(child, offset, depth + 1)
                offset += (child.actual_seconds or 0.0) * 1e6

        emit(self.root, 0.0, 0)
        return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


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
                explain.actual_cost = (
                    (profile.page_reads + profile.index_page_reads)
                    * PAGE_READ_COST
                    + profile.predicate_evals * EVAL_COST
                )
                explain.fix_iterations = [
                    it.to_dict() for it in profile.fix_iterations
                ]
        breakdown = getattr(cost_model, "fix_breakdowns", {}).get(id(node))
        if breakdown is not None:
            explain.distributed = {"est": dict(breakdown)}
            actual = _distributed_actuals(explain.fix_iterations)
            if actual is not None:
                if explain.page_reads is not None:
                    actual["disk"] = float(explain.page_reads) * PAGE_READ_COST
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


def _distributed_actuals(iterations: List[dict]) -> Optional[Dict[str, float]]:
    """Aggregate a Fix node's sharded per-round actuals into the same
    network/disk/skew terms the distributed cost model estimates."""
    sharded = [entry for entry in iterations if entry.get("shards") is not None]
    if not sharded:
        return None
    tuples = float(sum(entry.get("exchange_tuples", 0) for entry in sharded))
    frames = float(sum(entry.get("exchange_frames", 0) for entry in sharded))
    skews = [entry["skew"] for entry in sharded if entry.get("skew") is not None]
    actual: Dict[str, float] = {
        "shards": float(max(entry["shards"] for entry in sharded)),
        "rounds": float(len(sharded)),
        "exchange_tuples": tuples,
        "exchange_frames": frames,
        "exchange_bytes": float(
            sum(entry.get("exchange_bytes", 0) for entry in sharded)
        ),
        "network": tuples * NETWORK_TUPLE_COST + frames * NETWORK_FRAME_COST,
        "skew": (sum(skews) / len(skews)) if skews else 1.0,
        "barrier_wait_ms": float(
            sum(entry.get("barrier_wait_ms", 0.0) for entry in sharded)
        ),
    }
    return actual


def _round(value: Optional[float]) -> Optional[float]:
    return round(value, 2) if value is not None else None


def _round_ms(seconds: Optional[float]) -> Optional[float]:
    return round(seconds * 1000, 3) if seconds is not None else None


def _fmt(value: Optional[float]) -> str:
    return f"{value:.1f}" if value is not None else "?"


def _fmt_ms(seconds: Optional[float]) -> str:
    return f"{seconds * 1000:.2f}ms" if seconds is not None else "?"
