"""Runtime metrics for plan execution.

The cost model predicts page accesses and predicate evaluations; the
engine counts what actually happened so benchmarks can compare the two
(Figure 5 validation).  I/O counters live in the buffer pool; this
module adds the CPU-side counters and combines both into one measured
cost figure, weighted by the unit costs of :mod:`repro.units` — the
same weights the cost model's defaults read.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro import units
from repro.physical.buffer import BufferStats

__all__ = [
    "RuntimeMetrics",
    "network_cost",
    "node_cost",
]


def node_cost(profile) -> float:
    """One plan node's measured cost from its
    :class:`~repro.obs.profile.NodeProfile` counters — EXPLAIN
    ANALYZE's ``actual_cost`` and telemetry's ``OperatorActual.cost``
    are both this number."""
    return (
        profile.page_reads + profile.index_page_reads
    ) * units.PAGE_READ + profile.predicate_evals * units.PREDICATE_EVAL


def network_cost(tuples: float, frames: float) -> float:
    """Measured cost of exchanged tuples and frames."""
    return tuples * units.NETWORK_TUPLE + frames * units.NETWORK_FRAME


#: ``slots=True`` (3.10+) because the counter increments are the
#: engine's hottest attribute writes (one per predicate/expression
#: evaluation); on 3.9 the class works identically, just with a dict.
_SLOTS = {"slots": True} if sys.version_info >= (3, 10) else {}


@dataclass(**_SLOTS)
class RuntimeMetrics:
    """Counters accumulated during one plan evaluation."""

    predicate_evals: int = 0
    expr_evals: int = 0
    method_eval_weight: float = 0.0
    index_lookups: int = 0
    #: Fractional: PIJ lookups charge ``nblevels + nbleaves/||C1||``.
    index_page_reads: float = 0.0
    fix_iterations: int = 0
    #: Batches exchanged between operators (one per ``Batch`` an
    #: operator emitted).  The runtime twin of the cost model's
    #: per-batch overhead term: at ``batch_size=1`` this equals the
    #: tuple count, at larger sizes it shrinks by ~``1/batch_size``.
    batches: int = 0
    #: Column reads the operators performed: for every input batch a
    #: node consumed, one touch per column its predicate/projection/path
    #: actually reads, times the batch's rows.  Layout-invariant by
    #: construction (derived from the plan shape and batch lengths, not
    #: from how a kernel iterates), so row and columnar runs report the
    #: same number — the runtime twin of the cost model's
    #: ``column_touch`` term.
    column_touches: int = 0
    #: Kind-level rollup (``"sel"``, ``"ij"``, ...): kept for backward
    #: compatibility, but same-kind nodes collide here — per-node
    #: counts live in :attr:`tuples_by_node`.
    tuples_by_operator: Dict[str, int] = field(default_factory=dict)
    #: Tuples produced per plan node, keyed by the stable pre-order
    #: node ids of :func:`repro.obs.profile.assign_node_ids`.
    tuples_by_node: Dict[str, int] = field(default_factory=dict)
    buffer: BufferStats = field(default_factory=BufferStats)
    #: Distributed-fixpoint counters (all zero unless a plan ran with
    #: ``shards > 1``).  ``exchange_bytes`` counts the JSON frames of
    #: both legs — scattered delta partitions and gathered results —
    #: exactly as they would cross the wire.
    exchange_rounds: int = 0
    exchange_tuples: int = 0
    exchange_bytes: int = 0
    #: Widest shard fan-out any Fix in the plan actually used.
    shards_used: int = 0
    #: Per-shard attribution, keyed by shard index: tuples produced by
    #: operators evaluated on that shard, and the shard-local logical
    #: page reads its session charged.
    tuples_by_shard: Dict[int, int] = field(default_factory=dict)
    reads_by_shard: Dict[int, int] = field(default_factory=dict)
    #: Wire frames of both exchange legs (the unit the distributed
    #: cost model charges ``network_per_round`` against).
    exchange_frames: int = 0
    #: Coordinator seconds spent blocked on shard futures, and the sum
    #: of shard-side busy seconds those waits covered.
    barrier_wait_seconds: float = 0.0
    shard_busy_seconds: float = 0.0
    #: Per-round shard load (logical reads + tuples produced): the sum
    #: over rounds of the round's max-shard load and of its mean shard
    #: load.  ``observed_skew`` is their ratio — a round-weighted
    #: average of the per-round max/mean skew.
    shard_load_max: float = 0.0
    shard_load_mean: float = 0.0

    def observed_skew(self) -> float:
        """Measured max/mean shard load across sharded rounds (>= 1.0;
        1.0 when the plan never ran sharded or load was balanced)."""
        if self.shard_load_mean <= 0:
            return 1.0
        return max(1.0, self.shard_load_max / self.shard_load_mean)

    def count_tuple(self, operator: str, node_id: Optional[str] = None) -> None:
        """Count one output tuple for an operator kind (and, when the
        engine knows it, the producing node)."""
        self.add_tuples(operator, node_id, 1)

    def add_tuples(
        self, operator: str, node_id: Optional[str], count: int
    ) -> None:
        """Bulk-count ``count`` output tuples.  The engine's iterators
        accumulate locally and flush once on exhaustion, keeping the
        per-tuple hot path free of dict updates."""
        if not count:
            return
        self.tuples_by_operator[operator] = (
            self.tuples_by_operator.get(operator, 0) + count
        )
        if node_id is not None:
            self.tuples_by_node[node_id] = (
                self.tuples_by_node.get(node_id, 0) + count
            )

    @property
    def total_tuples(self) -> int:
        """Total tuples produced across all operators."""
        return sum(self.tuples_by_operator.values())

    def measured_cost(self) -> float:
        """Combine the counters into one cost figure.

        Uses the two unit weights of the paper's simplified model:
        ``pr`` per (physical or index) page read and ``ev`` per
        predicate evaluation; method invocations are weighted
        evaluations.  Sharded runs add :func:`network_cost`.
        """
        io = self.buffer.physical_reads + self.index_page_reads
        cpu = self.predicate_evals + self.method_eval_weight
        cost = io * units.PAGE_READ + cpu * units.PREDICATE_EVAL
        if self.shards_used > 1:
            cost += network_cost(self.exchange_tuples, self.exchange_frames)
        return cost

    def to_dict(self) -> dict:
        """JSON-serializable form, used by telemetry persistence
        (:mod:`repro.obs.history`) and the ``stats`` protocol op.

        The distributed counters appear only when a fixpoint actually
        ran sharded, keeping single-store payload shapes unchanged.
        """
        payload = {
            "predicate_evals": self.predicate_evals,
            "expr_evals": self.expr_evals,
            "method_eval_weight": round(self.method_eval_weight, 4),
            "index_lookups": self.index_lookups,
            "index_page_reads": round(self.index_page_reads, 4),
            "fix_iterations": self.fix_iterations,
            "batches": self.batches,
            "column_touches": self.column_touches,
            "physical_reads": self.buffer.physical_reads,
            "total_tuples": self.total_tuples,
            "tuples_by_node": dict(self.tuples_by_node),
        }
        if self.shards_used:
            payload["shards_used"] = self.shards_used
            payload["exchange_rounds"] = self.exchange_rounds
            payload["exchange_tuples"] = self.exchange_tuples
            payload["exchange_bytes"] = self.exchange_bytes
            payload["exchange_frames"] = self.exchange_frames
            payload["barrier_wait_seconds"] = round(
                self.barrier_wait_seconds, 6
            )
            payload["shard_busy_seconds"] = round(self.shard_busy_seconds, 6)
            payload["observed_skew"] = round(self.observed_skew(), 4)
            payload["tuples_by_shard"] = {
                str(shard): count
                for shard, count in sorted(self.tuples_by_shard.items())
            }
            payload["reads_by_shard"] = {
                str(shard): count
                for shard, count in sorted(self.reads_by_shard.items())
            }
        return payload

    def merge(self, other: "RuntimeMetrics") -> None:
        """Accumulate another run's counters into this one."""
        self.predicate_evals += other.predicate_evals
        self.expr_evals += other.expr_evals
        self.method_eval_weight += other.method_eval_weight
        self.index_lookups += other.index_lookups
        self.index_page_reads += other.index_page_reads
        self.fix_iterations += other.fix_iterations
        self.batches += other.batches
        self.column_touches += other.column_touches
        for operator, count in other.tuples_by_operator.items():
            self.tuples_by_operator[operator] = (
                self.tuples_by_operator.get(operator, 0) + count
            )
        for node_id, count in other.tuples_by_node.items():
            self.tuples_by_node[node_id] = (
                self.tuples_by_node.get(node_id, 0) + count
            )
        self.exchange_rounds += other.exchange_rounds
        self.exchange_tuples += other.exchange_tuples
        self.exchange_bytes += other.exchange_bytes
        self.exchange_frames += other.exchange_frames
        self.barrier_wait_seconds += other.barrier_wait_seconds
        self.shard_busy_seconds += other.shard_busy_seconds
        self.shard_load_max += other.shard_load_max
        self.shard_load_mean += other.shard_load_mean
        self.shards_used = max(self.shards_used, other.shards_used)
        for shard, count in other.tuples_by_shard.items():
            self.tuples_by_shard[shard] = (
                self.tuples_by_shard.get(shard, 0) + count
            )
        for shard, count in other.reads_by_shard.items():
            self.reads_by_shard[shard] = (
                self.reads_by_shard.get(shard, 0) + count
            )
