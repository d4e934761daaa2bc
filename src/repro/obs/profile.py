"""Per-operator runtime profiling of plan execution.

The engine streams batches through nested generators — one per PT
node.  :class:`PlanProfiler` wraps each node's batch stream and charges
every batch pull's wall time, physical page reads, index page reads
and predicate evaluations to that node (*inclusive* of its
children, since a parent's pull drives its subtree; the *exclusive*
share is recovered from the tree structure at report time).  ``Fix``
nodes additionally keep the semi-naive loop's round records
(:class:`FixIterationProfile`: the new tuples the round produced and
how long it took), the same objects the live progress handle gets.

Node identity: :func:`assign_node_ids` numbers the plan's nodes in
pre-order (``n0``, ``n1``, ...).  These ids are stable for a given
plan shape, key the engine's per-node tuple counters
(:attr:`~repro.engine.metrics.RuntimeMetrics.tuples_by_node`), and
match the ids shown by ``EXPLAIN ANALYZE``.

Profiling is strictly opt-in: ``Engine.execute(plan, profiler=...)``;
when no profiler is passed the engine's generators are returned
unwrapped and the hot path pays nothing.
"""

from __future__ import annotations

import sys
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterator, Optional

__all__ = [
    "assign_node_ids",
    "FixIterationProfile",
    "NodeProfile",
    "PlanProfiler",
    "FIX_ITERATION_RING",
]

#: Bound on per-Fix-node iteration records.  A long-running request
#: whose recursion grinds through tens of thousands of small rounds
#: must not grow its profile without limit; once the ring is full the
#: *oldest* rounds are dropped (and counted), keeping the newest
#: window — the rounds an operator debugging the live query cares
#: about.
FIX_ITERATION_RING = 512


#: Single-slot memo for :func:`assign_node_ids`.  The service executes
#: the same cached plan object over and over; holding a strong
#: reference to the last plan keeps its node ids (which key on
#: ``id(node)``) valid, and swapping the whole tuple keeps concurrent
#: readers consistent.
_node_ids_memo = (None, {})


def assign_node_ids(plan) -> Dict[int, str]:
    """Map ``id(node) -> "n<preorder-index>"`` over a plan.

    A subtree object shared between two positions keeps its first
    (pre-order) id; its profile merges both occurrences.  Ids are
    interned: every retained observation keys its operators by them.
    """
    global _node_ids_memo
    cached_plan, cached_ids = _node_ids_memo
    if plan is cached_plan:
        return cached_ids
    ids: Dict[int, str] = {}
    for index, node in enumerate(plan.walk()):
        ids.setdefault(id(node), sys.intern(f"n{index}"))
    _node_ids_memo = (plan, ids)
    return ids


@dataclass
class FixIterationProfile:
    """One semi-naive round of a ``Fix`` node — the round's one record.

    :func:`repro.engine.fixpoint.run_fixpoint` builds it once per round
    (one clock read) and hands the same object to the Fix node's
    :class:`NodeProfile` and to the live progress handle
    (:meth:`repro.obs.progress.QueryProgress.record_fix_iteration`).

    When the round ran as a distributed scatter-gather exchange
    (:mod:`repro.dist`), the optional fields record the shard fan-out
    and the round's exchange volume (tuples and JSON-frame bytes, both
    legs); they stay ``None`` — and absent from :meth:`to_dict` — for
    single-store rounds.
    """

    iteration: int  #: 0 is the base round; 1.. are delta rounds.
    new_tuples: int
    seconds: float
    shards: Optional[int] = None
    exchange_tuples: Optional[int] = None
    exchange_bytes: Optional[int] = None
    exchange_frames: Optional[int] = None
    #: Observed max/mean shard load for the round (>= 1.0).
    skew: Optional[float] = None
    #: Coordinator seconds blocked on the round's barrier.
    barrier_wait_s: Optional[float] = None
    #: Tuples produced per shard this round (shard index -> count).
    per_shard: Optional[Dict[int, int]] = None

    def to_dict(self) -> dict:
        payload = {
            "iteration": self.iteration,
            "new_tuples": self.new_tuples,
            "ms": round(self.seconds * 1000, 3),
        }
        if self.shards is not None:
            payload["shards"] = self.shards
        if self.exchange_tuples is not None:
            payload["exchange_tuples"] = self.exchange_tuples
        if self.exchange_bytes is not None:
            payload["exchange_bytes"] = self.exchange_bytes
        if self.exchange_frames is not None:
            payload["exchange_frames"] = self.exchange_frames
        if self.skew is not None:
            payload["skew"] = round(self.skew, 4)
        if self.barrier_wait_s is not None:
            payload["barrier_wait_ms"] = round(self.barrier_wait_s * 1000, 3)
        if self.per_shard is not None:
            payload["per_shard"] = {
                str(shard): count
                for shard, count in sorted(self.per_shard.items())
            }
        return payload


@dataclass
class NodeProfile:
    """Inclusive runtime counters for one PT node."""

    node_id: str
    label: str
    kind: str
    tuples_out: int = 0
    next_calls: int = 0
    wall_seconds: float = 0.0
    page_reads: int = 0
    index_page_reads: float = 0.0
    predicate_evals: int = 0
    fix_iterations: Deque[FixIterationProfile] = field(
        default_factory=lambda: deque(maxlen=FIX_ITERATION_RING)
    )
    #: Iteration records evicted from the ring (oldest-first).
    fix_iterations_dropped: int = 0

    def record_fix_iteration(self, entry: FixIterationProfile) -> None:
        ring = self.fix_iterations
        if ring.maxlen is not None and len(ring) == ring.maxlen:
            self.fix_iterations_dropped += 1
        ring.append(entry)

    def to_dict(self) -> dict:
        payload = {
            "node_id": self.node_id,
            "label": self.label,
            "kind": self.kind,
            "tuples_out": self.tuples_out,
            "wall_ms": round(self.wall_seconds * 1000, 3),
            "page_reads": self.page_reads,
            "index_page_reads": round(self.index_page_reads, 2),
            "predicate_evals": self.predicate_evals,
        }
        if self.fix_iterations:
            payload["fix_iterations"] = [
                it.to_dict() for it in self.fix_iterations
            ]
        if self.fix_iterations_dropped:
            payload["fix_iterations_dropped"] = self.fix_iterations_dropped
        return payload


class PlanProfiler:
    """Collects :class:`NodeProfile` records during one execution.

    The engine calls :meth:`attach` at the start of ``execute`` (wiring
    in the live counters the deltas are read from), then routes every
    node's generator through :meth:`wrap`.
    """

    def __init__(self) -> None:
        self.profiles: Dict[str, NodeProfile] = {}
        self.children: Dict[str, List[str]] = {}
        self._ids: Dict[int, str] = {}
        self._buffer = None
        self._metrics = None

    # -- wiring --------------------------------------------------------------

    def attach(self, plan, node_ids: Dict[int, str], buffer, metrics) -> None:
        """Register the plan's nodes and the counter sources."""
        self._ids = node_ids
        self._buffer = buffer
        self._metrics = metrics
        for node in plan.walk():
            node_id = node_ids[id(node)]
            if node_id not in self.profiles:
                self.profiles[node_id] = NodeProfile(
                    node_id, node.label(), type(node).__name__
                )
                self.children[node_id] = []
                seen_children = set()
                for child in node.children:
                    child_id = node_ids[id(child)]
                    if child_id not in seen_children:
                        seen_children.add(child_id)
                        self.children[node_id].append(child_id)

    def profile_for(self, node) -> Optional[NodeProfile]:
        node_id = self._ids.get(id(node))
        return self.profiles.get(node_id) if node_id is not None else None

    def worker_view(self, metrics, buffer) -> "PlanProfiler":
        """A thread-confined profiler for one distributed-fixpoint
        shard session.

        Shares the node-id map and children topology (read-only) but
        owns fresh :class:`NodeProfile` records, and reads its counter
        deltas from the session's own ``metrics`` and private
        ``buffer`` stats, so its page reads are attributed exactly.
        Flushed back with :meth:`merge_from`.
        """
        clone = PlanProfiler()
        clone._ids = self._ids
        clone._buffer = buffer
        clone._metrics = metrics
        clone.children = self.children
        clone.profiles = {
            node_id: NodeProfile(node_id, profile.label, profile.kind)
            for node_id, profile in self.profiles.items()
        }
        return clone

    def merge_from(self, other: "PlanProfiler") -> None:
        """Accumulate a worker view's per-node counters into this
        profiler (called from the coordinating thread)."""
        for node_id, theirs in other.profiles.items():
            mine = self.profiles.get(node_id)
            if mine is None:
                self.profiles[node_id] = theirs
                continue
            mine.tuples_out += theirs.tuples_out
            mine.next_calls += theirs.next_calls
            mine.wall_seconds += theirs.wall_seconds
            mine.page_reads += theirs.page_reads
            mine.index_page_reads += theirs.index_page_reads
            mine.predicate_evals += theirs.predicate_evals
            mine.fix_iterations_dropped += theirs.fix_iterations_dropped
            for entry in theirs.fix_iterations:
                mine.record_fix_iteration(entry)

    # -- recording -----------------------------------------------------------

    def wrap_batches(self, node, batches: Iterator) -> Iterator:
        """Meter a batch generator: one probe (clock + counter deltas)
        per *batch*, so the metering cost is amortized across
        ``batch_size`` bindings.  ``tuples_out`` advances by the exact
        number of bindings each batch carries."""
        profile = self.profile_for(node)
        if profile is None:  # a node outside the registered plan
            return batches
        return self._metered_batches(profile, batches)

    def _metered_batches(self, profile: NodeProfile, batches: Iterator) -> Iterator:
        buffer = self._buffer
        metrics = self._metrics
        clock = time.perf_counter
        while True:
            reads0 = buffer.physical_reads
            index0 = metrics.index_page_reads
            evals0 = metrics.predicate_evals
            started = clock()
            try:
                batch = next(batches)
            except StopIteration:
                profile.wall_seconds += clock() - started
                profile.page_reads += buffer.physical_reads - reads0
                profile.index_page_reads += metrics.index_page_reads - index0
                profile.predicate_evals += metrics.predicate_evals - evals0
                profile.next_calls += 1
                return
            profile.wall_seconds += clock() - started
            profile.page_reads += buffer.physical_reads - reads0
            profile.index_page_reads += metrics.index_page_reads - index0
            profile.predicate_evals += metrics.predicate_evals - evals0
            profile.next_calls += 1
            profile.tuples_out += len(batch)
            yield batch

    # -- reporting -----------------------------------------------------------

    def exclusive_seconds(self, node_id: str) -> float:
        """Wall time charged to a node minus its children's share."""
        profile = self.profiles.get(node_id)
        if profile is None:
            return 0.0
        spent = profile.wall_seconds
        for child_id in self.children.get(node_id, []):
            child = self.profiles.get(child_id)
            if child is not None:
                spent -= child.wall_seconds
        return max(spent, 0.0)

    def to_dict(self) -> dict:
        return {
            "nodes": [
                profile.to_dict() for profile in self.profiles.values()
            ],
            "children": dict(self.children),
        }
