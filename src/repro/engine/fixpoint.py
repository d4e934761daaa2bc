"""Semi-naive fixpoint evaluation of ``Fix`` nodes.

Figure 5 costs the Fix node as the sum over semi-naive iterations of
the fixpoint equation's cost; this module is the runtime counterpart.
The body (a union of parts) is partitioned into *base* parts (no
recursion reference) evaluated once, and *recursive* parts evaluated
per iteration against the current delta.  New tuples are materialized
into a temporary extent (the paper's temporary file, e.g.
``Influencer``); duplicate elimination on the full tuple guarantees
termination on acyclic data and bounds work on cyclic data together
with the engine's iteration cap.

:func:`run_fixpoint` is the one semi-naive loop for serial and sharded
runs alike.  When the engine carries ``shards > 1`` and a shard
cluster, and the body is :func:`repro.dist.partition.parallel_safe`,
each round's evaluation is handed to
:func:`repro.dist.coordinator.sharded_rounds`, which hash-partitions
the delta across shards and gathers their output back through this
loop's dedup-and-insert; otherwise rounds evaluate in process.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import Dict, Iterable, List, Set, Tuple

from repro.errors import ExecutionError, FixpointLimitError
from repro.engine.columns import column_kinds
from repro.engine.eval_expr import Binding, normalize_value
from repro.obs.log import get_logger
from repro.obs.profile import FixIterationProfile
from repro.physical.storage import StoredRecord
from repro.plans.nodes import Fix, PlanNode, RecLeaf, UnionOp

#: Structured logger (request id and fix name travel as fields).
_LOG = get_logger("engine")

__all__ = [
    "flatten_union",
    "partition_parts",
    "normalize_binding",
    "normalized_columns",
    "key_of_normalized",
    "run_fixpoint",
]


def flatten_union(node: PlanNode) -> List[PlanNode]:
    """The union parts of a body, flattening nested Union operators."""
    if isinstance(node, UnionOp):
        return flatten_union(node.left) + flatten_union(node.right)
    return [node]


def partition_parts(
    fix: Fix,
) -> Tuple[List[PlanNode], List[PlanNode]]:
    """Split the Fix body into (base_parts, recursive_parts)."""
    base_parts: List[PlanNode] = []
    recursive_parts: List[PlanNode] = []
    for part in flatten_union(fix.body):
        references_rec = any(
            isinstance(node, RecLeaf) and node.name == fix.name
            for node in part.walk()
        )
        if references_rec:
            recursive_parts.append(part)
        else:
            base_parts.append(part)
    if not base_parts:
        raise ExecutionError(
            f"Fix({fix.name}) has no non-recursive base part"
        )
    if not recursive_parts:
        raise ExecutionError(
            f"Fix({fix.name}) has no recursive part"
        )
    return base_parts, recursive_parts


def normalize_binding(binding: Binding) -> Dict[str, object]:
    """Normalize a produced binding once, at insertion time: records
    collapse to their oids, collection values to tuples of normalized
    elements.  The result is both the stored tuple and the input to
    :func:`key_of_normalized` — the dedup probe never re-normalizes."""
    values: Dict[str, object] = {}
    for key, value in binding.items():
        value = normalize_value(value)
        if isinstance(value, (list, tuple)):
            value = tuple(normalize_value(item) for item in value)
        values[key] = value
    return values


def key_of_normalized(values: Dict[str, object]) -> tuple:
    """Dedup key of an already-normalized tuple (sorted field order)."""
    return tuple((key, values[key]) for key in sorted(values))


#: Value types :func:`normalize_value` maps to themselves — a column
#: containing only these skips per-value normalization entirely.
_IDENTITY_KINDS = frozenset({int, float, str, bool, type(None)})


def _normalize_column(column: list) -> list:
    """Column-wise :func:`normalize_binding`: all-atomic columns pass
    through untouched (one C-level type scan instead of per-value
    isinstance checks); anything else is normalized value by value."""
    if not (column_kinds(column) - _IDENTITY_KINDS):
        return column
    normalized = []
    for value in column:
        value = normalize_value(value)
        if isinstance(value, (list, tuple)):
            value = tuple(normalize_value(item) for item in value)
        normalized.append(value)
    return normalized


def normalized_columns(columns: Dict[str, list]):
    """``(names, cols, sorted_names, sorted_cols)`` — a columnar
    batch's columns normalized column-wise, in both the batch's field
    order (for building stored tuples with the same field order the
    row path's ``normalize_binding`` would) and sorted field order
    (for assembling :func:`key_of_normalized`-compatible dedup keys
    without ever building a binding dict)."""
    names = list(columns)
    cols = [_normalize_column(columns[name]) for name in names]
    order = sorted(range(len(names)), key=names.__getitem__)
    sorted_names = tuple(names[index] for index in order)
    sorted_cols = [cols[index] for index in order]
    return names, cols, sorted_names, sorted_cols


def run_fixpoint(engine, fix: Fix, delta_env: Dict[str, List[StoredRecord]]) -> str:
    """Evaluate ``fix`` semi-naively; returns the temp entity name.

    ``engine`` is the :class:`repro.engine.evaluator.Engine` running the
    plan (passed in to avoid a circular import); ``delta_env`` is the
    enclosing delta environment (supporting nested fixpoints).

    This is the only semi-naive loop.  It owns the temp, the seen-set
    and the dedup-and-insert, the iteration limit, the cancellation
    poll between rounds, ``metrics.fix_iterations`` and the one
    :class:`~repro.obs.profile.FixIterationProfile` per round that the
    profiler and the progress handle both receive.  What varies is the
    round evaluator — ``evaluate(round_index, parts, delta)`` runs the
    parts against ``delta`` (``None`` for the base round) and returns
    ``(fresh records, extra round-record fields)``: in process below, or
    :func:`repro.dist.coordinator.sharded_rounds`' scatter-gather when
    :func:`_shard_width` grants more than one shard.
    """
    temp_name = engine.physical.register_temp(fix.name).name
    engine.note_temp(temp_name)
    base_parts, recursive_parts = partition_parts(fix)

    seen: Set[tuple] = set()
    insert = engine.store.insert
    peek = engine.store.peek

    def keep_rows(
        rows: Iterable[Dict[str, object]], fresh: List[StoredRecord]
    ) -> None:
        """Dedup + insert normalized tuples, appending the new ones'
        stored records to ``fresh``."""
        for values in rows:
            key = key_of_normalized(values)
            if key in seen:
                continue
            seen.add(key)
            fresh.append(peek(insert(temp_name, values)))

    def keep_columns(
        columns: Dict[str, list], fresh: List[StoredRecord]
    ) -> None:
        """Column form of :func:`keep_rows`: normalize column-wise,
        probe the seen set with keys assembled from the sorted columns,
        and build a binding dict only for the fresh tuples."""
        names, cols, sorted_names, sorted_cols = normalized_columns(columns)
        for index, key_values in enumerate(zip(*sorted_cols)):
            key = tuple(zip(sorted_names, key_values))
            if key in seen:
                continue
            seen.add(key)
            values = {name: col[index] for name, col in zip(names, cols)}
            fresh.append(peek(insert(temp_name, values)))

    def evaluate_locally(round_index, parts, delta):
        """One round in process: a single cancellation poll covers each
        batch, and the seen-set probes run over a batch at a time."""
        env = delta_env
        if delta is not None:
            env = dict(delta_env)
            env[fix.name] = delta
        fresh: List[StoredRecord] = []
        for part in parts:
            for batch in engine.iterate_batches(part, env):
                engine.check_cancelled()
                if batch.is_columnar:
                    keep_columns(batch.columns, fresh)
                else:
                    keep_rows(map(normalize_binding, batch.rows), fresh)
        return fresh, {}

    width = _shard_width(engine, fix)
    if width > 1:
        from repro.dist.coordinator import sharded_rounds

        rounds = sharded_rounds(engine, fix, delta_env, width, keep_rows)
    else:
        rounds = nullcontext(evaluate_locally)

    profile = engine.profiler.profile_for(fix) if engine.profiler else None
    progress = engine.progress

    def record(round_index, fresh, fields) -> None:
        """Read the clock once and hand the round's one record to the
        profiler and the progress handle."""
        nonlocal mark
        now = time.perf_counter()
        entry = FixIterationProfile(round_index, len(fresh), now - mark, **fields)
        mark = now
        if profile is not None:
            profile.record_fix_iteration(entry)
        if progress is not None:
            progress.record_fix_iteration(fix.name, entry)

    with rounds as evaluate:
        mark = time.perf_counter()
        delta, fields = evaluate(0, base_parts, None)
        record(0, delta, fields)
        # Semi-naive rounds: feed only the last round's new tuples back in.
        iterations = 0
        while delta:
            iterations += 1
            if iterations > engine.max_fix_iterations:
                _LOG.warning(
                    "fixpoint iteration limit hit",
                    extra={
                        "request_id": engine.request_id,
                        "fix": fix.name,
                        "limit": engine.max_fix_iterations,
                    },
                )
                raise FixpointLimitError(fix.name, engine.max_fix_iterations)
            engine.check_cancelled()
            engine.metrics.fix_iterations += 1
            delta, fields = evaluate(iterations, recursive_parts, delta)
            record(iterations, delta, fields)
    return temp_name


def _shard_width(engine, fix: Fix) -> int:
    """Shards the fixpoint's rounds fan out over: more than one only
    when the engine asks for ``shards > 1``, carries a cluster, and the
    body is safe to evaluate concurrently (:func:`parallel_safe`: slices
    of the delta are disjoint and rounds are barriers)."""
    cluster = engine.cluster
    if engine.shards <= 1 or cluster is None:
        return 1
    from repro.dist.partition import parallel_safe

    if not parallel_safe(fix):
        return 1
    return min(engine.shards, cluster.shards)
