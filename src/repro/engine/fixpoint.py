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

When the engine carries ``shards > 1`` and a shard cluster the rounds
are handed to :mod:`repro.dist.coordinator`, which hash-partitions the
delta across shards; this module remains the in-process evaluator (and
the fallback for bodies the distributed rounds must not reorder — see
:func:`repro.dist.partition.parallel_safe`).
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Set, Tuple

from repro.errors import ExecutionError, FixpointLimitError
from repro.engine.batch import Batch
from repro.engine.columns import column_kinds
from repro.engine.eval_expr import Binding, normalize_value
from repro.obs.log import get_logger
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


def _tuple_key(binding: Binding) -> tuple:
    """Backward-compatible key of a raw binding (normalizes first)."""
    return key_of_normalized(normalize_binding(binding))


def run_fixpoint(engine, fix: Fix, delta_env: Dict[str, List[StoredRecord]]) -> str:
    """Evaluate ``fix`` semi-naively; returns the temp entity name.

    ``engine`` is the :class:`repro.engine.evaluator.Engine` running the
    plan (passed in to avoid a circular import); ``delta_env`` is the
    enclosing delta environment (supporting nested fixpoints).

    Dispatches to the distributed scatter-gather evaluator when the
    engine carries ``shards > 1`` *and* a shard cluster, and the body
    is safe to evaluate concurrently (:func:`parallel_safe`: slices of
    the delta are disjoint and rounds are barriers); otherwise runs the
    serial loop.
    """
    cluster = getattr(engine, "cluster", None)
    if getattr(engine, "shards", 1) > 1 and cluster is not None:
        from repro.dist.coordinator import run_fixpoint_distributed
        from repro.dist.partition import parallel_safe

        if parallel_safe(fix):
            return run_fixpoint_distributed(
                engine, fix, delta_env, cluster, engine.shards
            )
    return run_fixpoint_serial(engine, fix, delta_env)


def run_fixpoint_serial(
    engine, fix: Fix, delta_env: Dict[str, List[StoredRecord]]
) -> str:
    """The serial semi-naive loop (also the distributed path's oracle)."""
    temp_info = engine.physical.register_temp(fix.name)
    temp_name = temp_info.name
    engine.note_temp(temp_name)
    base_parts, recursive_parts = partition_parts(fix)

    seen: Set[tuple] = set()

    def materialize(batches: Iterable[Batch]) -> List[StoredRecord]:
        """Dedup + insert a part's output, one batch at a time: a
        single cancellation poll covers the whole batch, and the
        seen-set probes run over a local slice of bindings instead of
        interleaving with generator resumptions."""
        fresh: List[StoredRecord] = []
        insert = engine.store.insert
        peek = engine.store.peek
        for batch in batches:
            engine.check_cancelled()
            if batch.is_columnar:
                # Column form: normalize column-wise, probe the seen
                # set with keys assembled from the sorted columns, and
                # build a binding dict only for the fresh tuples.
                names, cols, sorted_names, sorted_cols = normalized_columns(
                    batch.columns
                )
                for index, key_values in enumerate(zip(*sorted_cols)):
                    key = tuple(zip(sorted_names, key_values))
                    if key in seen:
                        continue
                    seen.add(key)
                    values = {name: col[index] for name, col in zip(names, cols)}
                    fresh.append(peek(insert(temp_name, values)))
                continue
            for binding in batch.rows:
                values = normalize_binding(binding)
                key = key_of_normalized(values)
                if key in seen:
                    continue
                seen.add(key)
                fresh.append(peek(insert(temp_name, values)))
        return fresh

    profiler = getattr(engine, "profiler", None)
    progress = getattr(engine, "progress", None)

    # Base round: evaluate every non-recursive part once.
    round_start = time.perf_counter()
    delta: List[StoredRecord] = []
    for part in base_parts:
        delta.extend(materialize(engine.iterate_batches(part, delta_env)))
    if profiler is not None:
        profiler.fix_iteration(
            fix, 0, len(delta), time.perf_counter() - round_start
        )
    if progress is not None:
        progress.round_update(
            fix=fix.name,
            round_index=0,
            delta=len(delta),
            seconds=time.perf_counter() - round_start,
        )

    # Semi-naive rounds: feed only the last round's new tuples back in.
    iterations = 0
    while delta:
        iterations += 1
        if iterations > engine.max_fix_iterations:
            _LOG.warning(
                "fixpoint iteration limit hit",
                extra={
                    "request_id": getattr(engine, "request_id", None),
                    "fix": fix.name,
                    "limit": engine.max_fix_iterations,
                },
            )
            raise FixpointLimitError(fix.name, engine.max_fix_iterations)
        engine.check_cancelled()
        engine.metrics.fix_iterations += 1
        round_start = time.perf_counter()
        next_delta: List[StoredRecord] = []
        inner_env = dict(delta_env)
        inner_env[fix.name] = delta
        for part in recursive_parts:
            next_delta.extend(
                materialize(engine.iterate_batches(part, inner_env))
            )
        if profiler is not None:
            profiler.fix_iteration(
                fix,
                iterations,
                len(next_delta),
                time.perf_counter() - round_start,
            )
        if progress is not None:
            progress.round_update(
                fix=fix.name,
                round_index=iterations,
                delta=len(next_delta),
                seconds=time.perf_counter() - round_start,
            )
        delta = next_delta
    return temp_name
