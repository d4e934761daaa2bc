"""The plan executor (batch-at-a-time).

Evaluates processing trees against the simulated object store with
faithful I/O behaviour: scans touch each page once, implicit joins
fetch referenced objects through the buffer, nested-loop explicit joins
honestly re-scan their inner operand per outer tuple (the behaviour the
``EJ`` cost formula of Figure 5 models) while hash joins read it once
per open, path-index joins charge index
page reads of ``nblevels + nbleaves/||C1||`` per lookup (the ``PIJ``
formula), and fixpoints run semi-naively (the ``Fix`` formula).

Operator ABI: every operator is a *generator of* :class:`Batch`
*objects* (:meth:`Engine.iterate_batches`), each carrying up to
``batch_size`` bindings.  One generator resumption, one cancellation
poll and one profiler probe cover a whole batch, so the Python dispatch
overhead that a tuple-at-a-time pipeline pays per binding is amortized
across ``batch_size`` tuples.  The I/O-visible order of operations is
unchanged — batching only groups *emissions*, never reorders fetches —
so page-read and predicate-eval counters are identical at every batch
size, and ``batch_size=1`` reproduces the exact tuple-at-a-time
semantics.  The full contract (when operators may hold or split
batches) is documented in ``docs/architecture.md``.

The executor doubles as the cost model's ground truth: benchmarks
compare its measured page I/O + predicate evaluations against the model
estimates.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.errors import ExecutionError
from repro.engine.batch import Batch, default_batch_size
from repro.engine.cancel import CancellationToken
from repro.engine.columns import (
    column_kinds,
    gather,
    gather_columns,
    has_structured_kinds,
)
from repro.engine.context import validate_knob
from repro.engine.eval_expr import (
    Binding,
    ExpressionEvaluator,
    JoinKernel,
    canonical_row,
    normalize_value,
)
from repro.engine.fixpoint import run_fixpoint
from repro.engine.metrics import RuntimeMetrics
from repro.obs.profile import PlanProfiler, assign_node_ids
from repro.obs.trace import NULL_TRACER
from repro.physical.buffer import BufferStats
from repro.physical.pages import PageId
from repro.physical.schema import PhysicalSchema
from repro.physical.storage import Oid, ScanSteps, StoredRecord
from repro.plans.nodes import (
    EJ,
    HASH_JOIN,
    IJ,
    INDEX_JOIN,
    PIJ,
    EntityLeaf,
    Fix,
    Materialize,
    PlanNode,
    Proj,
    RecLeaf,
    Sel,
    TempLeaf,
    UnionOp,
)
from repro.plans.patterns import equality_join_key, index_join_leaf
from repro.plans.validate import validate_plan
from repro.querygraph.predicates import (
    Comparison,
    Const,
    PathRef,
    conjuncts,
)

__all__ = ["ExecutionResult", "Engine"]

#: The leaves a scan evaluates: an extent, a temporary, a round delta.
_SCAN_LEAVES = (EntityLeaf, TempLeaf, RecLeaf)


class ExecutionResult:
    """Rows and metrics from one plan evaluation."""

    def __init__(self, rows: List[Binding], metrics: RuntimeMetrics) -> None:
        self.rows = rows
        self.metrics = metrics

    def answer_set(self) -> frozenset:
        """Canonical set of rows, for plan-equivalence assertions."""
        return frozenset(canonical_row(row) for row in self.rows)

    def __len__(self) -> int:
        return len(self.rows)


class Engine:
    """Evaluates processing trees against a physical schema."""

    def __init__(
        self,
        physical: PhysicalSchema,
        max_fix_iterations: int = 256,
        keep_temps: bool = False,
        batch_size: Optional[int] = None,
        shards: int = 1,
        cluster=None,
    ) -> None:
        self.physical = physical
        self.store = physical.store
        #: Safety cap on semi-naive iterations per Fix; exceeding it
        #: raises :class:`repro.errors.FixpointLimitError` instead of
        #: looping unbounded on pathological cyclic data.
        self.max_fix_iterations = max_fix_iterations
        self.keep_temps = keep_temps
        if batch_size is None:
            batch_size = default_batch_size()
        validate_knob("batch_size", batch_size)
        #: Bindings per :class:`Batch` exchanged between operators;
        #: 1 = exact tuple-at-a-time compatibility semantics.
        self.batch_size = batch_size
        validate_knob("shards", shards)
        #: Shard fan-out for distributed fixpoints; >1 (with a
        #: ``cluster``) has the semi-naive loop evaluate each round
        #: through :func:`repro.dist.coordinator.sharded_rounds`.
        self.shards = shards
        #: A :class:`repro.dist.ShardCluster` (or None).  ``shards > 1``
        #: without a cluster silently falls back to single-store
        #: evaluation — the knob asks, the cluster enables.
        self.cluster = cluster
        self.cancel_token: Optional["CancellationToken"] = None
        self.metrics = RuntimeMetrics()
        #: Optional per-node runtime profiler (EXPLAIN ANALYZE); when
        #: None the generators are returned unwrapped — no overhead.
        self.profiler: Optional[PlanProfiler] = None
        #: Stable pre-order node ids of the plan being executed; keys
        #: the per-node tuple counters and the profiler's records.
        self._node_ids: Dict[int, str] = {}
        self._evaluator: Optional[ExpressionEvaluator] = None
        self._temps_created: List[str] = []
        self._consumed_vars: Set[str] = set()
        #: Within one execute(): structurally identical Fix bodies are
        #: evaluated once and share their materialized temporary (a
        #: self-join of a recursion must not recompute the closure).
        self._fix_cache: Dict[object, str] = {}
        #: Recursion name -> ``(delta, length, scan steps)`` of the
        #: delta its ``RecLeaf`` scans last replayed (:meth:`_delta_plan`).
        self._delta_plans: Dict[str, tuple] = {}
        #: Hash EJ node id -> its probe memo: one ``[chunk, key index]``
        #: slot per drained inner batch position (JoinKernel.matches).
        self._probe_memos: Dict[int, List[list]] = {}
        #: I/O charged by shard sessions during this execution (their
        #: buffers are private, so the coordinator-store delta misses
        #: them); folded into ``metrics.buffer`` at the end of execute.
        self._shard_buffer = BufferStats()
        #: Optional execution tracer (:class:`repro.obs.trace.Tracer`).
        #: The distributed fixpoint records its coordinator spans here
        #: and stitches one child lane per shard; NULL_TRACER = off.
        self.tracer = NULL_TRACER
        #: Request id of the owning service request (or "" outside the
        #: service); threaded into shard thread names, dist/ log lines
        #: and trace span attributes.
        self.request_id = ""
        #: Optional live-progress handle
        #: (:class:`repro.obs.progress.QueryProgress`): fixpoints call
        #: ``record_fix_iteration`` per semi-naive round when set.
        self.progress = None

    # -- public API -------------------------------------------------------------

    def execute(
        self,
        plan: PlanNode,
        validate: bool = True,
        cancel: Optional["CancellationToken"] = None,
        profiler: Optional[PlanProfiler] = None,
    ) -> ExecutionResult:
        """Evaluate a plan; returns rows plus runtime metrics.

        ``cancel`` is an optional :class:`~repro.engine.cancel.CancellationToken`
        polled at safe points; when it fires, the evaluation raises
        :class:`~repro.errors.ExecutionCancelled` (or
        :class:`~repro.errors.ExecutionTimeout`) after dropping the
        temporaries it created — the store stays consistent.

        ``profiler`` is an optional
        :class:`~repro.obs.profile.PlanProfiler`; when given, every
        node's batch stream is metered (per-node tuples, wall time,
        page reads, predicate evals, per-Fix-iteration deltas).
        """
        if validate:
            validate_plan(plan, self.physical)
        self.cancel_token = cancel
        self.metrics = RuntimeMetrics()
        self._node_ids = assign_node_ids(plan)
        self.profiler = profiler
        if profiler is not None:
            profiler.attach(
                plan, self._node_ids, self.store.buffer.stats, self.metrics
            )
        self._evaluator = ExpressionEvaluator(
            self.store, self.metrics, self._resolve_method, charged=True
        )
        self._temps_created = []
        self._fix_cache = {}
        self._shard_buffer = BufferStats()
        from repro.plans.patterns import consumed_variables

        self._consumed_vars = consumed_variables(plan)
        buffer_before = self.store.buffer.stats.snapshot()
        rows: List[Binding] = []
        try:
            for batch in self.iterate_batches(plan, {}):
                rows.extend(batch.rows)
        finally:
            self.drop_replays()
            if not self.keep_temps:
                for temp_name in self._temps_created:
                    if self.physical.has_entity(temp_name):
                        self.physical.drop_temp(temp_name)
                        if self.tracer.enabled:
                            self.tracer.event("temp_cleanup", temp=temp_name)
        local = self.store.buffer.stats.delta_since(buffer_before)
        shard = self._shard_buffer
        self.metrics.buffer = BufferStats(
            local.logical_reads + shard.logical_reads,
            local.physical_reads + shard.physical_reads,
            local.evictions + shard.evictions,
        )
        return ExecutionResult(rows, self.metrics)

    # -- engine services used by the fixpoint modules -------------------------------

    def shard_view(self, physical: PhysicalSchema) -> "Engine":
        """A shard-session view of this engine for distributed fixpoint
        evaluation: shares the plan metadata and cancellation token but
        is bound to a *shard's* replica schema/store (``physical``), so
        every scan, fetch and index probe it makes reads through the
        shard's own buffer pool, and owns its metrics, expression
        evaluator and profiler view so counter updates never race.
        Temps it registers (delta staging extents) land in the session's
        private ledger — the session, not the coordinator's execute,
        cleans them up.  Counters flush back via :meth:`absorb_shard`.
        """
        clone = Engine.__new__(Engine)
        clone.physical = physical
        clone.store = physical.store
        clone.max_fix_iterations = self.max_fix_iterations
        clone.keep_temps = self.keep_temps
        clone.batch_size = self.batch_size
        clone.shards = 1
        clone.cluster = None
        clone.cancel_token = self.cancel_token
        clone.metrics = RuntimeMetrics()
        clone._node_ids = self._node_ids
        clone._temps_created = []  # session-private staging ledger
        clone._consumed_vars = self._consumed_vars
        clone._fix_cache = {}
        clone._delta_plans = {}
        clone._probe_memos = {}
        clone._shard_buffer = BufferStats()
        clone.tracer = NULL_TRACER  # shard lanes record via the
        clone.request_id = self.request_id  # coordinator's child tracers
        clone.progress = None
        clone.profiler = (
            self.profiler.worker_view(clone.metrics, clone.store.buffer.stats)
            if self.profiler is not None
            else None
        )
        clone._evaluator = ExpressionEvaluator(
            clone.store, clone.metrics, clone._resolve_method, charged=True
        )
        return clone

    def absorb_shard(
        self, shard_index: int, session_engine: "Engine", io: "BufferStats"
    ) -> None:
        """Flush one shard session's counters into this engine,
        attributing the work to ``shard_index``: the session's tuples
        and its private buffer reads land in the per-shard breakdowns,
        and the reads are folded into this execution's I/O totals
        (the coordinator-store delta cannot see them)."""
        tuples = session_engine.metrics.total_tuples
        self.metrics.merge(session_engine.metrics)
        session_engine.metrics = RuntimeMetrics()
        if self.profiler is not None and session_engine.profiler is not None:
            self.profiler.merge_from(session_engine.profiler)
            session_engine.profiler = None
        self.metrics.tuples_by_shard[shard_index] = (
            self.metrics.tuples_by_shard.get(shard_index, 0) + tuples
        )
        self.metrics.reads_by_shard[shard_index] = (
            self.metrics.reads_by_shard.get(shard_index, 0) + io.logical_reads
        )
        self._shard_buffer.logical_reads += io.logical_reads
        self._shard_buffer.physical_reads += io.physical_reads
        self._shard_buffer.evictions += io.evictions

    def drop_replays(self) -> None:
        """Forget the delta plans and probe memos this engine kept for
        re-scans and re-builds (end of an execution, or of a shard
        session)."""
        self._delta_plans.clear()
        self._probe_memos.clear()

    def note_temp(self, name: str) -> None:
        """Record a temporary created during this execution so it can
        be dropped afterwards (unless ``keep_temps``)."""
        self._temps_created.append(name)

    def check_cancelled(self) -> None:
        """Poll the cancellation token (no-op when none is set)."""
        if self.cancel_token is not None:
            self.cancel_token.check()

    def _resolve_method(self, entity: str, attribute: str):
        if self.physical.catalog is None or not self.physical.has_entity(entity):
            return None
        conceptual = self.physical.entity(entity).conceptual_name
        if conceptual is None or conceptual not in self.physical.catalog:
            return None
        method = self.physical.catalog.method(conceptual, attribute)
        if method is None:
            return None
        return (method.compute, method.eval_weight)

    # -- dispatch -----------------------------------------------------------------

    def iterate_batches(
        self, node: PlanNode, delta_env: Dict[str, List[StoredRecord]]
    ) -> Iterator[Batch]:
        """Stream the batches a plan node produces (operator dispatch;
        ``delta_env`` carries semi-naive deltas).  When a profiler is
        active the stream is metered per node, one probe per batch."""
        batches = self._batches(node, delta_env)
        if self.profiler is not None:
            return self.profiler.wrap_batches(node, batches)
        return batches

    def _batches(
        self, node: PlanNode, delta_env: Dict[str, List[StoredRecord]]
    ) -> Iterator[Batch]:
        evaluator = self._evaluator
        if evaluator is None:
            raise ExecutionError("iterate_batches() called outside execute()")
        node_id = self._node_ids.get(id(node))
        if isinstance(node, _SCAN_LEAVES):
            steps, kind = self._leaf_steps(node, delta_env)
            yield from self._scan_batches(steps, node.var, kind, node_id)
            return
        if isinstance(node, Sel):
            indexed = self._indexed_selection_access(node, node_id)
            if indexed is not None:
                yield from indexed
                return
            yield from self._sel_batches(node, delta_env, node_id)
            return
        if isinstance(node, Proj):
            yield from self._proj_batches(node, delta_env, node_id)
            return
        if isinstance(node, IJ):
            yield from self._ij_batches(node, delta_env)
            return
        if isinstance(node, PIJ):
            yield from self._pij_batches(node, delta_env)
            return
        if isinstance(node, EJ):
            if node.algorithm == INDEX_JOIN:
                yield from self._index_join_batches(node, delta_env)
            elif node.algorithm == HASH_JOIN:
                yield from self._hash_join_batches(node, delta_env)
            else:
                yield from self._nested_loop_batches(node, delta_env)
            return
        if isinstance(node, UnionOp):
            yield from self.iterate_batches(node.left, delta_env)
            yield from self.iterate_batches(node.right, delta_env)
            return
        if isinstance(node, Fix):
            # The out_var does not affect the computed content: cache
            # by (name, body) so rebound instances share the result.
            # A body referencing an *enclosing* recursion's delta is
            # iteration-dependent and must not be cached.
            cacheable = all(
                leaf.name == node.name
                for leaf in node.body.walk()
                if isinstance(leaf, RecLeaf)
            )
            cache_key = ("fix", node.name, node.body._key())
            temp_name = (
                self._fix_cache.get(cache_key) if cacheable else None
            )
            if temp_name is None or not self.physical.has_entity(temp_name):
                temp_name = run_fixpoint(self, node, delta_env)
                if cacheable:
                    self._fix_cache[cache_key] = temp_name
            yield from self._scan_batches(
                self._extent_steps(temp_name), node.out_var, "fix", node_id
            )
            return
        if isinstance(node, Materialize):
            temp_info = self.physical.register_temp(node.name)
            self.note_temp(temp_info.name)
            insert = self.store.insert
            for batch in self.iterate_batches(node.child, delta_env):
                for binding in batch.rows:
                    insert(
                        temp_info.name,
                        {
                            key: normalize_value(value)
                            for key, value in binding.items()
                        },
                    )
            yield from self._scan_batches(
                self._extent_steps(temp_info.name),
                node.out_var,
                "materialize",
                node_id,
            )
            return
        raise ExecutionError(f"unknown plan node {type(node).__name__}")

    # -- operator implementations ------------------------------------------------------

    def _scan_batches(
        self, steps: ScanSteps, var: str, kind: str, node_id: Optional[str]
    ) -> Iterator[Batch]:
        """Walk a scan's ``(pages to touch, chunk)`` steps: touch the
        step's pages as one run, then hand the chunk over as a batch,
        so the next pages are touched only once the consumer is done
        with it — the touch order of a record-at-a-time scan.  One
        cancellation poll and one ``batches`` increment per batch.  The
        steps are cached (an extent's batch plan, a round delta's), so
        every re-scan hands back the same chunk lists — what lets the
        join kernel's probe memo recognise them."""
        metrics = self.metrics
        touch_run = self.store.buffer.touch_run
        produced = 0
        try:
            for pages, chunk in steps:
                touch_run(pages)
                self.check_cancelled()
                produced += len(chunk)
                metrics.batches += 1
                yield Batch.from_columns({var: chunk}, node_id)
        finally:
            metrics.add_tuples(kind, node_id, produced)

    def _leaf_steps(
        self, node: PlanNode, delta_env: Dict[str, List[StoredRecord]]
    ) -> Tuple[ScanSteps, str]:
        """The scan steps of a leaf and the operator kind its tuples
        are counted under."""
        if isinstance(node, RecLeaf):
            delta = delta_env.get(node.name)
            if delta is None:
                raise ExecutionError(
                    f"recursion reference {node.name!r} evaluated outside "
                    "its fixpoint"
                )
            return self._delta_plan(node.name, delta), "delta"
        return self._extent_steps(node.entity), "scan"

    def _extent_steps(self, entity: str) -> ScanSteps:
        return self.store.extent(entity).page_batches(self.batch_size)

    def _delta_plan(self, name: str, delta: List[StoredRecord]) -> ScanSteps:
        """The scan steps of a delta: each distinct page is charged
        once, just before the first chunk holding a record on it.  One
        plan per recursion name, valid while it is the same delta list
        at the same length: every re-scan of a round's delta replays
        it, and the next round's delta replaces it — so the engine
        never holds more than one delta per name."""
        cached = self._delta_plans.get(name)
        if cached is not None and cached[0] is delta and cached[1] == len(delta):
            return cached[2]
        batch_size = self.batch_size
        plan: ScanSteps = []
        touched: Set[PageId] = set()
        pages: List[PageId] = []
        chunk: List[StoredRecord] = []
        for record in delta:
            page_id = record.page_id
            if page_id is not None and page_id not in touched:
                touched.add(page_id)
                pages.append(page_id)
            chunk.append(record)
            if len(chunk) >= batch_size:
                plan.append((pages, chunk))
                pages, chunk = [], []
        if chunk:
            plan.append((pages, chunk))
        self._delta_plans[name] = (delta, len(delta), plan)
        return plan

    def _sel_batches(
        self,
        node: Sel,
        delta_env: Dict[str, List[StoredRecord]],
        node_id: Optional[str],
    ) -> Iterator[Batch]:
        """Unindexed selection through the compiled column kernel
        (index-list selection + column gather, with the all-pass gather
        forwarding the input columns unchanged).  The survivors of one
        input batch travel as one (possibly smaller) output batch:
        merging across input batches would delay emission behind a
        selective filter for no measured gain."""
        evaluator = self._evaluator
        assert evaluator is not None
        metrics = self.metrics
        touch_width = len(node.predicate.variables())
        produced = 0
        kernel = evaluator.compile_filter_kernel(node.predicate)
        try:
            for batch in self.iterate_batches(node.child, delta_env):
                metrics.column_touches += touch_width * len(batch)
                selected = kernel(batch)
                if selected:
                    produced += len(selected)
                    metrics.batches += 1
                    yield Batch.from_columns(
                        gather_columns(batch.columns, selected, len(batch)),
                        node_id,
                        len(selected),
                    )
        finally:
            metrics.add_tuples("sel", node_id, produced)

    def _proj_batches(
        self,
        node: Proj,
        delta_env: Dict[str, List[StoredRecord]],
        node_id: Optional[str],
    ) -> Iterator[Batch]:
        """Projection.  The output columns are built field-by-field
        when every field has a column recipe and the batch's needed
        columns extract cleanly; any batch (or field shape) that would
        need the generic walk is projected row-wise through the
        compiled per-row closures, so evaluation counting and buffer
        charging stay in row order."""
        evaluator = self._evaluator
        assert evaluator is not None
        fields = [
            (field.name, evaluator.compile_expr(field.expr))
            for field in node.fields.fields
        ]
        touched: Set[str] = set()
        for field in node.fields.fields:
            touched |= field.expr.variables()
        touch_width = len(touched)
        metrics = self.metrics
        specs = self._proj_column_specs(node)
        produced = 0
        try:
            for batch in self.iterate_batches(node.child, delta_env):
                metrics.column_touches += touch_width * len(batch)
                if specs is not None and batch.is_columnar:
                    out = self._proj_columns(batch, specs)
                    if out is not None:
                        columns, length = out
                        if length:
                            produced += length
                            metrics.batches += 1
                            yield Batch.from_columns(
                                columns, node_id, length
                            )
                        continue
                rows = self._proj_rows(batch.rows, fields)
                if rows:
                    produced += len(rows)
                    metrics.batches += 1
                    yield Batch(rows, node_id)
        finally:
            metrics.add_tuples("proj", node_id, produced)

    @staticmethod
    def _proj_rows(rows: List[Binding], fields) -> List[Binding]:
        out: List[Binding] = []
        for binding in rows:
            row: Binding = {}
            suppressed = False
            for name, value_fn in fields:
                values = value_fn(binding)
                if not values:
                    # Path semantics: a traversal over a null
                    # reference yields nothing, so the output
                    # tuple is suppressed (like the paper's base
                    # rule, which emits no Influencer tuple for a
                    # composer without a master).
                    suppressed = True
                    break
                if len(values) > 1:
                    raise ExecutionError(
                        f"output field {name!r} is multivalued"
                    )
                row[name] = values[0]
            if not suppressed:
                out.append(row)
        return out

    @staticmethod
    def _proj_column_specs(node: Proj):
        """Per-field column recipes of a Proj — ``(name, kind,
        payload)`` triples for constants, whole-variable references and
        single-attribute paths — or None when any field needs the
        generic row evaluator (multi-hop paths, function applications,
        methods)."""
        specs = []
        for field in node.fields.fields:
            expr = field.expr
            if isinstance(expr, Const):
                specs.append((field.name, "const", expr.value))
            elif isinstance(expr, PathRef) and len(expr.attrs) == 0:
                specs.append((field.name, "var", expr.var))
            elif isinstance(expr, PathRef) and len(expr.attrs) == 1:
                specs.append((field.name, "attr", (expr.var, expr.attrs[0])))
            else:
                return None
        return specs

    def _proj_columns(self, batch: Batch, specs):
        """``(output columns, row count)`` of one columnar batch, or
        None when a needed column is not uniformly extractable (a
        non-record binding, a missing attribute, a collection value) —
        the caller then projects that batch row-wise.

        The ``expr_evals`` accounting replicates the row loop exactly:
        each field counts one evaluation per row still alive when it is
        reached, and a null single-attribute value suppresses its row
        from every output column (the projection short-circuit)."""
        columns = batch.columns
        extracted: Dict[str, Tuple[list, frozenset]] = {}
        for name, kind, payload in specs:
            if kind == "const":
                continue
            if kind == "var":
                if payload not in columns:
                    return None
                continue
            var, attr = payload
            column = columns.get(var)
            if column is None or column_kinds(column) != {StoredRecord}:
                return None
            try:
                raws = [record.values[attr] for record in column]
            except KeyError:
                return None
            kinds = column_kinds(raws)
            if has_structured_kinds(kinds):
                return None
            extracted[name] = (raws, kinds)
        metrics = self.metrics
        length = len(batch)
        alive: Optional[List[int]] = None  # None = every row alive
        out: List[Tuple[str, list]] = []
        for name, kind, payload in specs:
            count = length if alive is None else len(alive)
            metrics.expr_evals += count
            if kind == "const":
                out.append((name, [payload] * count))
                continue
            if kind == "var":
                # Batches are immutable after emission, so an all-alive
                # variable column is forwarded without copying.
                column = columns[payload]
                out.append(
                    (name, column if alive is None else gather(column, alive))
                )
                continue
            raws, kinds = extracted[name]
            values = raws if alive is None else gather(raws, alive)
            if type(None) in kinds:
                survivors = [
                    j for j, value in enumerate(values) if value is not None
                ]
                if len(survivors) != len(values):
                    values = gather(values, survivors)
                    out = [
                        (prev_name, gather(col, survivors))
                        for prev_name, col in out
                    ]
                    alive = (
                        survivors
                        if alive is None
                        else gather(alive, survivors)
                    )
            out.append((name, values))
        final = length if alive is None else len(alive)
        return dict(out), final

    def _indexed_selection_access(self, node: Sel, node_id: Optional[str] = None):
        """Index-assisted selection over a base entity
        (``access_cost(Ci, P)`` with an index, Section 3.2):

        * an equality conjunct on a directly indexed attribute descends
          the selection B⁺-tree;
        * an equality conjunct on a whole *path* matching a path
          index's attribute sequence + terminal attribute uses the
          index's **reverse** direction ([MS86]): the terminal value
          keys the lookup and only the qualifying head objects are
          fetched — no navigation at all.

        Returns None when inapplicable."""
        if not isinstance(node.child, EntityLeaf):
            return None
        leaf = node.child
        evaluator = self._evaluator
        assert evaluator is not None
        from repro.querygraph.predicates import Const

        for conjunct in conjuncts(node.predicate):
            if not isinstance(conjunct, Comparison) or conjunct.op != "=":
                continue
            for path_side, const_side in (
                (conjunct.left, conjunct.right),
                (conjunct.right, conjunct.left),
            ):
                if not (
                    isinstance(path_side, PathRef)
                    and path_side.var == leaf.var
                    and isinstance(const_side, Const)
                ):
                    continue
                # The index guarantees the matched conjunct; only the
                # *residual* conjuncts are re-evaluated on the fetched
                # records (re-checking a whole-path conjunct would
                # navigate the very path the index exists to skip).
                from repro.querygraph.predicates import conjoin

                residual = conjoin(
                    [c for c in conjuncts(node.predicate) if c != conjunct]
                )
                if len(path_side.attrs) == 1:
                    index = self.physical.selection_index(
                        leaf.entity, path_side.attrs[0]
                    )
                    if index is None:
                        continue

                    def generate(index=index, key=const_side.value,
                                 residual=residual, node_id=node_id):
                        self.metrics.index_lookups += 1
                        self.metrics.index_page_reads += index.nblevels
                        residual_fn = evaluator.compile_predicate(residual)
                        batch_size = self.batch_size
                        produced = 0
                        rows: List[Binding] = []
                        try:
                            for oid in index.lookup(key):
                                record = self.store.fetch(oid)
                                binding = {leaf.var: record}
                                if residual_fn(binding):
                                    rows.append(binding)
                                    if len(rows) >= batch_size:
                                        produced += len(rows)
                                        self.metrics.batches += 1
                                        yield Batch(rows, node_id)
                                        rows = []
                            if rows:
                                produced += len(rows)
                                self.metrics.batches += 1
                                yield Batch(rows, node_id)
                        finally:
                            self.metrics.add_tuples("sel", node_id, produced)

                    return generate()
                if len(path_side.attrs) >= 2:
                    path_index = self.physical.path_index(
                        leaf.entity, path_side.attrs[:-1]
                    )
                    if (
                        path_index is None
                        or path_index.terminal_attribute != path_side.attrs[-1]
                    ):
                        continue

                    def generate_reverse(
                        index=path_index, key=const_side.value,
                        residual=residual, node_id=node_id,
                    ):
                        self.metrics.index_lookups += 1
                        self.metrics.index_page_reads += index.nblevels
                        residual_fn = evaluator.compile_predicate(residual)
                        batch_size = self.batch_size
                        seen = set()
                        produced = 0
                        rows: List[Binding] = []
                        try:
                            for path_tuple in index.reverse(key):
                                head = path_tuple[0]
                                if head in seen:
                                    continue
                                seen.add(head)
                                record = self.store.fetch(head)
                                binding = {leaf.var: record}
                                if residual_fn(binding):
                                    rows.append(binding)
                                    if len(rows) >= batch_size:
                                        produced += len(rows)
                                        self.metrics.batches += 1
                                        yield Batch(rows, node_id)
                                        rows = []
                            if rows:
                                produced += len(rows)
                                self.metrics.batches += 1
                                yield Batch(rows, node_id)
                        finally:
                            self.metrics.add_tuples("sel", node_id, produced)

                    return generate_reverse()
        return None

    def _ij_batches(
        self, node: IJ, delta_env: Dict[str, List[StoredRecord]]
    ) -> Iterator[Batch]:
        """Implicit join: walk the head column in row order (which
        fixes the fetch/charge order), gather the surviving input
        columns by expansion index and append the joined records as one
        new column."""
        evaluator = self._evaluator
        assert evaluator is not None
        node_id = self._node_ids.get(id(node))
        fetch = self.store.fetch
        out_var = node.out_var
        metrics = self.metrics
        produced = 0
        walk_from = evaluator.compile_path_from_value(node.source)
        src_var = node.source.var
        emitter = _ColumnEmitter(self.batch_size, node_id)
        try:
            for batch in self.iterate_batches(node.child, delta_env):
                metrics.column_touches += len(batch)
                columns = batch.columns
                source = columns.get(src_var)
                if source is None:
                    # Unbound head variable: the row walk raises the
                    # canonical error.
                    evaluator.compile_path(node.source)(
                        batch.rows[0] if len(batch) else {}
                    )
                    continue
                indices: List[int] = []
                records: List[StoredRecord] = []
                for position, value in enumerate(source):
                    for reached in walk_from(value):
                        if isinstance(reached, Oid):
                            record = fetch(reached)
                        elif isinstance(reached, StoredRecord):
                            record = reached
                        else:
                            # null or non-reference: inner-join drops it
                            continue
                        indices.append(position)
                        records.append(record)
                if not indices:
                    continue
                out_columns = {
                    name: gather(column, indices)
                    for name, column in columns.items()
                }
                out_columns[out_var] = records
                for emitted in emitter.add(out_columns, len(indices)):
                    produced += len(emitted)
                    metrics.batches += 1
                    yield emitted
            final = emitter.flush()
            if final is not None:
                produced += len(final)
                metrics.batches += 1
                yield final
        finally:
            metrics.add_tuples("ij", node_id, produced)

    def _pij_batches(
        self, node: PIJ, delta_env: Dict[str, List[StoredRecord]]
    ) -> Iterator[Batch]:
        evaluator = self._evaluator
        assert evaluator is not None
        node_id = self._node_ids.get(id(node))
        index = self.physical.find_path_index(node.attributes)
        if index is None:
            raise ExecutionError(
                f"no path index on {node.path_name!r} at execution time"
            )
        stats = self.physical.statistics
        head_count = max(1, stats.instances(index.root_entity))
        per_lookup = index.nblevels + index.nbleaves / head_count
        fetch = self.store.fetch
        metrics = self.metrics
        produced = 0
        walk_from = evaluator.compile_path_from_value(node.source)
        src_var = node.source.var
        out_vars = list(node.out_vars)
        # Only fetch objects somebody consumes; the others stay as oids
        # (dereferenced on demand if a predicate surprises us) — the
        # whole point of a path index is skipping the intermediate
        # objects ([MS86]).
        consumed_flags = [var in self._consumed_vars for var in out_vars]
        emitter = _ColumnEmitter(self.batch_size, node_id)
        try:
            for batch in self.iterate_batches(node.child, delta_env):
                metrics.column_touches += len(batch)
                columns = batch.columns
                source = columns.get(src_var)
                if source is None:
                    evaluator.compile_path(node.source)(
                        batch.rows[0] if len(batch) else {}
                    )
                    continue
                indices: List[int] = []
                out_lists: List[list] = [[] for _ in out_vars]
                for position, head_value in enumerate(source):
                    for value in walk_from(head_value):
                        if isinstance(value, StoredRecord):
                            head = value.oid
                        elif isinstance(value, Oid):
                            head = value
                        else:
                            continue
                        metrics.index_lookups += 1
                        metrics.index_page_reads += per_lookup
                        for path_tuple in index.forward(head):
                            indices.append(position)
                            for slot, wanted in enumerate(consumed_flags):
                                oid = path_tuple[slot + 1]
                                out_lists[slot].append(
                                    fetch(oid) if wanted else oid
                                )
                if not indices:
                    continue
                out_columns = {
                    name: gather(column, indices)
                    for name, column in columns.items()
                }
                for slot, out_var in enumerate(out_vars):
                    out_columns[out_var] = out_lists[slot]
                for emitted in emitter.add(out_columns, len(indices)):
                    produced += len(emitted)
                    metrics.batches += 1
                    yield emitted
            final = emitter.flush()
            if final is not None:
                produced += len(final)
                metrics.batches += 1
                yield final
        finally:
            metrics.add_tuples("pij", node_id, produced)

    def _nested_loop_batches(
        self, node: EJ, delta_env: Dict[str, List[StoredRecord]]
    ) -> Iterator[Batch]:
        """Nested-loop join: the inner operand is honestly re-opened
        for every outer *binding* — not per outer batch — re-charging
        its I/O exactly as the EJ cost formula of Figure 5 prices it
        (rescanning per batch would make measured I/O depend on the
        batch size, which the parity contract forbids), and every pair
        is judged by the per-pair closure.  The optimizer runs an
        equality predicate as a hash join (:meth:`_hash_join_batches`)
        instead; this form serves predicates without an equality key
        and hand-built plans.  The pairs are judged lazily, one
        emission at a time, so the touches a predicate makes keep their
        place among the consumer's."""
        evaluator = self._evaluator
        assert evaluator is not None
        predicate = evaluator.compile_predicate(node.predicate)
        inner = node.right

        def joins(outer: Binding) -> Iterator[Iterator[Binding]]:
            for batch in self.iterate_batches(inner, delta_env):
                yield _joined_pairs(outer, batch.rows, predicate)

        return self._emit_joins(node, delta_env, joins)

    def _hash_join_batches(
        self, node: EJ, delta_env: Dict[str, List[StoredRecord]]
    ) -> Iterator[Batch]:
        """Hash join: each open drains the inner operand completely —
        every inner page touched once — when the first outer binding
        arrives (an empty outer never opens it, so the hash join never
        reads more than the nested loop would).  Each outer binding is
        then probed against the drained batches through the
        :class:`JoinKernel`'s key index of each batch's inner column
        (built the first time the join sees the chunk list and kept in
        its probe memo: a scan hands back its cached chunk lists, so an
        extent inner is indexed once per execution, across Fix rounds,
        while the memo never holds more than one open's chunks —
        ``execute`` drops it).  Whatever the kernel declines is judged
        pair by pair against the in-memory inner, with no re-read.
        Either way ``predicate_evals`` counts every pair, as the nested
        loop does; ``column_touches`` counts one key-column read per
        outer binding (the probe), the term that prices the smaller
        operand as the outer.  Page reads, evaluations and tuples are
        independent of the batch size; where the outer's first batch
        ends (the touches before the drain) is not, like the touches of
        any held emission."""
        evaluator = self._evaluator
        assert evaluator is not None
        predicate = evaluator.compile_predicate(node.predicate)
        kernel = evaluator.compile_join_kernel(
            node.predicate, node.left.output_vars(), node.right.output_vars()
        )
        metrics = self.metrics
        #: ``(batch, its inner key column or None, its memo slot)`` per
        #: drained inner batch; None until the first outer binding.
        table: Optional[List[tuple]] = None

        def joins(outer: Binding) -> Iterator[Iterator[Binding]]:
            nonlocal table
            if table is None:
                table = self._hash_build(node, delta_env, kernel)
            metrics.column_touches += 1  # the probe reads one key column
            key = kernel.outer_key(outer) if kernel is not None else None
            for batch, column, slot in table:
                matched = None
                if key is not None and column is not None:
                    matched = kernel.matches(key, column, slot)
                if matched is None:
                    yield _joined_pairs(outer, batch.rows, predicate)
                else:
                    yield _joined_matches(outer, kernel, matched)

        return self._emit_joins(node, delta_env, joins)

    def _hash_build(
        self,
        node: EJ,
        delta_env: Dict[str, List[StoredRecord]],
        kernel: Optional[JoinKernel],
    ) -> List[tuple]:
        """One open's build side: drain the hash join's inner operand
        and pair each batch with its key column (None when the kernel
        declines it) and its probe memo slot."""
        batches = list(self.iterate_batches(node.right, delta_env))
        probes = self._probe_memos.setdefault(id(node), [])
        while len(probes) < len(batches):
            probes.append([None, None])
        return [
            (
                batch,
                kernel.inner_column(batch) if kernel is not None else None,
                slot,
            )
            for batch, slot in zip(batches, probes)
        ]

    def _emit_joins(self, node: EJ, delta_env, joins) -> Iterator[Batch]:
        """Pull the outer operand and gather ``joins(outer binding)``
        — lazy iterators of merged bindings — into ``batch_size``
        emissions."""
        node_id = self._node_ids.get(id(node))
        batch_size = self.batch_size
        metrics = self.metrics
        produced = 0
        rows: List[Binding] = []
        try:
            for left_batch in self.iterate_batches(node.left, delta_env):
                for left_binding in left_batch.rows:
                    for joined in joins(left_binding):
                        for merged in joined:
                            rows.append(merged)
                            if len(rows) >= batch_size:
                                produced += len(rows)
                                metrics.batches += 1
                                yield Batch(rows, node_id)
                                rows = []
            if rows:
                produced += len(rows)
                metrics.batches += 1
                yield Batch(rows, node_id)
        finally:
            metrics.add_tuples("ej", node_id, produced)

    def _index_join_batches(
        self, node: EJ, delta_env: Dict[str, List[StoredRecord]]
    ) -> Iterator[Batch]:
        evaluator = self._evaluator
        assert evaluator is not None
        node_id = self._node_ids.get(id(node))
        leaf = index_join_leaf(node.right)
        if leaf is None:
            raise ExecutionError(
                "index_join inner operand must be an entity (optionally "
                "under a selection)"
            )
        residual_wrap = (
            node.right.predicate if isinstance(node.right, Sel) else None
        )
        equality = equality_join_key(
            node.predicate,
            leaf.var,
            node.left.output_vars(),
            lambda attr: self.physical.has_selection_index(leaf.entity, attr),
        )
        if equality is None:
            raise ExecutionError(
                "index_join requires an equality conjunct on an indexed "
                "attribute of the inner entity"
            )
        outer_expr, attribute = equality
        index = self.physical.selection_index(leaf.entity, attribute)
        assert index is not None
        key_fn = evaluator.compile_expr(outer_expr)
        residual_fn = (
            evaluator.compile_predicate(residual_wrap)
            if residual_wrap is not None
            else None
        )
        predicate = evaluator.compile_predicate(node.predicate)
        fetch = self.store.fetch
        inner_var = leaf.var
        batch_size = self.batch_size
        metrics = self.metrics
        produced = 0
        rows: List[Binding] = []
        try:
            for left_batch in self.iterate_batches(node.left, delta_env):
                for left_binding in left_batch.rows:
                    for key in key_fn(left_binding):
                        metrics.index_lookups += 1
                        metrics.index_page_reads += index.nblevels
                        for oid in index.lookup(normalize_value(key)):
                            record = fetch(oid)
                            merged = dict(left_binding)
                            merged[inner_var] = record
                            if residual_fn is not None and not residual_fn(
                                merged
                            ):
                                continue
                            if predicate(merged):
                                rows.append(merged)
                                if len(rows) >= batch_size:
                                    produced += len(rows)
                                    metrics.batches += 1
                                    yield Batch(rows, node_id)
                                    rows = []
            if rows:
                produced += len(rows)
                metrics.batches += 1
                yield Batch(rows, node_id)
        finally:
            metrics.add_tuples("ej", node_id, produced)


def _joined_pairs(
    outer: Binding, inner_rows: List[Binding], predicate
) -> Iterator[Binding]:
    """The merged bindings of ``outer`` x ``inner_rows`` that satisfy
    the (counting) join predicate."""
    for inner in inner_rows:
        merged = dict(outer)
        merged.update(inner)
        if predicate(merged):
            yield merged


def _joined_matches(
    outer: Binding, kernel: JoinKernel, records: List[StoredRecord]
) -> Iterator[Binding]:
    """The merged bindings of ``outer`` with the inner records the join
    kernel matched, less those the conjunction's residual rejects."""
    inner_var = kernel.inner_var
    residual = kernel.residual
    for record in records:
        merged = dict(outer)
        merged[inner_var] = record
        if residual is None or residual(merged):
            yield merged


class _ColumnEmitter:
    """Accumulates join output across input batches and slices it into
    ``batch_size`` emissions on greedy chunk boundaries (every full
    chunk as soon as it is available, one remainder at the end) — the
    boundaries the explicit joins' row accumulators use, so
    ``metrics.batches`` depends on the batch size alone.  Chunks
    accumulate column-wise; if the output
    schema ever changes mid-stream (heterogeneous union branches) the
    pending columns are materialized once and accumulation continues
    row-wise — correctness over speed for that rare shape."""

    __slots__ = ("batch_size", "node_id", "columns", "rows", "count")

    def __init__(self, batch_size: int, node_id: Optional[str]) -> None:
        self.batch_size = batch_size
        self.node_id = node_id
        self.columns: Optional[Dict[str, list]] = None
        self.rows: Optional[List[Binding]] = None
        self.count = 0

    def add(
        self, columns: Dict[str, list], length: int
    ) -> Iterator[Batch]:
        """Append one chunk of output columns (owned by the emitter
        afterwards); yields every full batch the chunk completes."""
        if self.rows is not None:
            self.rows.extend(Batch.from_columns(columns, None, length).rows)
        elif self.columns is None:
            self.columns = columns
        elif list(self.columns) == list(columns):
            for name, column in columns.items():
                self.columns[name].extend(column)
        else:
            self._to_rows()
            self.rows.extend(Batch.from_columns(columns, None, length).rows)
        self.count += length
        while self.count >= self.batch_size:
            yield self._slice(self.batch_size)

    def flush(self) -> Optional[Batch]:
        """The final partial batch (None when nothing is pending)."""
        if self.count:
            return self._slice(self.count)
        return None

    def _slice(self, size: int) -> Batch:
        self.count -= size
        if self.rows is not None:
            head, self.rows = self.rows[:size], self.rows[size:]
            return Batch(head, self.node_id)
        columns = self.columns
        head = {name: column[:size] for name, column in columns.items()}
        self.columns = {
            name: column[size:] for name, column in columns.items()
        }
        return Batch.from_columns(head, self.node_id, size)

    def _to_rows(self) -> None:
        self.rows = list(
            Batch.from_columns(self.columns, None, self.count).rows
        )
        self.columns = None
