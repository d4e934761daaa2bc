"""The detailed cost model (Section 3.2, Figure 5).

Implements the paper's per-node cost formulas over real statistics:

* ``Sel(C)``  = access_cost(C, selpred) + nbpages * eval_cost
* ``EJ(Ci,Cj)`` = access(Ci) + nbtuples(Ci) * (access(Cj) + nbpages(Cj)*eval)
  (nested-loop / index-join variants; the hash join, an extension,
  charges ``access(Cj)`` once per open instead of per outer tuple)
* ``IJ(Ci,Cj)`` = access(Ci) + ||Ci|| * access_cost(Ci, Cj)
* ``PIJ``    = ||C|| * (nblevels + nbleaves / ||C1||)
* ``Fix(T,P)`` = Σ_i cost(Exp(T_i)) over semi-naive iterations
* ``cost(PT)`` = cost(N) + Σ cost(child_i)

``access_cost(Ci, Cj)`` accounts for clustering (a sub-object on the
owner's page costs nothing extra) and buffer residency ("some of the
needed data are already in main memory", the Section 3.2 footnote):
repeated random dereferences into an entity that fits in the buffer pay
for each page at most once.

The model prices I/O in page reads and CPU in predicate/tuple
evaluations using :class:`~repro.cost.params.CostParameters`, the same
units the engine's measured cost uses — so estimates and measurements
are directly comparable.

**Each subplan is costed once.**  Plan nodes are immutable terms with
structural equality and a cached hash, so ``_cost`` memoises its
``(io, cpu)`` per *subterm* inside a :meth:`DetailedCostModel.memo_scope`
— one ``Optimizer.optimize`` call (the optimizer opens the scope), or
one ``cost``/``report`` call otherwise.  A search move rebuilds only the
path from the rewritten node to the root, so only that path is
re-costed; a ``Fix`` body part is priced once per (part, delta).  The
key is everything a subterm's cost can depend on inside a scope: the
term, the ``delta_env`` entries it can see
(:func:`repro.cost.cardinality.visible_env`) and, for each ``PIJ`` in
it, whether the whole plan consumes that ``PIJ``'s out-variables.  The
memo is bypassed where a hit would lose something besides the number:
when a per-node ``rows`` table is being built (``report``), when
``annotated_report`` accumulates per-visit captures, and — at
``params.shards > 1`` — for terms containing a ``Fix``, whose
``fix_breakdowns[id(node)]`` entry only ``_cost_fix`` fills.
Cardinality estimates are memoised on the same key and scope by the
estimator.

**Each recursive view is priced once per statistics epoch.**  The
scope memo is dropped when the scope exits, with one exception: a
``Fix``-rooted term that reads no ``TempLeaf`` (temporaries have
per-execution statistics) is also kept in the physical schema's
:class:`~repro.physical.schema.EpochMemo`, keyed on the scope key plus
the resolved :class:`~repro.cost.params.CostParameters` by value.  Texts
that share a recursive view — the same closure under another outer
selection — then price its semi-naive rounds once, until the
statistics or the physical design change (``refresh_statistics``, a
new durable entity, a new selection or path index drop the memo) or
the parameters do (a recalibration or another buffer size misses).  The
estimator keeps ``Fix`` estimates the same way.  Only a model whose
statistics are still the schema's current ones reads or fills it.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.errors import CostModelError
from repro.cost.cardinality import (
    CardinalityEstimator,
    NodeEstimate,
    TupleShape,
    VarInfo,
    visible_env,
)
from repro.cost.params import CostParameters
from repro.physical.schema import EpochMemo, PhysicalSchema
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
from repro.querygraph.graph import OutputSpec
from repro.querygraph.predicates import (
    And,
    Comparison,
    Expr,
    FunctionApp,
    Not,
    Or,
    PathRef,
    Predicate,
    TruePredicate,
)

__all__ = ["CostReport", "CapturedEstimate", "DetailedCostModel"]

#: Fallback selectivity for a path-terminal equality whose value
#: frequencies were not trackable.
DEFAULT_TERMINAL_SELECTIVITY = 0.1


@dataclass
class CostReport:
    """Total and per-node cost of a plan."""

    total: float
    io: float
    cpu: float
    rows: List[Tuple[str, float]] = field(default_factory=list)

    def __repr__(self) -> str:  # pragma: no cover - convenience
        return f"CostReport(total={self.total:.2f}, io={self.io:.2f}, cpu={self.cpu:.2f})"


@dataclass
class CapturedEstimate:
    """Per-node estimate accumulated by :meth:`annotated_report`.

    A node inside a ``Fix`` body is costed once per predicted
    semi-naive iteration; ``cost`` and ``tuples`` sum over the visits,
    matching the engine's accumulated per-node actuals."""

    cost: float = 0.0
    tuples: float = 0.0
    visits: int = 0


class DetailedCostModel:
    """Figure 5 over live statistics; see the module docstring."""

    def __init__(
        self,
        physical: PhysicalSchema,
        params: Optional[CostParameters] = None,
    ) -> None:
        self.physical = physical
        #: Resolved once against the live store: ``buffer_pages`` and
        #: ``temp_records_per_page`` are plain ints from here on.
        self.params = (params or CostParameters()).resolved(physical.store)
        self.estimator = CardinalityEstimator(physical, self.params)
        self.stats = physical.statistics
        #: When set (by :meth:`annotated_report`), ``_cost`` records a
        #: :class:`CapturedEstimate` per node identity as it recurses.
        self._capture: Optional[Dict[int, CapturedEstimate]] = None
        #: Distributed-term decomposition per ``Fix`` node identity
        #: (``id(node)``), refreshed by every :meth:`report`: the
        #: network/disk/skew estimates EXPLAIN ANALYZE lines up against
        #: measured actuals.  Empty unless ``params.shards > 1``.
        self.fix_breakdowns: Dict[int, dict] = {}
        #: Variables some operator of the plan being costed reads.
        self._consumed_vars: Set[str] = set()
        #: (term, visible env, consumed PIJ bits) -> (io, cpu), inside
        #: a memo scope.
        self._memo: Optional[Dict[tuple, Tuple[float, float]]] = None
        #: The statistics epoch's memo and ``params`` by value, inside
        #: a memo scope (see the module docstring).
        self._epoch: Optional[EpochMemo] = None
        self._params_key: tuple = ()

    # -- public API ---------------------------------------------------------------

    def cost(
        self,
        plan: PlanNode,
        delta_env: Optional[Dict[str, Tuple[float, TupleShape]]] = None,
    ) -> float:
        """Total estimated cost of ``plan`` (io + cpu) — what a search
        compares; builds no per-node table."""
        io, cpu = self._cost_plan(plan, delta_env, None)
        return io + cpu

    def report(
        self,
        plan: PlanNode,
        delta_env: Optional[Dict[str, Tuple[float, TupleShape]]] = None,
    ) -> CostReport:
        """Cost a plan; ``delta_env`` supplies delta cardinalities when
        the plan is a fixpoint-body fragment containing RecLeaf nodes
        (used by the optimizer when generating inside a recursion)."""
        rows: List[Tuple[str, float]] = []
        io, cpu = self._cost_plan(plan, delta_env, rows)
        return CostReport(io + cpu, io, cpu, rows)

    @contextmanager
    def memo_scope(self) -> Iterator[None]:
        """Cost each subplan once until the block exits, and each
        recursive view once per statistics epoch (see the module
        docstring).  Re-entrant: an inner scope shares the outer one's
        table.  The physical schema, its statistics and ``params`` must
        not change inside a scope."""
        if self._memo is not None:
            yield
            return
        self._memo = {}
        self._epoch = self.physical.epoch_memo(self.stats)
        self._params_key = self.params.memo_key()
        try:
            with self.estimator.memo_scope():
                yield
        finally:
            self._memo = None
            self._epoch = None

    def _cost_plan(
        self,
        plan: PlanNode,
        delta_env: Optional[Dict[str, Tuple[float, TupleShape]]],
        rows: Optional[List[Tuple[str, float]]],
    ) -> Tuple[float, float]:
        from repro.plans.patterns import consumed_variables

        self._consumed_vars = consumed_variables(plan)
        self.fix_breakdowns = {}
        with self.memo_scope():
            return self._cost(plan, dict(delta_env or {}), rows)

    def annotated_report(
        self,
        plan: PlanNode,
        delta_env: Optional[Dict[str, Tuple[float, TupleShape]]] = None,
    ) -> Tuple[CostReport, Dict[int, CapturedEstimate]]:
        """Cost a plan and capture per-node estimates keyed by node
        identity (``id(node)``) — the substrate of ``EXPLAIN ANALYZE``
        (:mod:`repro.obs.explain`)."""
        self._capture = {}
        try:
            report = self.report(plan, delta_env)
            return report, dict(self._capture)
        finally:
            self._capture = None

    # -- recursion -------------------------------------------------------------------

    def _cost(
        self,
        node: PlanNode,
        env: Dict[str, Tuple[float, TupleShape]],
        rows: Optional[List[Tuple[str, float]]],
    ) -> Tuple[float, float]:
        """(io, cpu) of the subtree; ``rows`` (when wanted) receives a
        ``(label, cost)`` line per visited node."""
        capture = self._capture
        memo = self._memo
        key = None
        if memo is not None and rows is None and capture is None:
            key = self._memo_key(node, env)
        if key is not None:
            known = memo.get(key)
            if known is None:
                known = memo[key] = self._price(node, env, key)
            return known
        io, cpu = self._dispatch(node, env, rows)
        if rows is not None:
            rows.append((node.label(), io + cpu))
        if capture is not None:
            entry = capture.get(id(node))
            if entry is None:
                entry = capture[id(node)] = CapturedEstimate()
            entry.cost += io + cpu
            entry.visits += 1
            try:
                entry.tuples += self.estimator.estimate(node, env).tuples
            except CostModelError:
                pass
        return io, cpu

    def _price(self, node: PlanNode, env, key: tuple) -> Tuple[float, float]:
        """(io, cpu) of a scope-memo miss; a ``Fix`` term reading no
        temporary is served from, or kept in, the epoch memo."""
        epoch = self._epoch
        if epoch is None or not isinstance(node, Fix) or node.memo_traits()[3]:
            return self._dispatch(node, env, None)
        epoch_key = ("cost", key, self._params_key)
        known = epoch.get(epoch_key)
        if known is None:
            known = self._dispatch(node, env, None)
            epoch.put(epoch_key, known)
        return known

    def _memo_key(
        self, node: PlanNode, env: Dict[str, Tuple[float, TupleShape]]
    ) -> Optional[tuple]:
        """Everything ``node``'s (io, cpu) can depend on inside a memo
        scope, or None where a hit would skip a side effect."""
        _recursions, pij_vars, has_fix, _has_temp = node.memo_traits()
        if has_fix and self.params.shards > 1:
            return None  # _cost_fix must run: it fills fix_breakdowns
        consumed = self._consumed_vars
        return (
            node,
            visible_env(node, env),
            tuple(var in consumed for var in pij_vars),
        )

    def _batch_cost(self, tuples: float) -> float:
        """Per-batch pipeline overhead of emitting ``tuples`` bindings:
        each of the ``ceil(tuples / batch_size)`` batches costs one
        generator resumption + cancellation poll + metering probe
        (``params.batch_overhead``)."""
        if tuples <= 0:
            return 0.0
        batch_size = max(1, self.params.batch_size)
        return math.ceil(tuples / batch_size) * self.params.batch_overhead

    def _column_cost(self, width: float, tuples: float) -> float:
        """Column-touch term of the columnar operator ABI: a node is
        charged ``params.column_touch`` per *referenced* column per
        input tuple — only the columns its predicate, output
        expressions or join path actually read, never the full tuple
        width.  Mirrors ``metrics.column_touches`` exactly (the engine
        meters ``width × input tuples`` layout-invariantly), so the
        weight calibrates from measured runs like ``batch_overhead``.
        """
        if width <= 0 or tuples <= 0:
            return 0.0
        return width * tuples * self.params.column_touch

    def _dispatch(self, node, env, rows) -> Tuple[float, float]:
        params = self.params
        if isinstance(node, (EntityLeaf, TempLeaf)):
            estimate = self.estimator.estimate(node, env)
            io = estimate.pages * params.page_read
            cpu = estimate.tuples * params.tuple_cpu
            cpu += self._batch_cost(estimate.tuples)
            return io, cpu
        if isinstance(node, RecLeaf):
            estimate = self.estimator.estimate(node, env)
            io = estimate.pages * params.page_read
            cpu = estimate.tuples * params.tuple_cpu
            cpu += self._batch_cost(estimate.tuples)
            return io, cpu
        if isinstance(node, Sel):
            indexed = self._indexed_selection(node, env)
            if indexed is not None:
                return indexed
            child_io, child_cpu = self._cost(node.child, env, rows)
            child_est = self.estimator.estimate(node.child, env)
            pred_io, pred_cpu = self._predicate_cost(
                node.predicate, child_est.tuples, child_est.varmap
            )
            # A filter emits (at most) one batch per consumed batch and
            # touches only the columns its predicate references.
            pred_cpu += self._batch_cost(child_est.tuples)
            pred_cpu += self._column_cost(
                len(node.predicate.variables()), child_est.tuples
            )
            return child_io + pred_io, child_cpu + pred_cpu
        if isinstance(node, Proj):
            child_io, child_cpu = self._cost(node.child, env, rows)
            child_est = self.estimator.estimate(node.child, env)
            proj_io, proj_cpu = self._projection_cost(
                node.fields, child_est.tuples, child_est.varmap
            )
            proj_cpu += child_est.tuples * params.tuple_cpu
            proj_cpu += self._batch_cost(child_est.tuples)
            touched = set()
            for output_field in node.fields.fields:
                touched |= output_field.expr.variables()
            proj_cpu += self._column_cost(len(touched), child_est.tuples)
            return child_io + proj_io, child_cpu + proj_cpu
        if isinstance(node, IJ):
            return self._cost_ij(node, env, rows)
        if isinstance(node, PIJ):
            return self._cost_pij(node, env, rows)
        if isinstance(node, EJ):
            return self._cost_ej(node, env, rows)
        if isinstance(node, UnionOp):
            left_io, left_cpu = self._cost(node.left, env, rows)
            right_io, right_cpu = self._cost(node.right, env, rows)
            return left_io + right_io, left_cpu + right_cpu
        if isinstance(node, Fix):
            return self._cost_fix(node, env, rows)
        if isinstance(node, Materialize):
            child_io, child_cpu = self._cost(node.child, env, rows)
            estimate = self.estimator.estimate(node, env)
            # Write out and read back the temporary once.
            io = 2.0 * estimate.pages * params.page_read
            cpu = estimate.tuples * params.tuple_cpu
            cpu += self._batch_cost(estimate.tuples)
            return child_io + io, child_cpu + cpu
        raise CostModelError(f"cannot cost node {type(node).__name__}")

    def _indexed_selection(self, node: Sel, env) -> Optional[Tuple[float, float]]:
        """``access_cost(Ci, P)`` through an index: when the selection
        sits directly on an entity and an equality conjunct references
        an indexed attribute, the access descends the B⁺-tree and
        fetches only qualifying records (Section 3.2)."""
        if not isinstance(node.child, EntityLeaf):
            return None
        leaf = node.child
        from repro.querygraph.predicates import Const, conjuncts as split

        best: Optional[Tuple[float, float]] = None
        for conjunct in split(node.predicate):
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
                access = self._indexed_access_io(
                    leaf, path_side, const_side.value
                )
                if access is None:
                    continue
                io, matches = access
                # Residual conjuncts are evaluated on the matches only.
                residual = [c for c in split(node.predicate) if c != conjunct]
                weight = 0.0
                for part in residual:
                    part_weight, _part_io = self._predicate_weight(
                        part, {leaf.var: leaf.entity}
                    )
                    weight += part_weight
                cpu = matches * weight * self.params.eval_per_tuple
                cpu += self._batch_cost(matches)
                if best is None or io + cpu < best[0] + best[1]:
                    best = (io, cpu)
        return best

    def _indexed_access_io(
        self, leaf: EntityLeaf, path: PathRef, value: object
    ) -> Optional[Tuple[float, float]]:
        """(io, expected matches) of an index-backed access for
        ``leaf.var.<path> = value``: a selection index for one-hop
        paths, the *reverse* direction of a path index for whole paths
        ([MS86])."""
        if len(path.attrs) == 1:
            index = self.physical.selection_index(leaf.entity, path.attrs[0])
            if index is None:
                return None
            selectivity = self.estimator._value_selectivity(
                leaf.entity, path.attrs[0], value, weighted=False
            )
            matches = self.stats.instances(leaf.entity) * selectivity
            io = index.nblevels * self.params.index_page + self._miss_io(
                matches, leaf.entity
            )
            return io, matches
        path_index = self.physical.path_index(leaf.entity, path.attrs[:-1])
        if (
            path_index is None
            or path_index.terminal_attribute != path.attrs[-1]
        ):
            return None
        resolved = self.estimator._resolve_path(
            path, {leaf.var: leaf.entity}
        )
        terminal_entity = resolved[0] if resolved else None
        terminal_selectivity = DEFAULT_TERMINAL_SELECTIVITY
        if terminal_entity is not None and resolved[1] is not None:
            terminal_selectivity = self.estimator._value_selectivity(
                terminal_entity, resolved[1], value, weighted=True
            )
        matching_entries = path_index.entry_count * terminal_selectivity
        heads = min(
            matching_entries, float(self.stats.instances(leaf.entity))
        )
        io = path_index.nblevels * self.params.index_page + self._miss_io(
            heads, leaf.entity
        )
        return io, heads

    # -- dereference modelling ----------------------------------------------------------

    def _miss_io(self, fetches: float, target_entity: Optional[str]) -> float:
        """Expected physical page reads for ``fetches`` random
        dereferences into ``target_entity`` through the buffer pool."""
        if fetches <= 0:
            return 0.0
        if target_entity is None or not self.physical.has_entity(target_entity):
            return fetches * self.params.page_read
        pages = max(1, self.stats.pages(target_entity))
        buffer_pages = max(1, self.params.buffer_pages)
        if pages <= buffer_pages:
            # Each distinct page is read once; later fetches hit.
            expected_distinct = pages * (1.0 - (1.0 - 1.0 / pages) ** fetches)
            return expected_distinct * self.params.page_read
        hit_ratio = buffer_pages / pages
        return fetches * (1.0 - hit_ratio) * self.params.page_read

    def _deref_cost(
        self,
        fetches: float,
        owner_entity: Optional[str],
        attribute: Optional[str],
        target_entity: Optional[str],
    ) -> float:
        """``access_cost(Ci, Cj)`` × fetches: clustering discount, then
        buffer-aware page misses."""
        if fetches <= 0:
            return 0.0
        clustered = 0.0
        if owner_entity is not None and attribute is not None:
            if self.physical.has_entity(owner_entity):
                clustered = self.stats.clustered_fraction(owner_entity, attribute)
        effective = fetches * (1.0 - clustered)
        return self._miss_io(effective, target_entity)

    # -- predicate / projection costs ------------------------------------------------------

    def _predicate_cost(
        self, predicate: Predicate, tuples: float, varmap: Dict[str, VarInfo]
    ) -> Tuple[float, float]:
        """(io, cpu) of evaluating ``predicate`` on ``tuples`` bindings.

        CPU: one eval unit per comparison per tuple, weighted by any
        method invocations.  I/O: paths that cross reference attributes
        dereference objects — this is what makes an object-oriented
        selection potentially *expensive* and is the heart of the
        paper's argument."""
        weight, hop_io_per_tuple = self._predicate_weight(predicate, varmap)
        cpu = tuples * weight * self.params.eval_per_tuple
        io = tuples * hop_io_per_tuple
        return io, cpu

    def _predicate_weight(
        self, predicate: Predicate, varmap: Dict[str, VarInfo]
    ) -> Tuple[float, float]:
        if isinstance(predicate, TruePredicate):
            return 0.0, 0.0
        if isinstance(predicate, (And, Or)):
            weight, io = 0.0, 0.0
            for part in predicate.parts:
                part_weight, part_io = self._predicate_weight(part, varmap)
                weight += part_weight
                io += part_io
            return weight, io
        if isinstance(predicate, Not):
            return self._predicate_weight(predicate.part, varmap)
        if isinstance(predicate, Comparison):
            weight, io = 1.0, 0.0
            for expr in (predicate.left, predicate.right):
                expr_weight, expr_io = self._expr_weight(expr, varmap)
                weight += expr_weight
                io += expr_io
            return weight, io
        return 1.0, 0.0

    def _expr_weight(
        self, expr: Expr, varmap: Dict[str, VarInfo]
    ) -> Tuple[float, float]:
        if isinstance(expr, FunctionApp):
            weight, io = expr.eval_weight, 0.0
            for arg in expr.args:
                arg_weight, arg_io = self._expr_weight(arg, varmap)
                weight += arg_weight
                io += arg_io
            return weight, io
        if isinstance(expr, PathRef):
            return self._path_weight(expr, varmap)
        return 0.0, 0.0

    def _path_weight(
        self, path: PathRef, varmap: Dict[str, VarInfo]
    ) -> Tuple[float, float]:
        """Method weight plus per-tuple dereference I/O of a path."""
        if len(path.attrs) <= 1:
            weight = self._method_weight(path, varmap)
            return weight, 0.0
        # Multi-hop path: each intermediate reference hop dereferences
        # an object (expected fanout expands the count).
        resolved = self.estimator._resolve_path(path, varmap)
        hops = len(path.attrs) - 1
        fanout = 1.0
        if resolved is not None:
            _entity, _attr, fanout = resolved
        io = hops * max(1.0, fanout) * self.params.page_read * 0.5
        # 0.5: on average half the dereferences hit already-buffered
        # pages; the exact discount needs the target entity per hop,
        # which _deref_cost models for IJ nodes — predicates with long
        # paths should have been translated into IJ chains anyway.
        return self._method_weight(path, varmap), io

    def _method_weight(
        self, path: PathRef, varmap: Dict[str, VarInfo]
    ) -> float:
        if not path.attrs or self.physical.catalog is None:
            return 0.0
        resolved = self.estimator._resolve_path(path, varmap)
        if resolved is None:
            return 0.0
        entity, final_attr, _fanout = resolved
        if entity is None or final_attr is None:
            return 0.0
        conceptual = self.estimator._conceptual_of(entity)
        if conceptual is None:
            return 0.0
        method = self.physical.catalog.method(conceptual, final_attr)
        if method is None:
            return 0.0
        return method.eval_weight

    def _projection_cost(
        self, fields: OutputSpec, tuples: float, varmap: Dict[str, VarInfo]
    ) -> Tuple[float, float]:
        io, cpu = 0.0, 0.0
        for output_field in fields.fields:
            weight, hop_io = self._expr_weight(output_field.expr, varmap)
            cpu += tuples * weight * self.params.eval_per_tuple
            io += tuples * hop_io
        return io, cpu

    # -- join operators ------------------------------------------------------------------------

    def _cost_ij(self, node: IJ, env, rows) -> Tuple[float, float]:
        child_io, child_cpu = self._cost(node.child, env, rows)
        child_est = self.estimator.estimate(node.child, env)
        out_est = self.estimator.estimate(node, env)
        owner_entity, attribute = self._ij_owner(node, child_est.varmap)
        fetches = max(out_est.tuples, child_est.tuples)
        io = self._deref_cost(
            fetches, owner_entity, attribute, node.target.entity
        )
        cpu = out_est.tuples * self.params.tuple_cpu
        cpu += self._batch_cost(out_est.tuples)
        # The join walks exactly one column: its source path head.
        cpu += self._column_cost(1.0, child_est.tuples)
        return child_io + io, child_cpu + cpu

    def _ij_owner(
        self, node: IJ, varmap: Dict[str, VarInfo]
    ) -> Tuple[Optional[str], Optional[str]]:
        """The entity *owning* the dereferenced attribute (whose
        clustering with the target discounts ``access_cost(Ci, Cj)``)
        and the attribute name."""
        attrs = node.source.attrs
        attribute = attrs[-1]
        if len(attrs) == 1:
            info = varmap.get(node.source.var)
            owner = info if isinstance(info, str) else None
            if owner is None and isinstance(info, TupleShape):
                owner = info.fields.get(attribute)
                # A tuple field holding oids has no own storage; the
                # clustering question does not apply.
                return None, None
            return owner, attribute
        prefix = PathRef(node.source.var, attrs[:-1])
        resolved = self.estimator._resolve_path(prefix, varmap)
        if resolved is None:
            return None, attribute
        entity, final_attr, _fanout = resolved
        if final_attr is not None:
            return None, attribute
        return entity, attribute

    def _cost_pij(self, node: PIJ, env, rows) -> Tuple[float, float]:
        child_io, child_cpu = self._cost(node.child, env, rows)
        child_est = self.estimator.estimate(node.child, env)
        out_est = self.estimator.estimate(node, env)
        index = self.physical.find_path_index(node.attributes)
        if index is None:
            raise CostModelError(
                f"no path index on {node.path_name!r} to cost a PIJ node"
            )
        heads = max(1, self.stats.instances(index.root_entity))
        per_lookup = index.nblevels + index.nbleaves / heads
        io = child_est.tuples * per_lookup * self.params.index_page
        # Fetch only the referenced objects somebody consumes (the
        # engine skips unconsumed intermediates the same way).
        consumed = self._consumed_vars
        for target, out_var in zip(node.targets, node.out_vars):
            if out_var not in consumed:
                continue
            io += self._miss_io(out_est.tuples, target.entity)
        cpu = out_est.tuples * self.params.tuple_cpu
        cpu += self._batch_cost(out_est.tuples)
        # The index lookup reads one column: the path's head variable.
        cpu += self._column_cost(1.0, child_est.tuples)
        return child_io + io, child_cpu + cpu

    def _cost_ej(self, node: EJ, env, rows) -> Tuple[float, float]:
        left_io, left_cpu = self._cost(node.left, env, rows)
        left_est = self.estimator.estimate(node.left, env)
        right_est = self.estimator.estimate(node.right, env)
        out_est = self.estimator.estimate(node, env)
        pred_weight, pred_hop_io = self._predicate_weight(
            node.predicate, {**left_est.varmap, **right_est.varmap}
        )
        if node.algorithm == INDEX_JOIN:
            index_entity, index_levels = self._index_join_params(node)
            matches = out_est.tuples / max(1.0, left_est.tuples)
            io = left_est.tuples * index_levels * self.params.index_page
            io += self._miss_io(out_est.tuples, index_entity)
            cpu = (
                left_est.tuples
                * matches
                * pred_weight
                * self.params.eval_per_tuple
            )
            cpu += self._batch_cost(out_est.tuples)
            return left_io + io, left_cpu + cpu
        # Nested loop: Figure 5 charges one inner access per outer
        # tuple; the buffer absorbs re-reads of an inner that fits
        # (the engine behaves the same way), so the physical charge is
        # one full inner scan when it fits and a full re-scan per outer
        # tuple when it does not.  The hash join drains its inner once
        # per open (inside a Fix body: once per round) and keeps it in
        # memory, so it pays the inner's I/O and CPU once; it still
        # judges every pair, as the engine counts them, and each outer
        # tuple reads its key column once to probe.
        inner_io, inner_cpu = self._cost(node.right, env, None)
        outer_tuples = max(0.0, left_est.tuples)
        opens = max(1.0, outer_tuples)
        if node.algorithm == HASH_JOIN:
            rescan_io = inner_io
            rescan_cpu = inner_cpu + self._column_cost(1.0, outer_tuples)
        elif right_est.pages <= max(1, self.params.buffer_pages):
            rescan_io, rescan_cpu = inner_io, inner_cpu * opens
        else:
            rescan_io, rescan_cpu = inner_io * opens, inner_cpu * opens
        evals = outer_tuples * right_est.tuples
        cpu = evals * pred_weight * self.params.eval_per_tuple + rescan_cpu
        cpu += self._batch_cost(out_est.tuples)
        io = rescan_io + evals * pred_hop_io
        return left_io + io, left_cpu + cpu

    def _index_join_params(self, node: EJ) -> Tuple[Optional[str], float]:
        right = node.right
        leaf: Optional[EntityLeaf] = None
        if isinstance(right, EntityLeaf):
            leaf = right
        elif isinstance(right, Sel) and isinstance(right.child, EntityLeaf):
            leaf = right.child
        if leaf is None:
            return None, 2.0
        for conjunct_attr in self._indexed_attrs(leaf):
            index = self.physical.selection_index(leaf.entity, conjunct_attr)
            if index is not None:
                return leaf.entity, float(index.nblevels)
        return leaf.entity, 2.0

    def _indexed_attrs(self, leaf: EntityLeaf) -> List[str]:
        return [
            index.attribute
            for index in self.physical.selection_indices()
            if index.entity == leaf.entity
        ]

    # -- fixpoint --------------------------------------------------------------------------------

    def _hash_builds(self, part: PlanNode, env) -> Tuple[float, float]:
        """(io, cpu) of draining the inner of every hash join on
        ``part``'s driving (outer) chain once — what each shard whose
        slice of a round reaches those joins pays in full.  Priced
        outside any EXPLAIN capture: the part's own pricing already
        visited these nodes."""
        from repro.dist.partition import driving_chain

        io, cpu = 0.0, 0.0
        capture, self._capture = self._capture, None
        try:
            for join in driving_chain(part):
                if isinstance(join, EJ) and join.algorithm == HASH_JOIN:
                    inner_io, inner_cpu = self._cost(join.right, env, None)
                    io += inner_io
                    cpu += inner_cpu
        finally:
            self._capture = capture
        return io, cpu

    def _cost_fix(self, node: Fix, env, rows) -> Tuple[float, float]:
        """Figure 5: cost(Fix) = Σ_i cost(Exp(T_i)).

        The base parts are costed once; the recursive parts are costed
        once per estimated semi-naive iteration against that
        iteration's delta size.

        With ``params.shards > 1`` the distributed-Fix variant applies
        instead: each round's serial cost is priced both shard-local
        (no exchange, pay the configured skew) and repartitioned
        (re-scatter the delta, run balanced) and the cheaper strategy
        is charged, plus the gather leg's network cost for the tuples
        the round produces (see :mod:`repro.cost.distributed`).  What
        no worker splits is charged whole: the inner drain of a hash
        join on a partitioned part's driving chain, which every worker
        pays, and a part the delta cannot be partitioned for, which one
        worker runs on the whole delta.  Every
        distributed term is gated behind ``shards > 1``, so at one
        shard this is bit-for-bit the serial formula.
        """
        from repro.cost.distributed import (
            exchange_cost,
            round_strategy_breakdown,
        )
        from repro.dist.partition import partitionable
        from repro.engine.fixpoint import partition_parts

        base_parts, recursive_parts = partition_parts(node)
        fix_est = self.estimator.estimate(node, env)
        shape = fix_est.varmap[node.out_var]
        body_shape = TupleShape(
            dict(shape.fields), frozenset(node.invariant_fields)
        )
        shards = max(1, self.params.shards)
        distributed = shards > 1

        io, cpu = 0.0, 0.0
        base_io, base_cpu = 0.0, 0.0
        for part in base_parts:
            part_io, part_cpu = self._cost(part, env, rows)
            base_io += part_io
            base_cpu += part_cpu
        deltas = fix_est.deltas or []
        breakdown: Optional[dict] = None
        if distributed:
            base_workers = min(shards, len(base_parts))
            io += base_io / base_workers
            cpu += base_cpu / base_workers
            # Gather leg of the base round: the whole first frontier
            # crosses the exchange back to the coordinator.
            first_delta = deltas[0] if deltas else fix_est.tuples
            base_gather = exchange_cost(first_delta, shards, self.params)
            io += base_gather
            breakdown = {
                "shards": shards,
                "rounds": 1,
                "exchange_tuples": first_delta,
                "exchange_frames": float(shards),
                "network": base_gather,
                "disk_base": base_io / base_workers,
                "skew": max(1.0, self.params.shard_skew),
            }
        else:
            io += base_io
            cpu += base_cpu

        def round_cost(delta: float, produced: float) -> None:
            nonlocal io, cpu
            inner_env = dict(env)
            inner_env[node.name] = (delta, body_shape)
            round_io, round_cpu = 0.0, 0.0
            # The share of the round no worker splits: a hash join's
            # build, which every worker whose delta slice reaches the
            # join drains itself, and a part the delta cannot be split
            # for, which one worker runs on the whole delta.
            whole_io, whole_cpu = 0.0, 0.0
            for part in recursive_parts:
                part_io, part_cpu = self._cost(part, inner_env, None)
                round_io += part_io
                round_cpu += part_cpu
                if not distributed:
                    continue
                if partitionable(part, node.name):
                    part_io, part_cpu = self._hash_builds(part, inner_env)
                whole_io += part_io
                whole_cpu += part_cpu
            if distributed:
                dist = round_strategy_breakdown(
                    round_io - whole_io,
                    round_cpu - whole_cpu,
                    delta,
                    shards,
                    self.params,
                )
                io += dist["io"] + whole_io
                cpu += dist["cpu"] + whole_cpu
                # Gather leg: the round's fresh tuples travel back.
                gather = exchange_cost(produced, shards, self.params)
                io += gather
                # Coordinator-side dedup/merge of the gathered tuples.
                cpu += delta * self.params.parallel_overhead
                # Both legs of the round's exchange, for est-vs-act.
                breakdown["rounds"] += 1
                breakdown["exchange_tuples"] += delta + produced
                breakdown["exchange_frames"] += 2.0 * shards
                breakdown["network"] += dist["network"] + gather
                breakdown["disk_base"] += dist["scan_io"] + whole_io
                return
            io += round_io
            cpu += round_cpu

        for index, delta in enumerate(
            deltas[:-1] if len(deltas) > 1 else deltas[:0]
        ):
            produced = deltas[index + 1] if index + 1 < len(deltas) else 0.0
            round_cost(delta, produced)
        # One extra empty-delta round detects the fixpoint; charge the
        # final delta's scan of the recursive parts as well.
        if len(deltas) > 1:
            round_cost(deltas[-1], 0.0)
        # Materializing and deduplicating the accumulated result (the
        # coordinator seen-set under sharding), plus re-emitting it in
        # batches from the temporary.
        cpu += fix_est.tuples * self.params.tuple_cpu
        cpu += self._batch_cost(fix_est.tuples)
        if distributed:
            cpu += fix_est.tuples * self.params.parallel_overhead
        if breakdown is not None:
            breakdown["disk"] = breakdown["disk_base"] * breakdown["skew"]
            self.fix_breakdowns[id(node)] = breakdown
        return io, cpu
