"""Evaluation of value expressions and predicates over runtime bindings.

A *binding* maps variable names to runtime values: stored records, temp
tuples (records of a temporary extent), oids, or atomic values.  Path
evaluation over complex objects follows the paper's semantics:

* dereferencing an oid is a real object access (charged through the
  buffer pool);
* a path crossing a set/list-valued attribute is *multivalued* — a
  comparison over multivalued operands holds when **some** pair of
  reached values satisfies it (existential semantics, which is what
  "the works of Bach including a harpsichord" means);
* a method (computed attribute) is invoked on demand, charging its
  declared evaluation weight — the expensive-selection case that
  motivates the whole paper.

Predicates and expressions are *compiled once per AST node* into Python
closures (:meth:`ExpressionEvaluator.compile_predicate` /
:meth:`~ExpressionEvaluator.compile_expr` /
:meth:`~ExpressionEvaluator.compile_path`) and the closures are cached
per node, so evaluating the same predicate over a million bindings
walks the AST exactly once — the batch-vectorized engine applies the
compiled closure per binding without re-interpreting the tree.  The
``*_compilations`` counters exist so regression tests can prove the
cache works (compilation counts must not scale with tuple counts).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ExecutionError
from repro.engine.columns import column_kinds, is_plain_kinds
from repro.physical.storage import ObjectStore, Oid, StoredRecord
from repro.plans.patterns import equality_join_key
from repro.querygraph.predicates import (
    COMPARISON_OPS,
    And,
    Comparison,
    Const,
    Expr,
    FunctionApp,
    Not,
    Or,
    PathRef,
    Predicate,
    TruePredicate,
)
from repro.engine.metrics import RuntimeMetrics

Binding = Dict[str, object]

__all__ = [
    "Binding",
    "ExpressionEvaluator",
    "JoinKernel",
    "normalize_value",
    "canonical_row",
]

#: Sentinel distinguishing "attribute absent" from a stored None.
_MISSING = object()

#: Value types the join kernel compares raw.  ``==`` between any two of
#: them cannot raise, dereference or recurse, and equal values hash
#: alike (NaN, equal to nothing, is kept out of the index), so a key
#: index lookup and the per-pair ``compare`` closure agree on every pair
#: by construction.
_JOIN_KEY_KINDS = frozenset({int, float, str, bool, Oid})
#: An inner key column may also hold nulls: a null never matches (the
#: per-pair path expands it to no value at all), it does not make the
#: column non-uniform — root composers have ``master = None``.
_JOIN_COLUMN_KINDS = _JOIN_KEY_KINDS | {type(None)}
#: The probe key of an outer binding whose join attribute is a stored
#: null: it is in no key index, so the probe finds nothing — what the
#: per-pair path finds, counted alike.
_NULL_KEY = object()

#: ``const <op> path`` rewritten as ``path <mirrored op> const`` so the
#: fast comparison path applies regardless of operand order.
_MIRRORED_OPS = {
    "=": "=",
    "!=": "!=",
    "<": ">",
    "<=": ">=",
    ">": "<",
    ">=": "<=",
}


def normalize_value(value: object) -> object:
    """Normalize a runtime value for comparison: records become oids."""
    if isinstance(value, StoredRecord):
        return value.oid
    return value


def canonical_row(binding: Binding) -> tuple:
    """A hashable canonical form of a binding (for answer-set equality
    and for fixpoint duplicate elimination)."""
    items = []
    for key in sorted(binding):
        value = normalize_value(binding[key])
        if isinstance(value, (list, tuple)):
            value = tuple(normalize_value(v) for v in value)
        items.append((key, value))
    return tuple(items)


class ExpressionEvaluator:
    """Evaluates expressions and predicates against bindings.

    ``method_resolver(entity_name, attribute)`` returns a
    ``(compute, eval_weight)`` pair when the attribute is a computed
    attribute (method) of the entity's conceptual class, else None —
    injected by the engine, which knows the physical→conceptual map.

    ``charged`` controls whether oid dereferences go through the
    buffer-charging ``fetch`` (the executor) or the free ``peek`` (the
    reference evaluator computing ground truth).
    """

    def __init__(
        self,
        store: ObjectStore,
        metrics: RuntimeMetrics,
        method_resolver=None,
        charged: bool = True,
    ) -> None:
        self._store = store
        self._metrics = metrics
        self._method_resolver = method_resolver
        self._charged = charged
        # Compiled-closure caches, keyed by AST node identity.  The
        # cached tuples hold the node itself so its id() stays valid
        # for the evaluator's lifetime.
        self._compiled_predicates: Dict[
            int, Tuple[Predicate, Callable[[Binding], bool]]
        ] = {}
        self._compiled_inner: Dict[
            int, Tuple[Predicate, Callable[[Binding], bool]]
        ] = {}
        self._compiled_exprs: Dict[
            int, Tuple[Expr, Callable[[Binding], List[object]]]
        ] = {}
        self._compiled_paths: Dict[
            int, Tuple[PathRef, Callable[[Binding], List[object]]]
        ] = {}
        self._compiled_kernels: Dict[int, Tuple[Predicate, Callable]] = {}
        self._compiled_join_kernels: Dict[
            tuple, Tuple[Predicate, Optional["JoinKernel"]]
        ] = {}
        self._compiled_value_walks: Dict[int, Tuple[PathRef, Callable]] = {}
        #: Compilation counters: how many closures were built.  Bounded
        #: by the number of distinct AST nodes, never by tuple counts.
        self.predicate_compilations = 0
        self.expr_compilations = 0
        self.path_compilations = 0

    # -- value access ----------------------------------------------------------

    def _deref(self, oid: Oid) -> StoredRecord:
        if self._charged:
            return self._store.fetch(oid)
        return self._store.peek(oid)

    def _attribute_values(self, value: object, attribute: str) -> List[object]:
        """Values reachable by one attribute hop from ``value``."""
        if isinstance(value, Oid):
            value = self._deref(value)
        if isinstance(value, StoredRecord):
            if attribute in value.values:
                result = value.values[attribute]
            else:
                result = self._invoke_method(value, attribute)
        elif isinstance(value, dict):
            if attribute not in value:
                raise ExecutionError(
                    f"tuple has no field {attribute!r} "
                    f"(fields: {sorted(value)})"
                )
            result = value[attribute]
        else:
            raise ExecutionError(
                f"cannot access attribute {attribute!r} of atomic value "
                f"{value!r}"
            )
        if result is None:
            return []
        if isinstance(result, (tuple, list)):
            return list(result)
        return [result]

    def _invoke_method(self, record: StoredRecord, attribute: str) -> object:
        if self._method_resolver is not None:
            resolved = self._method_resolver(record.entity, attribute)
            if resolved is not None:
                compute, weight = resolved
                self._metrics.method_eval_weight += weight
                return compute(record.values)
        raise ExecutionError(
            f"{record.entity!r} record has no attribute or method "
            f"{attribute!r}"
        )

    def path_values(self, binding: Binding, path: PathRef) -> List[object]:
        """All values reached by a path (existential expansion).

        Intermediate oids are dereferenced (charged); the final values
        are returned as-is (oids stay oids — a comparison of reference
        attributes compares identities, per the object model).
        """
        return self.compile_path(path)(binding)

    def compile_path(self, path: PathRef) -> Callable[[Binding], List[object]]:
        """The compiled navigation closure of a path (cached per node).

        Unlike :meth:`compile_expr` the returned closure does *not*
        count an expression evaluation — it matches the raw
        ``path_values`` contract the join operators rely on.
        """
        cached = self._compiled_paths.get(id(path))
        if cached is not None:
            return cached[1]
        walk = self._build_path(path)
        self._compiled_paths[id(path)] = (path, walk)
        self.path_compilations += 1
        return walk

    def _build_path(self, path: PathRef) -> Callable[[Binding], List[object]]:
        var = path.var
        attrs = tuple(path.attrs)
        attribute_values = self._attribute_values

        def walk(binding: Binding) -> List[object]:
            try:
                value = binding[var]
            except KeyError:
                raise ExecutionError(f"unbound variable {var!r}") from None
            current: List[object] = [value]
            for attribute in attrs:
                next_values: List[object] = []
                for value in current:
                    next_values.extend(attribute_values(value, attribute))
                current = next_values
            return current

        return walk

    def compile_path_from_value(
        self, path: PathRef
    ) -> Callable[[object], List[object]]:
        """The navigation closure of a path applied to an already-bound
        head value (cached per node) — the columnar twin of
        :meth:`compile_path`.  A column kernel iterates a head column
        and calls this per value, reaching exactly the values (and
        charging exactly the dereferences, in the same order) that
        ``compile_path`` would reach from ``binding[path.var]``."""
        cached = self._compiled_value_walks.get(id(path))
        if cached is not None:
            return cached[1]
        attrs = tuple(path.attrs)
        attribute_values = self._attribute_values

        def walk_from(value: object) -> List[object]:
            current: List[object] = [value]
            for attribute in attrs:
                next_values: List[object] = []
                for item in current:
                    next_values.extend(attribute_values(item, attribute))
                current = next_values
            return current

        self._compiled_value_walks[id(path)] = (path, walk_from)
        return walk_from

    # -- expressions ---------------------------------------------------------------

    def expr_values(self, binding: Binding, expr: Expr) -> List[object]:
        """All values of an expression (multivalued paths expand)."""
        return self.compile_expr(expr)(binding)

    def compile_expr(self, expr: Expr) -> Callable[[Binding], List[object]]:
        """The compiled value closure of an expression (cached per
        node).  Each call counts one expression evaluation, exactly as
        the interpreted ``expr_values`` did — sub-expressions of a
        ``FunctionApp`` count their own calls.  Callers must not
        mutate the returned list."""
        cached = self._compiled_exprs.get(id(expr))
        if cached is not None:
            return cached[1]
        fn = self._build_expr(expr)
        self._compiled_exprs[id(expr)] = (expr, fn)
        self.expr_compilations += 1
        return fn

    def _build_expr(self, expr: Expr) -> Callable[[Binding], List[object]]:
        metrics = self._metrics
        if isinstance(expr, Const):
            values = [expr.value]

            def const_values(binding: Binding) -> List[object]:
                metrics.expr_evals += 1
                return values

            return const_values
        if isinstance(expr, PathRef):
            walk = self._build_path(expr)
            if len(expr.attrs) == 1:
                # Fast path for the dominant shape: one stored
                # attribute of a directly bound record.  Oid deref,
                # temp tuples, methods and unbound variables fall back
                # to the generic walk (which also does the charging).
                var, attr = expr.var, expr.attrs[0]

                def fast_path_values(binding: Binding) -> List[object]:
                    metrics.expr_evals += 1
                    value = binding.get(var)
                    if type(value) is StoredRecord:
                        raw = value.values.get(attr, _MISSING)
                        if raw is not _MISSING:
                            if raw is None:
                                return []
                            if isinstance(raw, (list, tuple)):
                                return list(raw)
                            return [raw]
                    return walk(binding)

                return fast_path_values

            def path_expr_values(binding: Binding) -> List[object]:
                metrics.expr_evals += 1
                return walk(binding)

            return path_expr_values
        if isinstance(expr, FunctionApp):
            arg_fns = [self.compile_expr(arg) for arg in expr.args]
            fn, name, weight = expr.fn, expr.name, expr.eval_weight

            def app_values(binding: Binding) -> List[object]:
                metrics.expr_evals += 1
                argument_lists = [arg_fn(binding) for arg_fn in arg_fns]
                results: List[object] = []
                metrics.method_eval_weight += weight
                for combo in _product(argument_lists):
                    if fn is None:
                        raise ExecutionError(
                            f"function {name!r} has no implementation"
                        )
                    results.append(fn(*combo))
                return results

            return app_values
        raise ExecutionError(f"unknown expression type {type(expr).__name__}")

    # -- predicates -----------------------------------------------------------------

    def holds(self, binding: Binding, predicate: Predicate) -> bool:
        """Whether ``predicate`` holds on ``binding`` (existential
        semantics over multivalued paths); counts one evaluation."""
        return self.compile_predicate(predicate)(binding)

    def compile_predicate(
        self, predicate: Predicate
    ) -> Callable[[Binding], bool]:
        """The compiled boolean closure of a predicate (cached per
        node).  Each call counts one predicate evaluation — the same
        top-level accounting the interpreted ``holds`` performed; the
        conjuncts/disjuncts inside a composite predicate do not count
        separately."""
        cached = self._compiled_predicates.get(id(predicate))
        if cached is not None:
            return cached[1]
        metrics = self._metrics
        inner = self._inner_predicate(predicate)

        def evaluate(binding: Binding) -> bool:
            metrics.predicate_evals += 1
            return inner(binding)

        self._compiled_predicates[id(predicate)] = (predicate, evaluate)
        return evaluate

    def compile_filter_kernel(
        self, predicate: Predicate
    ) -> Callable[["object"], List[int]]:
        """The compiled *column* kernel of a predicate (cached per
        node): one call filters a whole batch, returning the selected
        row positions.  Counter parity with the per-row closure is
        exact — ``predicate_evals`` counts once per row, and the
        vectorized passes replicate the ``expr_evals`` accounting of
        the fast row closures, short-circuit included.  A batch whose
        filter column is not uniformly vectorizable (a non-record
        binding, a missing/None/record/collection attribute anywhere in
        the column, or a batch built from binding dicts) is filtered
        row-at-a-time through the *same* inner closure
        :meth:`compile_predicate` wraps, preserving per-row evaluation
        and buffer-charge order, so the counters cannot diverge."""
        cached = self._compiled_kernels.get(id(predicate))
        if cached is not None:
            return cached[1]
        metrics = self._metrics
        inner = self._inner_predicate(predicate)
        column_pass = self._build_column_pass(predicate)

        def kernel(batch) -> List[int]:
            metrics.predicate_evals += len(batch)
            if column_pass is not None:
                selected = column_pass(batch)
                if selected is not None:
                    return selected
            rows = batch.rows
            return [i for i, row in enumerate(rows) if inner(row)]

        self._compiled_kernels[id(predicate)] = (predicate, kernel)
        return kernel

    def _build_column_pass(
        self, predicate: Predicate
    ) -> Optional[Callable[["object"], Optional[List[int]]]]:
        """The vectorized single-pass evaluator of a predicate over a
        columnar batch, or None when the predicate shape has no column
        form.  The returned pass itself returns None when *this batch*
        is not uniformly vectorizable — the kernel then falls back to
        the row closure for the whole batch."""
        if isinstance(predicate, TruePredicate):
            return lambda batch: list(range(len(batch)))
        if isinstance(predicate, Comparison):
            spec = self._fast_spec(predicate)
            if spec is None:
                return None
            return self._column_comparison(spec)
        if isinstance(predicate, And) and len(predicate.parts) == 2:
            first = self._fast_spec(predicate.parts[0])
            second = self._fast_spec(predicate.parts[1])
            if first is None or second is None:
                return None
            if first[0] != second[0] or first[1] != second[1]:
                return None
            return self._column_conjunction(first, second)
        return None

    @staticmethod
    def _extract_plain_column(column, attr):
        """The raw values of ``column[i].values[attr]`` when every
        element is a stored record with a plain scalar for ``attr``;
        None otherwise (the whole batch then takes the row path,
        keeping any charging and counting in row order)."""
        extracted = _stored_attr_column(column, attr)
        if extracted is None or not is_plain_kinds(extracted[1]):
            return None
        return extracted[0]

    def _column_comparison(self, spec):
        """One vectorized pass for ``record.attr <op> constant`` over a
        column: ``expr_evals`` counts two per row, exactly as
        ``_fast_comparison`` does row-at-a-time."""
        metrics = self._metrics
        var, attr, op, const = spec

        def column_pass(batch) -> Optional[List[int]]:
            columns = batch._columns
            if columns is None:
                return None
            column = columns.get(var)
            if column is None:
                return None
            raws = self._extract_plain_column(column, attr)
            if raws is None:
                return None
            metrics.expr_evals += 2 * len(raws)
            try:
                return [i for i, raw in enumerate(raws) if op(raw, const)]
            except TypeError:
                selected = []
                for i, raw in enumerate(raws):
                    try:
                        if op(raw, const):
                            selected.append(i)
                    except TypeError:
                        continue
                return selected

        return column_pass

    def _column_conjunction(self, first, second):
        """One fused vectorized pass for ``lo <= record.attr <= hi``-
        style same-attribute conjunctions: a single column read feeds
        both comparisons.  The ``expr_evals`` accounting replicates the
        fused row closure exactly — two per row for the first
        comparison, two more only for the rows where it passed."""
        metrics = self._metrics
        var, attr, first_op, first_const = first
        second_op, second_const = second[2], second[3]

        def column_pass(batch) -> Optional[List[int]]:
            columns = batch._columns
            if columns is None:
                return None
            column = columns.get(var)
            if column is None:
                return None
            raws = self._extract_plain_column(column, attr)
            if raws is None:
                return None
            selected: List[int] = []
            passed = 0
            for i, raw in enumerate(raws):
                try:
                    if not first_op(raw, first_const):
                        continue
                except TypeError:
                    continue
                passed += 1
                try:
                    if second_op(raw, second_const):
                        selected.append(i)
                except TypeError:
                    continue
            metrics.expr_evals += 2 * len(raws) + 2 * passed
            return selected

        return column_pass

    def compile_join_kernel(
        self, predicate: Predicate, outer_vars: Set[str], inner_vars: Set[str]
    ) -> Optional["JoinKernel"]:
        """The column kernel of a hash join predicate (cached
        per node and operand variables), or None when the predicate
        has no column form.

        The shape is ``outer.a = inner.b`` (either operand order) — one
        attribute of an outer-side variable against one attribute of
        the inner operand's only variable — alone or as the *first*
        part of a conjunction.  Later parts of a conjunction stay
        closures (:attr:`JoinKernel.residual`): the join runs them on
        matches only, in their original order, which is exactly where
        the per-pair ``And`` short-circuit reaches them.
        """
        cache_key = (
            id(predicate), frozenset(outer_vars), frozenset(inner_vars)
        )
        cached = self._compiled_join_kernels.get(cache_key)
        if cached is not None:
            return cached[1]
        kernel = self._build_join_kernel(predicate, outer_vars, inner_vars)
        self._compiled_join_kernels[cache_key] = (predicate, kernel)
        return kernel

    def _build_join_kernel(
        self, predicate: Predicate, outer_vars: Set[str], inner_vars: Set[str]
    ) -> Optional["JoinKernel"]:
        parts = predicate.parts if isinstance(predicate, And) else (predicate,)
        if not isinstance(parts[0], Comparison) or len(inner_vars) != 1:
            return None
        (inner_var,) = inner_vars
        if inner_var in outer_vars:
            return None
        found = equality_join_key(parts[0], inner_var, outer_vars)
        if found is None:
            return None
        outer, inner_attr = found
        # Narrower than the index join, which probes with any outer
        # expression: the kernel reads one stored attribute raw.
        if not (isinstance(outer, PathRef) and len(outer.attrs) == 1):
            return None
        rest = [self._build_predicate(part) for part in parts[1:]]
        residual = _conjoin(rest) if rest else None
        return JoinKernel(
            self._metrics, outer.var, outer.attrs[0], inner_var, inner_attr,
            residual,
        )

    def _inner_predicate(
        self, predicate: Predicate
    ) -> Callable[[Binding], bool]:
        """The uncounted compiled closure of a predicate, shared by
        the per-row and per-batch entry points.  Compiling (walking
        the AST into closures) happens here, so the compilation
        counter measures real builds no matter which entry point
        triggered them."""
        cached = self._compiled_inner.get(id(predicate))
        if cached is not None:
            return cached[1]
        inner = self._build_predicate(predicate)
        self._compiled_inner[id(predicate)] = (predicate, inner)
        self.predicate_compilations += 1
        return inner

    def _build_predicate(
        self, predicate: Predicate
    ) -> Callable[[Binding], bool]:
        if isinstance(predicate, TruePredicate):
            return lambda binding: True
        if isinstance(predicate, Comparison):
            op = COMPARISON_OPS[predicate.op]
            left = self.compile_expr(predicate.left)
            right = self.compile_expr(predicate.right)

            def compare(binding: Binding) -> bool:
                left_values = left(binding)
                right_values = right(binding)
                for left_value in left_values:
                    left_norm = normalize_value(left_value)
                    for right_value in right_values:
                        try:
                            if op(left_norm, normalize_value(right_value)):
                                return True
                        except TypeError:
                            continue
                return False

            fast = self._fast_comparison(predicate, op, compare)
            return fast if fast is not None else compare
        if isinstance(predicate, And):
            parts = [self._build_predicate(part) for part in predicate.parts]
            if len(parts) == 2:
                # The dominant shape (a range or a filter + join
                # conjunct); skipping the loop machinery is measurable
                # at scan speed.
                first, second = parts
                two_part = (
                    lambda binding: first(binding) and second(binding)
                )
                fused = self._fast_conjunction(predicate, two_part)
                return fused if fused is not None else two_part

            return _conjoin(parts)
        if isinstance(predicate, Or):
            parts = [self._build_predicate(part) for part in predicate.parts]

            def disjunction(binding: Binding) -> bool:
                for part in parts:
                    if part(binding):
                        return True
                return False

            return disjunction
        if isinstance(predicate, Not):
            inner = self._build_predicate(predicate.part)
            return lambda binding: not inner(binding)
        raise ExecutionError(
            f"unknown predicate type {type(predicate).__name__}"
        )

    @staticmethod
    def _fast_spec(
        predicate: Predicate,
    ) -> Optional[Tuple[str, str, Callable, object]]:
        """``(var, attr, op, normalized const)`` when ``predicate`` is
        a ``record.attr <op> constant`` comparison (in either operand
        order), else None."""
        if not isinstance(predicate, Comparison):
            return None
        left, right = predicate.left, predicate.right
        op_name = predicate.op
        if isinstance(left, Const) and isinstance(right, PathRef):
            op_name = _MIRRORED_OPS.get(op_name)
            if op_name is None:
                return None
            left, right = right, left
        if not (
            isinstance(left, PathRef)
            and len(left.attrs) == 1
            and isinstance(right, Const)
        ):
            return None
        return (
            left.var,
            left.attrs[0],
            COMPARISON_OPS[op_name],
            normalize_value(right.value),
        )

    def _fast_comparison(
        self,
        predicate: Comparison,
        op,
        slow: Callable[[Binding], bool],
    ) -> Optional[Callable[[Binding], bool]]:
        """A short-circuit closure for ``record.attr <op> constant``,
        the dominant filter shape.  Counts the same two expression
        evaluations the generic ``compare`` would; any uncommon shape
        (oid deref, record- or multivalued attribute, method, temp
        tuple, unbound variable) defers to ``slow``, whose compiled
        operand closures do their own counting and buffer charging."""
        spec = self._fast_spec(predicate)
        if spec is None:
            return None
        metrics = self._metrics
        var, attr, op, const_norm = spec

        def fast_compare(binding: Binding) -> bool:
            value = binding.get(var)
            if type(value) is StoredRecord:
                raw = value.values.get(attr, _MISSING)
                if (
                    raw is not _MISSING
                    and raw is not None
                    and not isinstance(raw, (StoredRecord, list, tuple))
                ):
                    metrics.expr_evals += 2
                    try:
                        return op(raw, const_norm)
                    except TypeError:
                        return False
            return slow(binding)

        return fast_compare

    def _fast_conjunction(
        self,
        predicate: And,
        slow: Callable[[Binding], bool],
    ) -> Optional[Callable[[Binding], bool]]:
        """One fused closure for ``lo <= record.attr <= hi``-style
        conjunctions — two constant comparisons on the *same* stored
        attribute share a single binding and attribute fetch.  The
        expression-evaluation counts replicate the generic path
        exactly, including the short-circuit (the second comparison's
        operands are only counted when the first passed)."""
        if len(predicate.parts) != 2:
            return None
        first = self._fast_spec(predicate.parts[0])
        second = self._fast_spec(predicate.parts[1])
        if first is None or second is None:
            return None
        if first[0] != second[0] or first[1] != second[1]:
            return None
        metrics = self._metrics
        var, attr, first_op, first_const = first
        second_op, second_const = second[2], second[3]

        def fused(binding: Binding) -> bool:
            value = binding.get(var)
            if type(value) is StoredRecord:
                raw = value.values.get(attr, _MISSING)
                if (
                    raw is not _MISSING
                    and raw is not None
                    and not isinstance(raw, (StoredRecord, list, tuple))
                ):
                    metrics.expr_evals += 2
                    try:
                        if not first_op(raw, first_const):
                            return False
                    except TypeError:
                        return False
                    metrics.expr_evals += 2
                    try:
                        return second_op(raw, second_const)
                    except TypeError:
                        return False
            return slow(binding)

        return fused


class JoinKernel:
    """Column form of the hash-join equi-join predicate
    ``outer_var.outer_attr = inner_var.inner_attr`` (built by
    :meth:`ExpressionEvaluator.compile_join_kernel`).

    Per outer binding :meth:`outer_key` extracts the raw key once; per
    inner chunk :meth:`matches` looks it up in a key index of the inner
    key column, built once per chunk list and kept in the calling
    join's probe memo — a scan hands back its cached chunk lists, so an
    extent inner is indexed once per execution and every later probe is
    one dict lookup.  Both answer
    None for anything the raw comparison does not provably reproduce,
    and the join then runs that outer binding (or that whole inner
    batch) through the per-pair closure — the same whole-batch fallback
    rule as the ``Sel`` kernels, so evaluation counters and
    buffer-charge order cannot diverge.

    :meth:`matches` counts a whole inner batch up front, so counter
    parity with the per-pair loop holds for *drained* streams (the
    ``Sel`` kernels' caveat too): a consumer that stops mid-batch — a
    cancellation, a closed generator, a raising residual — leaves
    ``predicate_evals``/``expr_evals`` up to one batch ahead.
    """

    __slots__ = (
        "_metrics", "outer_var", "outer_attr", "inner_var", "inner_attr",
        "residual",
    )

    def __init__(
        self,
        metrics: RuntimeMetrics,
        outer_var: str,
        outer_attr: str,
        inner_var: str,
        inner_attr: str,
        residual: Optional[Callable[[Binding], bool]],
    ) -> None:
        self._metrics = metrics
        self.outer_var = outer_var
        self.outer_attr = outer_attr
        self.inner_var = inner_var
        self.inner_attr = inner_attr
        #: The conjunction's remaining parts (uncounted closure over the
        #: merged binding), or None for a bare equality.
        self.residual = residual

    def outer_key(self, binding: Binding) -> Optional[object]:
        """The raw join key of one outer binding (a key that matches
        nothing for a stored null), or None when the binding needs the
        per-pair loop: not a stored record (a temp tuple, an oid), or
        its attribute is computed, multivalued or record-valued."""
        value = binding.get(self.outer_var)
        if type(value) is StoredRecord:
            raw = value.values.get(self.outer_attr, _MISSING)
            if type(raw) in _JOIN_KEY_KINDS:
                return raw
            if raw is None:
                return _NULL_KEY
        return None

    def inner_column(self, batch) -> Optional[list]:
        """The inner batch's column of :attr:`inner_var` when that is
        the batch's only native column (what a scan of the inner leaf
        hands over), else None: the join then takes the per-pair loop
        for the batch, uncounted here."""
        columns = batch._columns
        if columns is None or len(columns) != 1:
            return None
        return columns.get(self.inner_var)

    def matches(
        self, key: object, column: list, probes: list
    ) -> Optional[List[StoredRecord]]:
        """The records of the inner ``column`` whose key equals
        ``key``, in column order, or None when the column is not all
        stored records with plain-or-null keys.  Counts what the
        per-pair path counts for the whole column: one predicate
        evaluation and two expression evaluations per pair.

        ``probes`` is the calling join's memo slot for this column's
        position in the inner scan: ``[column, key index]`` of the
        column it last held.  A column seen for the first time is
        indexed once (:meth:`_key_index`); every later probe of the
        same list is one dict lookup.  The caller must not mutate the
        returned list."""
        if probes[0] is not column:
            probes[:] = [column, self._key_index(column)]
        index = probes[1]
        if index is None:
            return None
        metrics = self._metrics
        metrics.predicate_evals += len(column)
        metrics.expr_evals += 2 * len(column)
        return index.get(key, [])

    def _key_index(
        self, column: list
    ) -> Optional[Dict[object, List[StoredRecord]]]:
        """``{raw key: [records in column order]}`` of an inner column,
        or None when the column is not all stored records with
        plain-or-null keys.  Null and NaN keys are left out — they
        equal nothing — so a lookup finds exactly the records ``==``
        would (``True``, ``1`` and ``1.0`` share a bucket, as they
        compare equal)."""
        extracted = _stored_attr_column(column, self.inner_attr)
        if extracted is None or not extracted[1] <= _JOIN_COLUMN_KINDS:
            return None
        index: Dict[object, List[StoredRecord]] = {}
        for record, raw in zip(column, extracted[0]):
            if raw is not None and raw == raw:
                bucket = index.get(raw)
                if bucket is None:
                    index[raw] = [record]
                else:
                    bucket.append(record)
        return index


def _conjoin(
    parts: Sequence[Callable[[Binding], bool]]
) -> Callable[[Binding], bool]:
    """The short-circuit conjunction of compiled predicate closures."""
    if len(parts) == 1:
        return parts[0]

    def conjunction(binding: Binding) -> bool:
        for part in parts:
            if not part(binding):
                return False
        return True

    return conjunction


def _stored_attr_column(column, attr):
    """``(raw values, kinds)`` of ``column[i].values[attr]`` when every
    element is a stored record that stores ``attr``; None otherwise (a
    non-record binding, or an attribute some record computes)."""
    if column_kinds(column) != {StoredRecord}:
        return None
    try:
        raws = [record.values[attr] for record in column]
    except KeyError:
        return None
    return raws, column_kinds(raws)


def _product(lists: Sequence[List[object]]):
    if not lists:
        yield ()
        return
    head, rest = lists[0], lists[1:]
    for value in head:
        for suffix in _product(rest):
            yield (value,) + suffix
