"""The simplified cost model of Section 4.6 and the Figure 7 machinery.

The paper's comprehensive example computes plan costs under simplifying
assumptions::

    access_cost(Ci, P) = |Ci| * pr      eval_cost(Ci, P) = ev
    access_cost(Ci)    = |Ci| * pr      nbtuples(Ci, P)  = ||Ci||
    access_cost(Ci,Cj) = pr             nbpages(Ci, P)   = |Ci|
    nbleaves(index)    = lea            nblevels(index)  = lev

i.e. no access structure other than path indices, sub-objects not
clustered near owners, no materialization of node results, and no
selectivity discounts.  Under these assumptions every pipelined
operator's cost is a closed formula over its input's page/tuple counts,
which is exactly how Figure 7 presents the two plans: one row ``T_k``
per operation, each a polynomial over ``pr``, ``ev``, ``lea``, ``lev``
and the sizes ``|T_j|``/``||T_j||``.

:class:`SimplifiedCostModel` produces that table symbolically (rows of
:class:`~repro.cost.symbolic.Sym`) and evaluates it numerically under
any size assignment — e.g. sizes estimated by the cardinality model, or
sizes *measured* by actually running the plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import CostModelError
from repro.cost.cardinality import CardinalityEstimator, TupleShape
from repro.cost.params import SimplifiedParameters
from repro.cost.symbolic import Number, Sym, sym
from repro.physical.schema import PhysicalSchema
from repro.plans.nodes import (
    EJ,
    HASH_JOIN,
    IJ,
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

__all__ = ["CostRow", "SimplifiedCostModel", "Size"]

Value = Union[float, Sym]


@dataclass
class Size:
    """Page and tuple counts of a stream (numbers or symbols)."""

    pages: Value
    tuples: Value


@dataclass
class CostRow:
    """One row of a Figure 7-style cost table.

    ``section`` is ``"main"`` for top-level pipeline operations,
    ``"fix-base"``/``"fix-rec"`` for operations inside a fixpoint body
    (Figure 7 lists those as separate rows, e.g. T7–T13, and the Fix
    row then combines them: ``cost(Exp(T...)) + (n-1)*cost(Exp(Inf_i))``).
    Only ``"main"`` rows enter the plan total — the Fix row already
    accounts for its body across all iterations."""

    label: str
    operator: str
    formula: Value
    section: str = "main"

    def __repr__(self) -> str:  # pragma: no cover - convenience
        return f"{self.label}: {self.formula!r}  [{self.operator}]"


class SimplifiedCostModel:
    """Figure 5 under the Section 4.6 assumptions.

    * :meth:`table` — the per-operation cost table of a plan with
      symbolic or numeric sizes (Figure 7's two halves are ``table`` of
      the Figure 4(i) and 4(ii) plans).
    * :meth:`cost` — a numeric total using cardinality-model sizes.
    """

    def __init__(
        self,
        physical: PhysicalSchema,
        params: Optional[SimplifiedParameters] = None,
        identity_sizes: bool = False,
    ) -> None:
        """``identity_sizes=True`` selects the paper's sketch-level size
        discipline for numeric tables: every operator's output size
        equals its input size (``nbtuples(Ci, P) = ||Ci||``,
        ``nbpages(Ci, P) = |Ci|``) and fixpoint deltas stay at the base
        size for every iteration.  ``False`` (default) propagates sizes
        through the cardinality estimator."""
        self.physical = physical
        self.params = params or SimplifiedParameters()
        self.identity_sizes = identity_sizes
        self.estimator = CardinalityEstimator(physical)

    # -- numeric total -----------------------------------------------------------

    def cost(self, plan: PlanNode, delta_env=None) -> float:
        """Numeric plan total under the simplified unit formulas."""
        rows = self.table(plan, symbolic=False, delta_env=delta_env)
        total = self.total(rows)
        if isinstance(total, Sym):
            raise CostModelError("numeric table produced a symbol")
        return float(total)

    # -- table construction ---------------------------------------------------------

    def table(
        self,
        plan: PlanNode,
        symbolic: bool = True,
        entity_abbreviations: Optional[Dict[str, str]] = None,
        size_assignment: Optional[Dict[str, Number]] = None,
        delta_env=None,
    ) -> List[CostRow]:
        """Build the per-operation cost table of a plan.

        With ``symbolic=True`` sizes of intermediates appear as
        ``|Tk|`` / ``||Tk||`` symbols and entity sizes as
        ``|Cpr|``-style symbols (abbreviations taken from
        ``entity_abbreviations``, defaulting to the entity name).  With
        ``symbolic=False`` every size is a number from the cardinality
        model.  ``size_assignment`` optionally substitutes numbers for
        any symbols at the end (partial evaluation)."""
        builder = _TableBuilder(
            self, symbolic, entity_abbreviations or {}
        )
        env: Dict[str, Size] = {}
        for name, (tuples, _shape) in (delta_env or {}).items():
            env[name] = Size(_pages_of(tuples), tuples)
        builder.visit(plan, env)
        rows = builder.rows
        if size_assignment:
            evaluated: List[CostRow] = []
            for row in rows:
                formula = row.formula
                if isinstance(formula, Sym):
                    try:
                        formula = formula.evaluate(
                            {**self._unit_assignment(), **size_assignment}
                        )
                    except KeyError:
                        pass
                evaluated.append(CostRow(row.label, row.operator, formula))
            rows = evaluated
        return rows

    def total(self, rows: List[CostRow]) -> Value:
        """Plan total: the sum of main-section rows (fixpoint-internal
        rows are already folded into their Fix row)."""
        result: Value = 0.0
        for row in rows:
            if row.section == "main":
                result = row.formula + result
        return result

    def _unit_assignment(self) -> Dict[str, Number]:
        return {
            "pr": self.params.pr,
            "ev": self.params.ev,
            "lea": self.params.lea,
            "lev": self.params.lev,
        }

    # -- units -----------------------------------------------------------------------

    def units(self, symbolic: bool) -> Tuple[Value, Value, Value, Value]:
        """The four Section 4.6 constants, as symbols or numbers."""
        if symbolic:
            return sym("pr"), sym("ev"), sym("lea"), sym("lev")
        return (
            self.params.pr,
            self.params.ev,
            self.params.lea,
            self.params.lev,
        )


class _TableBuilder:
    """Post-order walk assigning T-labels and emitting cost rows."""

    def __init__(
        self,
        model: SimplifiedCostModel,
        symbolic: bool,
        abbreviations: Dict[str, str],
    ) -> None:
        self.model = model
        self.symbolic = symbolic
        self.abbreviations = abbreviations
        self.rows: List[CostRow] = []
        self._counter = 0
        self._section = "main"
        self.pr, self.ev, self.lea, self.lev = model.units(symbolic)

    # -- helpers -----------------------------------------------------------------

    def _abbrev(self, entity: str) -> str:
        if entity in self.abbreviations:
            return self.abbreviations[entity]
        conceptual = None
        if self.model.physical.has_entity(entity):
            conceptual = self.model.physical.entity(entity).conceptual_name
        if conceptual and conceptual in self.abbreviations:
            return self.abbreviations[conceptual]
        return conceptual or entity

    def _entity_size(self, entity: str) -> Size:
        if self.symbolic:
            name = self._abbrev(entity)
            return Size(sym(f"|{name}|"), sym(f"||{name}||"))
        stats = self.model.physical.statistics
        if self.model.physical.has_entity(entity):
            return Size(
                float(max(1, stats.pages(entity))),
                float(stats.instances(entity)),
            )
        return Size(1.0, 0.0)

    def _next_label(self) -> str:
        self._counter += 1
        return f"T{self._counter}"

    def _emit(self, operator: str, formula: Value, tuples: Value) -> Tuple[str, Size]:
        label = self._next_label()
        self.rows.append(CostRow(label, operator, formula, self._section))
        if self.symbolic:
            size = Size(sym(f"|{label}|"), sym(f"||{label}||"))
        else:
            pages = _pages_of(tuples)
            size = Size(pages, tuples)
        return label, size

    # -- visitation ----------------------------------------------------------------

    def visit(
        self, node: PlanNode, env: Dict[str, Size]
    ) -> Size:
        """Emit rows for the subtree; return the node's output size."""
        if isinstance(node, (EntityLeaf, TempLeaf)):
            return self._entity_size(node.entity)
        if isinstance(node, RecLeaf):
            if node.name not in env:
                raise CostModelError(
                    f"recursion reference {node.name!r} outside its Fix"
                )
            return env[node.name]
        if isinstance(node, Sel):
            input_size = self.visit(node.child, env)
            formula = input_size.pages * (self.pr + self.ev)
            tuples = self._filtered_tuples(node, input_size, env)
            _label, size = self._emit(f"Sel[{node.predicate!r}]", formula, tuples)
            return size
        if isinstance(node, Proj):
            # Projections are abstracted in the paper's notation; a
            # pipelined projection costs nothing under the simplified
            # model (no materialization).  But when the projection is
            # the *only* operator over a scanned source, someone must
            # pay for reading it — emit the scan row here.
            if isinstance(node.child, (EntityLeaf, TempLeaf, RecLeaf)):
                input_size = self._operand_size(node.child, env)
                formula = input_size.pages * self.pr
                _label, size = self._emit(
                    f"Scan[{node.child.label()}]", formula, input_size.tuples
                )
                return size
            return self.visit(node.child, env)
        if isinstance(node, IJ):
            input_size = self.visit(node.child, env)
            formula = input_size.pages * self.pr + input_size.tuples * self.pr
            tuples = self._scaled_tuples(node, input_size, env)
            _label, size = self._emit(f"IJ[{node.source.dotted()}]", formula, tuples)
            return size
        if isinstance(node, PIJ):
            input_size = self.visit(node.child, env)
            index = self.model.physical.find_path_index(node.attributes)
            if index is None:
                raise CostModelError(
                    f"no path index on {node.path_name!r}"
                )
            root_size = self._entity_size(index.root_entity)
            # ||X|| * (lev + lea / ||C1||): with symbolic sizes the
            # division is kept as a dedicated symbol to stay in the
            # Sym ring (Figure 7 prints it exactly like this).
            if self.symbolic:
                per_lookup = self.lev + sym(
                    f"lea/||{self._abbrev(index.root_entity)}||"
                )
            else:
                heads = root_size.tuples if root_size.tuples else 1.0
                per_lookup = self.lev + self.lea / max(1.0, heads)
            formula = input_size.tuples * per_lookup
            tuples = self._scaled_tuples(node, input_size, env)
            _label, size = self._emit(f"PIJ[{node.path_name}]", formula, tuples)
            return size
        if isinstance(node, EJ):
            left_size = self.visit(node.left, env)
            right_size = self._operand_size(node.right, env)
            if node.algorithm == HASH_JOIN:
                # The inner is read once per open; every pair is
                # still judged.
                formula = (
                    left_size.pages * self.pr
                    + right_size.pages * self.pr
                    + left_size.tuples * right_size.pages * self.ev
                )
            else:
                formula = left_size.pages * self.pr + left_size.tuples * (
                    right_size.pages * (self.pr + self.ev)
                )
            tuples = self._join_tuples(node, left_size, right_size, env)
            _label, size = self._emit(f"EJ[{node.predicate!r}]", formula, tuples)
            return size
        if isinstance(node, UnionOp):
            left_size = self.visit(node.left, env)
            right_size = self.visit(node.right, env)
            return Size(
                left_size.pages + right_size.pages,
                left_size.tuples + right_size.tuples,
            )
        if isinstance(node, Fix):
            return self._visit_fix(node, env)
        if isinstance(node, Materialize):
            input_size = self.visit(node.child, env)
            formula = input_size.pages * self.pr
            _label, size = self._emit(
                f"Mat[{node.name}]", formula, input_size.tuples
            )
            return size
        raise CostModelError(f"cannot cost node {type(node).__name__}")

    def _operand_size(self, node: PlanNode, env: Dict[str, Size]) -> Size:
        """Size of an EJ inner operand.

        A bare entity (or recursion reference) contributes its size
        without a row of its own — its access cost is embedded in the
        EJ formula, as in Figure 7's T1/T13 rows.  A composite inner
        operand is visited normally (it gets its own rows) and its
        output size feeds the join formula."""
        if isinstance(node, (EntityLeaf, TempLeaf)):
            return self._entity_size(node.entity)
        if isinstance(node, RecLeaf):
            if node.name not in env:
                raise CostModelError(
                    f"recursion reference {node.name!r} outside its Fix"
                )
            return env[node.name]
        return self.visit(node, env)

    def _visit_fix(self, node: Fix, env: Dict[str, Size]) -> Size:
        from repro.engine.fixpoint import partition_parts

        base_parts, recursive_parts = partition_parts(node)

        outer_section = self._section
        base_total: Value = 0.0
        base_tuples: Value = 0.0
        base_pages: Value = 0.0
        self._section = "fix-base"
        for part in base_parts:
            mark = len(self.rows)
            part_size = self.visit(part, env)
            base_tuples = base_tuples + part_size.tuples
            base_pages = base_pages + part_size.pages
            for row in self.rows[mark:]:
                base_total = base_total + row.formula

        inner = dict(env)
        if self.symbolic:
            delta_name = f"{self._abbrev_fix(node)}_i"
            inner[node.name] = Size(
                sym(f"|{delta_name}|"), sym(f"||{delta_name}||")
            )
        elif self.model.identity_sizes:
            # Sketch discipline: the delta keeps the base size forever.
            inner[node.name] = Size(base_pages, base_tuples)
        else:
            estimate = self.model.estimator.estimate(node)
            deltas = estimate.deltas or [0.0]
            mean_delta = sum(deltas) / len(deltas)
            inner[node.name] = Size(_pages_of(mean_delta), mean_delta)

        recursive_total: Value = 0.0
        self._section = "fix-rec"
        for part in recursive_parts:
            mark = len(self.rows)
            self.visit(part, inner)
            for row in self.rows[mark:]:
                recursive_total = recursive_total + row.formula
        self._section = outer_section

        if self.symbolic:
            iterations = sym(f"n_{self._fix_ordinal()}")
            formula = base_total + (iterations - 1) * recursive_total
            tuples: Value = sym(f"||{self._abbrev_fix(node)}||")
        else:
            if self.model.identity_sizes:
                iterations_n, _decays = self.model.estimator._iteration_schedule(
                    node
                )
                iterations_n = max(1, iterations_n)
                tuples = _as_number(base_tuples) * iterations_n
            else:
                estimate = self.model.estimator.estimate(node)
                iterations_n = max(1, len(estimate.deltas or [1]))
                tuples = estimate.tuples
            formula = base_total + (iterations_n - 1) * recursive_total
        _label, size = self._emit(f"Fix[{node.name}]", formula, tuples)
        return size

    _fix_count = 0

    def _fix_ordinal(self) -> int:
        self._fix_count += 1
        return self._fix_count

    def _abbrev_fix(self, node: Fix) -> str:
        return self.abbreviations.get(node.name, node.name)

    # -- numeric cardinalities ---------------------------------------------------------

    def _filtered_tuples(
        self, node: Sel, input_size: Size, env: Dict[str, Size]
    ) -> Value:
        if self.symbolic or self.model.identity_sizes:
            return input_size.tuples
        varmap = self._varmap(node.child, env)
        selectivity = self.model.estimator.predicate_selectivity(
            node.predicate, varmap
        )
        return _as_number(input_size.tuples) * selectivity

    def _scaled_tuples(self, node, input_size: Size, env: Dict[str, Size]) -> Value:
        if self.symbolic or self.model.identity_sizes:
            return input_size.tuples
        if isinstance(node, IJ):
            varmap = self._varmap(node.child, env)
            fanout = self.model.estimator.path_fanout(node.source, varmap)
            return _as_number(input_size.tuples) * fanout
        if isinstance(node, PIJ):
            index = self.model.physical.find_path_index(node.attributes)
            stats = self.model.physical.statistics
            heads = max(1, stats.instances(index.root_entity)) if index else 1
            per_head = (index.entry_count / heads) if index else 1.0
            return _as_number(input_size.tuples) * per_head
        return input_size.tuples

    def _join_tuples(
        self, node: EJ, left: Size, right: Size, env: Dict[str, Size]
    ) -> Value:
        if self.symbolic or self.model.identity_sizes:
            return left.tuples
        left_varmap = self._varmap(node.left, env)
        right_varmap = self._varmap(node.right, env)
        selectivity = self.model.estimator.predicate_selectivity(
            node.predicate, {**left_varmap, **right_varmap}
        )
        return (
            _as_number(left.tuples) * _as_number(right.tuples) * selectivity
        )

    def _varmap(self, node: PlanNode, env: Dict[str, Size]):
        """The estimator's per-variable shapes under ``node``, or ``{}``
        (default selectivities) when the estimator refuses the subtree
        with its own typed error — e.g. a recursion reference whose
        size this table only knows symbolically."""
        delta_env = {
            name: (_as_number(size.tuples), TupleShape())
            for name, size in env.items()
            if not isinstance(size.tuples, Sym)
        }
        try:
            return self.model.estimator.estimate(node, delta_env).varmap
        except CostModelError:
            return {}


def _pages_of(tuples: Value, records_per_page: int = 20) -> Value:
    if isinstance(tuples, Sym):
        return tuples
    return max(1.0, float(tuples) / records_per_page)


def _as_number(value: Value) -> float:
    if isinstance(value, Sym):
        raise CostModelError("expected a numeric size")
    return float(value)
