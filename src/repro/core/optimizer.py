"""The optimizer driver: ``optimize(Q)`` (Section 4.1).

Runs the paper's four successive steps::

    optimize(Q)
    { rewrite(Q);
      for each (N, tree) of Q                      translate(N, tree);
      for each SPJ(In, pred, out) of Q | isaPT(In) generatePT(...);
      repeat transformPT(Q) until saturation; }

* **rewrite** — irrevocable; makes Union/Fix explicit (granule: the
  whole query graph);
* **translate** — cost-based; conceptual entities → atomic physical
  entities, paths → implicit-join hops (granule: one arc);
* **generatePT** — cost-based, generative; one optimal PT per
  predicate node, built bottom-up so every input is already a PT
  (granule: one predicate node);
* **transformPT** — cost-based, transformational; decides the position
  of selective operations w.r.t. recursion by *comparing costed
  plans*: one memoized search of the move graph
  (:class:`~repro.core.enumerate.MemoizedEnumeration`), in which a
  push through recursion is one move among the join-order and
  operator-order ones (granule: the whole query as a PT).

The driver is configurable enough to express the paper's baselines
(:mod:`repro.core.baselines`): disable the cost comparison and always
push (the deductive-DB heuristic), never push (naive), or search
exhaustively.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import OptimizationError, QueryModelError, UnknownEntityError
from repro.core.generate import SPJGenerator

# After generate, which loads the cost package (and the engine behind
# it) before the move graph's own engine imports run.
from repro.core.enumerate import MemoizedEnumeration, SearchStrategy
from repro.core.rewrite import rewrite
from repro.core.transform import transform_candidates
from repro.core.translate import TranslatedNode, Translator, produced_shape
from repro.cost.cardinality import TupleShape
from repro.cost.model import DetailedCostModel
from repro.engine.context import validate_choice
from repro.obs.trace import NULL_TRACER
from repro.physical.schema import PhysicalSchema
from repro.plans.nodes import (
    EntityLeaf,
    Fix,
    Materialize,
    PlanNode,
    RecLeaf,
    Sel,
    UnionOp,
)
from repro.plans.validate import validate_plan
from repro.querygraph.graph import FixNode, QueryGraph, SPJNode, UnionNode
from repro.querygraph.predicates import Comparison, PathRef, conjuncts
from repro.querygraph.views import RecursionInfo, analyze_recursion

__all__ = ["PUSH_POLICIES", "OptimizerConfig", "OptimizationResult", "Optimizer"]

#: The values of :attr:`OptimizerConfig.push_policy`.
PUSH_POLICIES = ("cost", "always", "never")


@dataclass
class OptimizerConfig:
    """Knobs controlling the optimization pipeline.

    ``push_policy`` decides how transformPT treats filter pushes:

    * ``"cost"``   — the paper's approach: compare plans by cost;
    * ``"always"`` — the deductive-DB heuristic: push whenever
      ``canPush`` holds, without costing;
    * ``"never"``  — never push.
    """

    push_policy: str = "cost"
    #: The transformPT search; ``None`` builds the memoized enumerator.
    #: An instance is injected by the [KZ88] baseline
    #: (:func:`repro.core.baselines.exhaustive_optimizer`) and by
    #: benchmarks that pit other searches against it.
    strategy: Optional[SearchStrategy] = None
    validate_plans: bool = True
    #: Disable DP pruning in generatePT, fully enumerating join orders
    #: ([KZ88]); used by the exhaustive baseline.
    exhaustive_generate: bool = False
    #: Apply the ``fold`` rewriting action (inline non-recursive
    #: single-rule views) before the main rewrite step.
    fold_nonrecursive_views: bool = True

    def __post_init__(self) -> None:
        try:
            # Unlike an unset knob, a missing policy has no default.
            validate_choice("push_policy", self.push_policy or "", PUSH_POLICIES)
        except ValueError as exc:
            raise OptimizationError(str(exc)) from None
        if self.strategy is not None and not isinstance(
            self.strategy, SearchStrategy
        ):
            raise OptimizationError(
                "strategy must be a SearchStrategy instance"
            )


@dataclass
class OptimizationResult:
    """The chosen plan plus full provenance of the decision."""

    plan: PlanNode
    cost: float
    candidates: List[Tuple[str, float]] = field(default_factory=list)
    plans_costed: int = 0
    rewrite_trace: List[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    #: The transformPT search's counters (subplans memoized, memo
    #: hits, pruned branches, candidates costed, plans expanded) when
    #: the search ran and keeps them.
    strategy_stats: Optional[Dict[str, int]] = None

    def chose_push(self) -> bool:
        """Whether the winning plan has a selection/join inside a Fix."""
        return _pushed_through_recursion(self.plan)


class Optimizer:
    """Cost-controlled optimizer for object-oriented recursive queries."""

    def __init__(
        self,
        physical: PhysicalSchema,
        cost_model=None,
        config: Optional[OptimizerConfig] = None,
    ) -> None:
        self.physical = physical
        self.cost_model = cost_model or DetailedCostModel(physical)
        self.config = config or OptimizerConfig()
        self._strategy = self.config.strategy or MemoizedEnumeration()
        self._tracer = NULL_TRACER

    # -- public API --------------------------------------------------------------

    def optimize(self, graph: QueryGraph, tracer=None) -> OptimizationResult:
        """Run the four optimization steps on a query graph and return
        the chosen plan with its cost and decision provenance.

        ``tracer`` (a :class:`repro.obs.trace.Tracer`) records one span
        per step — ``rewrite``, ``generatePT`` per produced name,
        ``transformPT`` — with per-arc ``translate.arc`` events and one
        ``transformPT.candidate`` / ``transformPT.push_comparison``
        event per costed alternative.

        Every plan and subplan the steps cost is costed inside one memo
        scope of the cost model (when the model has one), so a subplan
        shared by candidates or fixpoint rounds is estimated
        and costed once; the memo is dropped when this call returns or
        raises."""
        self._tracer = tracer if tracer is not None else NULL_TRACER
        memo_scope = getattr(self.cost_model, "memo_scope", nullcontext)
        try:
            with memo_scope():
                return self._optimize(graph)
        finally:
            self._tracer = NULL_TRACER

    def _optimize(self, graph: QueryGraph) -> OptimizationResult:
        started = time.perf_counter()
        trace: List[str] = []
        with self._tracer.span("rewrite") as rewrite_span:
            if self.config.fold_nonrecursive_views:
                from repro.core.fold import fold_views

                graph = fold_views(graph, trace)
            rewritten = rewrite(graph, trace)
            rewrite_span.set(actions=len(trace))
        shapes = self._produced_shapes(rewritten)
        translator = Translator(self.physical, shapes)
        generator = SPJGenerator(
            self.physical,
            self.cost_model,
            prune=not self.config.exhaustive_generate,
        )

        plans_costed = 0
        producer_plans: Dict[str, PlanNode] = {}
        order = rewritten.stratification_order()
        for name in order:
            if name == rewritten.answer:
                continue
            with self._tracer.span("generatePT", node=name) as gen_span:
                plan, costed = self._plan_for_name(
                    rewritten, name, translator, generator, producer_plans,
                    shapes,
                )
                gen_span.set(plans_costed=costed)
            producer_plans[name] = plan
            plans_costed += costed

        answer_rules = rewritten.producers_of(rewritten.answer)
        answer_parts: List[SPJNode] = []
        for answer_rule in answer_rules:
            answer_parts.extend(_spj_parts(answer_rule.node))
        if not answer_parts:
            raise OptimizationError("no predicate node produces the answer")
        part_plans: List[PlanNode] = []
        with self._tracer.span(
            "generatePT", node=rewritten.answer
        ) as gen_span:
            answer_costed = 0
            for answer_node in answer_parts:
                translated = self._translate(translator, answer_node)
                sources = self._sources_for(translated, producer_plans)
                generated = generator.generate(translated, sources)
                part_plans.append(generated.plan)
                answer_costed += generated.candidates_considered
            gen_span.set(plans_costed=answer_costed)
        plans_costed += answer_costed
        answer_plan = part_plans[0]
        for part_plan in part_plans[1:]:
            answer_plan = UnionOp(answer_plan, part_plan)

        plan, cost, candidates, extra_costed, stats = self._transform_pt(
            answer_plan
        )
        plans_costed += extra_costed
        if self.config.validate_plans:
            validate_plan(plan, self.physical)
        elapsed = time.perf_counter() - started
        return OptimizationResult(
            plan, cost, candidates, plans_costed, trace, elapsed, stats
        )

    def _translate(self, translator: Translator, part: SPJNode) -> TranslatedNode:
        """translate() one predicate node, tracing each arc's mapping."""
        translated = translator.translate_node(part)
        tracer = self._tracer
        if tracer.enabled:
            for arc in translated.arcs:
                tracer.event(
                    "translate.arc",
                    arc=arc.name,
                    entity=arc.entity,
                    var=arc.root_var,
                )
        return translated

    # -- produced names ------------------------------------------------------------

    def _produced_shapes(
        self, graph: QueryGraph
    ) -> Dict[str, Dict[str, Optional[str]]]:
        catalog = self.physical.catalog
        if catalog is None:
            raise OptimizationError("optimization requires a catalog")
        shapes: Dict[str, Dict[str, Optional[str]]] = {}
        produced = set(graph.produced_names())
        for name in graph.stratification_order():
            rules = graph.producers_of(name)
            if not rules:
                continue
            parts = _spj_parts(rules[0].node)
            first = parts[0]
            arc_classes: Dict[str, Optional[str]] = {}
            for arc in first.inputs:
                for binding in arc.tree.bindings():
                    if binding.path:
                        continue
                    if arc.name in shapes or arc.name in produced:
                        # Views and (self-)recursive inputs have tuple
                        # shape; field classes resolve via `shapes`.
                        arc_classes[binding.variable] = None
                    else:
                        info = self.physical.primary_entity(arc.name)
                        arc_classes[binding.variable] = info.conceptual_name
            shapes[name] = produced_shape(
                first.output, catalog, arc_classes, shapes
            )
        return shapes

    def _plan_for_name(
        self,
        graph: QueryGraph,
        name: str,
        translator: Translator,
        generator: SPJGenerator,
        producer_plans: Dict[str, PlanNode],
        shapes: Dict[str, Dict[str, Optional[str]]],
    ) -> Tuple[PlanNode, int]:
        rules = graph.producers_of(name)
        if len(rules) != 1:
            raise OptimizationError(
                f"{name!r} has {len(rules)} rules after rewriting"
            )
        node = rules[0].node
        if isinstance(node, FixNode):
            return self._plan_for_fix(
                graph, name, translator, generator, producer_plans,
                shapes.get(name, {}),
            )
        if graph.is_recursive_name(name):
            # Recursive but not recognized as fixpoint recursion:
            # surface the precise reason (non-linear, no base part...).
            analyze_recursion(graph, name)  # raises QueryModelError
            raise OptimizationError(
                f"{name!r} is recursive but not computable as a fixpoint"
            )
        parts = _spj_parts(node)
        costed = 0
        part_plans: List[PlanNode] = []
        for part in parts:
            translated = self._translate(translator, part)
            sources = self._sources_for(translated, producer_plans)
            generated = generator.generate(translated, sources)
            part_plans.append(generated.plan)
            costed += generated.candidates_considered
        if len(part_plans) == 1:
            body = part_plans[0]
        else:
            body = part_plans[0]
            for part_plan in part_plans[1:]:
                body = UnionOp(body, part_plan)
        out_var = translator.fresh_var(name[:3].lower())
        return Materialize(name, body, out_var), costed

    def _plan_for_fix(
        self,
        graph: QueryGraph,
        name: str,
        translator: Translator,
        generator: SPJGenerator,
        producer_plans: Dict[str, PlanNode],
        shape_fields: Dict[str, Optional[str]],
    ) -> Tuple[PlanNode, int]:
        info = analyze_recursion(graph, name)
        if info is None:
            raise OptimizationError(f"Fix({name}) is not recursive")
        costed = 0
        base_plans: List[PlanNode] = []
        for part in info.base_parts:
            translated = self._translate(translator, part)
            sources = self._sources_for(translated, producer_plans)
            generated = generator.generate(translated, sources)
            base_plans.append(generated.plan)
            costed += generated.candidates_considered
        # Estimate the base output size to cost the recursive parts'
        # delta input.
        base_tuples = 0.0
        for base_plan in base_plans:
            base_tuples += self.cost_model.estimator.estimate(
                base_plan
            ).tuples
        shape = TupleShape(dict(shape_fields))
        delta_env = {name: (max(base_tuples, 1.0), shape)}

        recursive_plans: List[PlanNode] = []
        for part, rec_var in zip(info.recursive_parts, info.recursive_variables):
            translated = self._translate(translator, part)
            sources = self._sources_for(
                translated, producer_plans, rec_name=name
            )
            generated = generator.generate(
                translated, sources, delta_env=delta_env
            )
            recursive_plans.append(generated.plan)
            costed += generated.candidates_considered
        body: PlanNode = base_plans[0]
        for plan in base_plans[1:] + recursive_plans:
            body = UnionOp(body, plan)
        entity_hint, attribute_hint = self._recursion_hint(info)
        out_var = translator.fresh_var(name[:3].lower())
        fix = Fix(
            name,
            body,
            out_var,
            entity_hint,
            attribute_hint,
            set(info.invariant_fields),
        )
        return fix, costed

    def _recursion_hint(
        self, info: RecursionInfo
    ) -> Tuple[Optional[str], Optional[str]]:
        """The stored attribute the recursion advances along.

        Heuristic: in a recursive part, an equality between a field of
        the recursive input and a path ``x.a`` on a base-class arc
        means the closure chases ``a`` chains of that class."""
        for part, rec_var in zip(info.recursive_parts, info.recursive_variables):
            for conjunct in conjuncts(part.predicate):
                if not isinstance(conjunct, Comparison) or conjunct.op != "=":
                    continue
                for this, other in (
                    (conjunct.left, conjunct.right),
                    (conjunct.right, conjunct.left),
                ):
                    if not (
                        isinstance(this, PathRef) and this.var == rec_var
                    ):
                        continue
                    if not (
                        isinstance(other, PathRef) and len(other.attrs) == 1
                    ):
                        continue
                    try:
                        arc = part.binding_arc(other.var)
                    except QueryModelError:
                        continue
                    if arc.name == info.name:
                        continue
                    try:
                        entity = self.physical.primary_entity(arc.name).name
                    except UnknownEntityError:
                        continue
                    return entity, other.attrs[0]
        return None, None

    def _sources_for(
        self,
        translated: TranslatedNode,
        producer_plans: Dict[str, PlanNode],
        rec_name: Optional[str] = None,
    ) -> List[PlanNode]:
        sources: List[PlanNode] = []
        for arc in translated.arcs:
            if rec_name is not None and arc.name == rec_name:
                sources.append(RecLeaf(rec_name, arc.root_var))
            elif arc.name in producer_plans:
                sources.append(
                    _rebind(producer_plans[arc.name], arc.root_var)
                )
            else:
                if arc.entity is None:
                    raise OptimizationError(
                        f"no plan and no extent for {arc.name!r}"
                    )
                sources.append(EntityLeaf(arc.entity, arc.root_var))
        return sources

    # -- transformPT -------------------------------------------------------------------

    def _transform_pt(self, plan: PlanNode) -> Tuple[
        PlanNode, float, List[Tuple[str, float]], int, Optional[Dict[str, int]]
    ]:
        """Decide the pushes; returns the plan, its cost, the costed
        alternatives (cheapest first), the plans costed and the
        search's counters (``None`` when no search ran)."""
        policy = self.config.push_policy
        if policy == "cost":
            return self._search(plan)
        with self._tracer.span("transformPT", policy=policy) as transform_span:
            description = "original"
            if policy == "always":
                # The deductive heuristic: take the most-pushed candidate
                # (the last fixpoint of filter applications), ignoring cost.
                description, plan = transform_candidates(plan)[-1]
            cost = self.cost_model.cost(plan)
            if self._tracer.enabled:
                self._tracer.event(
                    "transformPT.candidate", description=description, cost=cost
                )
            transform_span.set(
                chosen=description, cost=cost, candidates=1, plans_costed=1
            )
        return plan, cost, [(description, cost)], 1, None

    def _search(self, plan: PlanNode) -> Tuple[
        PlanNode, float, List[Tuple[str, float]], int, Optional[Dict[str, int]]
    ]:
        """transformPT under the cost policy: one search of the move
        graph from the unpushed plan.  Push-filter is one of the
        search's moves, so this one run covers every push position."""
        tracer = self._tracer
        with tracer.span("transformPT", policy="cost") as transform_span:
            start_cost = self.cost_model.cost(plan)
            result = self._strategy.search(
                plan, self.cost_model.cost, self.physical, tracer=tracer
            )
            summary = [("original", start_cost)]
            if result.moves_taken:
                summary.insert(0, ("enumerated", result.cost))
            description = summary[0][0]
            if tracer.enabled:
                for name, cost in summary:
                    tracer.event(
                        "transformPT.candidate", description=name, cost=cost
                    )
                tracer.event(
                    "transformPT.push_comparison",
                    no_push_cost=start_cost,
                    push_cost=result.cost,
                    chosen=description,
                    chose_push=_pushed_through_recursion(result.plan),
                )
            stats = getattr(self._strategy, "last_stats", None)
            stats = stats.to_dict() if stats is not None else None
            transform_span.set(
                chosen=description,
                cost=result.cost,
                candidates=len(summary),
                plans_costed=result.plans_costed,
                **(stats or {}),
            )
        return result.plan, result.cost, summary, result.plans_costed, stats


def _pushed_through_recursion(plan: PlanNode) -> bool:
    """Whether a selection (a pushed filter or join predicate) sits
    inside some Fix body of ``plan``."""
    return any(
        isinstance(inner, Sel)
        for node in plan.walk()
        if isinstance(node, Fix)
        for inner in node.body.walk()
    )


def _spj_parts(node) -> List[SPJNode]:
    if isinstance(node, SPJNode):
        return [node]
    if isinstance(node, UnionNode):
        parts: List[SPJNode] = []
        for part in node.parts:
            parts.extend(_spj_parts(part))
        return parts
    if isinstance(node, FixNode):
        return _spj_parts(node.body)
    raise OptimizationError(f"unexpected node {node!r}")


def _rebind(plan: PlanNode, var: str) -> PlanNode:
    """Rebind a producer plan's output variable to a consumer's root
    variable (Fix and Materialize expose a single out_var)."""
    if isinstance(plan, Fix):
        return Fix(
            plan.name,
            plan.body,
            var,
            plan.recursion_entity,
            plan.recursion_attribute,
            set(plan.invariant_fields),
        )
    if isinstance(plan, Materialize):
        return Materialize(plan.name, plan.child, var)
    raise OptimizationError(
        f"cannot rebind producer plan rooted at {plan.label()}"
    )
