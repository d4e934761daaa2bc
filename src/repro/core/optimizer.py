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
  candidates*, optionally re-optimizing each with a randomized strategy
  (granule: the whole query as a PT).

The driver is configurable enough to express the paper's baselines
(:mod:`repro.core.baselines`): disable the cost comparison and always
push (the deductive-DB heuristic), never push (naive), or search
exhaustively.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import OptimizationError, QueryModelError, UnknownEntityError
from repro.core.generate import SPJGenerator
from repro.core.rewrite import rewrite
from repro.core.strategies import (
    IterativeImprovement,
    SearchResult,
    SearchStrategy,
    resolve_strategy,
)
from repro.core.transform import transform_candidates
from repro.core.translate import TranslatedNode, Translator, produced_shape
from repro.cost.cardinality import TupleShape
from repro.cost.model import DetailedCostModel
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

__all__ = ["OptimizerConfig", "OptimizationResult", "Optimizer"]


@dataclass
class OptimizerConfig:
    """Knobs controlling the optimization pipeline.

    ``push_policy`` decides how transformPT treats filter pushes:

    * ``"cost"``   — the paper's approach: compare candidates by cost;
    * ``"always"`` — the deductive-DB heuristic: push whenever
      ``canPush`` holds, without costing;
    * ``"never"``  — never push.
    """

    push_policy: str = "cost"
    reoptimize: bool = True
    #: A :class:`SearchStrategy` instance, or one of the registered
    #: names (:data:`repro.core.strategies.STRATEGY_NAMES`, e.g.
    #: ``"enum"``); names are resolved on construction.
    strategy: Optional[Union[str, SearchStrategy]] = None
    validate_plans: bool = True
    #: Disable DP pruning in generatePT, fully enumerating join orders
    #: ([KZ88]); used by the exhaustive baseline.
    exhaustive_generate: bool = False
    #: Apply the ``fold`` rewriting action (inline non-recursive
    #: single-rule views) before the main rewrite step.
    fold_nonrecursive_views: bool = True

    def __post_init__(self) -> None:
        if self.push_policy not in ("cost", "always", "never"):
            raise OptimizationError(
                f"unknown push policy {self.push_policy!r}"
            )
        if isinstance(self.strategy, str):
            try:
                self.strategy = resolve_strategy(self.strategy)
            except ValueError as exc:
                raise OptimizationError(str(exc)) from None


@dataclass
class OptimizationResult:
    """The chosen plan plus full provenance of the decision."""

    plan: PlanNode
    cost: float
    candidates: List[Tuple[str, float]] = field(default_factory=list)
    plans_costed: int = 0
    rewrite_trace: List[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    #: Search-strategy introspection counters, when the strategy keeps
    #: them (``enum``: subplans memoized, memo hits, pruned branches,
    #: candidates costed, plans expanded).
    strategy_stats: Optional[Dict[str, int]] = None

    def chose_push(self) -> bool:
        """Whether the winning plan has a selection/join inside a Fix."""
        for node in self.plan.walk():
            if isinstance(node, Fix):
                from repro.plans.nodes import EJ, Sel

                for inner in node.body.walk():
                    if isinstance(inner, Sel):
                        return True
        return False


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
        self._strategy = self.config.strategy or IterativeImprovement()
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
        shared by candidates, restarts or fixpoint rounds is estimated
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

        plan, cost, candidates, extra_costed = self._transform_pt(answer_plan)
        plans_costed += extra_costed
        if self.config.validate_plans:
            validate_plan(plan, self.physical)
        elapsed = time.perf_counter() - started
        stats = getattr(self._strategy, "last_stats", None)
        return OptimizationResult(
            plan,
            cost,
            candidates,
            plans_costed,
            trace,
            elapsed,
            stats.to_dict() if stats is not None else None,
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

    def _transform_pt(
        self, plan: PlanNode
    ) -> Tuple[PlanNode, float, List[Tuple[str, float]], int]:
        policy = self.config.push_policy
        tracer = self._tracer
        if (
            policy == "cost"
            and self.config.reoptimize
            and self._strategy.self_contained
        ):
            return self._transform_self_contained(plan)
        costed = 0
        with tracer.span("transformPT", policy=policy) as transform_span:
            candidates = transform_candidates(plan)
            if policy == "never":
                candidates = [candidates[0]]
            elif policy == "always":
                # The deductive heuristic: take the most-pushed candidate
                # (the last fixpoint of filter applications), ignoring cost.
                candidates = [candidates[-1]]
            scored: List[Tuple[str, PlanNode, float]] = []
            for description, candidate in candidates:
                if self.config.reoptimize and policy == "cost":
                    result = self._strategy.search(
                        candidate,
                        lambda p: self.cost_model.cost(p),
                        self.physical,
                        tracer=tracer,
                    )
                    costed += result.plans_costed
                    scored.append((description, result.plan, result.cost))
                else:
                    cost = self.cost_model.cost(candidate)
                    costed += 1
                    scored.append((description, candidate, cost))
                if tracer.enabled:
                    tracer.event(
                        "transformPT.candidate",
                        description=description,
                        cost=scored[-1][2],
                    )
            scored.sort(key=lambda item: item[2])
            best_description, best_plan, best_cost = scored[0]
            if tracer.enabled:
                no_push_cost = next(
                    (c for d, _p, c in scored if d == "original"), None
                )
                push_cost = min(
                    (c for d, _p, c in scored if d != "original"),
                    default=None,
                )
                if no_push_cost is not None and push_cost is not None:
                    # The paper's central decision, made explicit: the
                    # costed no-push plan against the best pushed one.
                    tracer.event(
                        "transformPT.push_comparison",
                        no_push_cost=no_push_cost,
                        push_cost=push_cost,
                        chosen=best_description,
                        chose_push=best_description != "original",
                    )
            transform_span.set(
                chosen=best_description,
                cost=best_cost,
                candidates=len(scored),
                plans_costed=costed,
            )
        summary = [(description, cost) for description, _p, cost in scored]
        return best_plan, best_cost, summary, costed

    def _transform_self_contained(
        self, plan: PlanNode
    ) -> Tuple[PlanNode, float, List[Tuple[str, float]], int]:
        """transformPT for self-contained strategies (``enum``).

        Push-filter is one of the strategy's own moves, so pre-seeding
        it with every ``transform_candidates`` push would enumerate the
        same space once per candidate; one search from the untouched
        plan covers all push positions."""
        tracer = self._tracer
        with tracer.span(
            "transformPT", policy="cost", mode="self-contained"
        ) as transform_span:
            start_cost = self.cost_model.cost(plan)
            result = self._strategy.search(
                plan,
                lambda p: self.cost_model.cost(p),
                self.physical,
                tracer=tracer,
            )
            costed = result.plans_costed
            description = "enumerated" if result.moves_taken else "original"
            if tracer.enabled:
                tracer.event(
                    "transformPT.candidate",
                    description=description,
                    cost=result.cost,
                )
                tracer.event(
                    "transformPT.push_comparison",
                    no_push_cost=start_cost,
                    push_cost=result.cost,
                    chosen=description,
                    chose_push=any(
                        isinstance(inner, Sel)
                        for node in result.plan.walk()
                        if isinstance(node, Fix)
                        for inner in node.body.walk()
                    ),
                )
            attrs = dict(
                chosen=description,
                cost=result.cost,
                candidates=1,
                plans_costed=costed,
            )
            stats = getattr(self._strategy, "last_stats", None)
            if stats is not None:
                attrs.update(stats.to_dict())
            transform_span.set(**attrs)
        summary = [("original", start_cost)]
        if description != "original":
            summary.append((description, result.cost))
        return result.plan, result.cost, summary, costed


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
