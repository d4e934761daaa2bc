"""The ``generatePT`` optimization step (Section 4.4).

Optimizes one predicate node — an SPJ over translated arcs — with a
*generative* strategy: candidate PTs are built bottom-up from the
atomic entities ([Se79]) and compared by cost.

Actions realized here (the paper's ``sel`` and ``join``, plus
``collapse`` from Section 4.3):

* ``sel`` — selection conjuncts are applied as soon as their variables
  are bound ("As action sel is applied before join, Sel nodes are
  generated as soon as possible, according to the relational heuristics
  of pushing selection through join");
* ``join`` — arcs are combined by explicit joins only when a join
  predicate connects them (no Cartesian products); a scanning join
  (hash when the predicate has an equality key, else nested loop) and,
  when applicable, an index join are generated;
* ``collapse`` — consecutive implicit-join hops backed by a path index
  become a ``PIJ`` node; both the collapsed and the plain variants are
  costed.

Beyond the paper's sketch we also generate *eager* vs *deferred*
placements of hop chains that no join predicate needs: dereferencing a
path before or after the joins can differ by orders of magnitude, and
only the cost model can tell (this is the LVZC91 "any interleaving"
capability the paper builds on).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.errors import OptimizationError
from repro.core.translate import Hop, TranslatedArc, TranslatedNode
from repro.cost.cardinality import TupleShape
from repro.physical.schema import PhysicalSchema
from repro.plans.nodes import (
    EJ,
    IJ,
    INDEX_JOIN,
    PIJ,
    EntityLeaf,
    PlanNode,
    Proj,
    Sel,
)
from repro.plans.patterns import index_join_possible, scan_join_algorithm
from repro.querygraph.predicates import (
    Comparison,
    Const,
    PathRef,
    Predicate,
    conjoin,
    conjuncts,
)

__all__ = ["GeneratedPlan", "SPJGenerator"]

DeltaEnv = Dict[str, Tuple[float, TupleShape]]


@dataclass
class GeneratedPlan:
    """A winning plan with its estimated cost and exploration stats."""

    plan: PlanNode
    cost: float
    candidates_considered: int = 0


@dataclass
class _Partial:
    """A partial plan during DP: which arcs it covers, which conjuncts
    it consumed, which variables it binds."""

    plan: PlanNode
    arcs: FrozenSet[int]
    consumed: FrozenSet[int]
    cost: float


class SPJGenerator:
    """Generative optimizer for one translated predicate node.

    ``prune=True`` (default) keeps only the cheapest partial plan per
    arc subset — Selinger-style dynamic programming.  ``prune=False``
    keeps *every* partial plan, fully enumerating the join-order space
    à la [KZ88]; the exhaustive baseline uses it to demonstrate the
    optimization-time blow-up the paper argues against.
    """

    def __init__(
        self, physical: PhysicalSchema, cost_model, prune: bool = True
    ) -> None:
        self.physical = physical
        self.cost_model = cost_model
        self.prune = prune

    # -- public API ----------------------------------------------------------------

    def generate(
        self,
        node: TranslatedNode,
        sources: Sequence[PlanNode],
        delta_env: Optional[DeltaEnv] = None,
        project: bool = True,
    ) -> GeneratedPlan:
        """Build the cheapest PT for ``node``.

        ``sources`` gives, per arc, the plan producing bindings of the
        arc's root variable (an :class:`EntityLeaf` for a base name, a
        ``Fix``/temp subplan for a produced name, a ``RecLeaf`` inside
        a fixpoint body).  ``delta_env`` supplies delta cardinalities
        when generating inside a recursion.
        """
        if len(sources) != len(node.arcs):
            raise OptimizationError("one source plan per arc required")
        all_conjuncts = conjuncts(node.predicate)
        candidates = 0
        best: Optional[Tuple[PlanNode, float]] = None
        deferred_choices = self._deferred_choices(node)
        for deferred_flags in deferred_choices:
            result = self._generate_with_flags(
                node, sources, all_conjuncts, deferred_flags, delta_env
            )
            if result is None:
                continue
            plan, cost, considered = result
            candidates += considered
            if best is None or cost < best[1]:
                best = (plan, cost)
        if best is None:
            raise OptimizationError(
                "no plan found for predicate node (disconnected join graph "
                "would need a Cartesian product)"
            )
        plan, cost = best
        if project:
            plan = Proj(plan, node.output)
            cost = self._cost(plan, delta_env)
        return GeneratedPlan(plan, cost, candidates)

    def _admit(
        self,
        table: Dict[FrozenSet[int], List[_Partial]],
        key: FrozenSet[int],
        candidates: List[_Partial],
    ) -> None:
        """DP admission: keep the single cheapest partial per subset
        when pruning, every structurally distinct partial otherwise."""
        bucket = table.setdefault(key, [])
        for candidate in candidates:
            if self.prune:
                if not bucket:
                    bucket.append(candidate)
                elif candidate.cost < bucket[0].cost:
                    bucket[0] = candidate
            else:
                if all(candidate.plan != existing.plan for existing in bucket):
                    bucket.append(candidate)

    # -- deferred-chain profiles -------------------------------------------------------

    def _deferred_choices(self, node: TranslatedNode) -> List[Tuple[bool, ...]]:
        """Eager/deferred flag combinations, one flag per arc.

        Only arcs that actually have hops get a deferred variant, and
        only when no join conjunct needs the hop variables."""
        options: List[List[bool]] = []
        for arc in node.arcs:
            if arc.hops:
                options.append([False, True])
            else:
                options.append([False])
        return [tuple(flags) for flags in itertools.product(*options)]

    # -- DP over arcs ---------------------------------------------------------------------

    def _generate_with_flags(
        self,
        node: TranslatedNode,
        sources: Sequence[PlanNode],
        all_conjuncts: List[Predicate],
        deferred_flags: Tuple[bool, ...],
        delta_env: Optional[DeltaEnv],
    ) -> Optional[Tuple[PlanNode, float, int]]:
        considered = 0
        # Unit plans (one per arc), possibly in several variants.
        units: List[List[_Partial]] = []
        for index, arc in enumerate(node.arcs):
            variants = self._unit_variants(
                node, index, sources[index], all_conjuncts,
                deferred_flags[index], delta_env,
            )
            if not variants:
                return None
            considered += len(variants)
            units.append(variants)

        arc_count = len(node.arcs)
        table: Dict[FrozenSet[int], List[_Partial]] = {}
        for index, variants in enumerate(units):
            self._admit(table, frozenset({index}), variants)

        for size in range(2, arc_count + 1):
            for subset in itertools.combinations(range(arc_count), size):
                key = frozenset(subset)
                for arc_index in subset:
                    rest = key - {arc_index}
                    if rest not in table:
                        continue
                    for left in table[rest]:
                        for right in units[arc_index]:
                            joined_list = list(
                                self._join_candidates(
                                    left, right, all_conjuncts, delta_env
                                )
                            )
                            considered += len(joined_list)
                            self._admit(table, key, joined_list)

        full = frozenset(range(arc_count))
        if full not in table or not table[full]:
            return None
        final = min(table[full], key=lambda partial: partial.cost)
        plan, applied = self._attach_deferred(
            node, final, all_conjuncts, deferred_flags
        )
        # Any conjunct still unconsumed (e.g. spanning two deferred
        # chains) is applied as a final selection.
        for position, conjunct in enumerate(all_conjuncts):
            if position in applied:
                continue
            if conjunct.variables() <= plan.output_vars():
                plan = Sel(plan, conjunct)
                applied.add(position)
        if len(applied) != len(all_conjuncts):
            missing = [
                all_conjuncts[p]
                for p in range(len(all_conjuncts))
                if p not in applied
            ]
            raise OptimizationError(
                f"conjuncts could not be placed: {missing}"
            )
        cost = self._cost(plan, delta_env)
        return plan, cost, considered

    # -- unit construction -------------------------------------------------------------------

    def _unit_variants(
        self,
        node: TranslatedNode,
        arc_index: int,
        source: PlanNode,
        all_conjuncts: List[Predicate],
        deferred: bool,
        delta_env: Optional[DeltaEnv],
    ) -> List[_Partial]:
        arc = node.arcs[arc_index]
        hops = [] if deferred else list(arc.hops)
        variants: List[_Partial] = []
        for chain_plan_fn in self._chain_layouts(arc, hops):
            plan = source
            consumed: Set[int] = set()
            plan, consumed = self._apply_ready_sels(
                plan, arc, all_conjuncts, consumed
            )
            plan = chain_plan_fn(plan, lambda p: self._apply_ready_sels(
                p, arc, all_conjuncts, consumed
            ))
            # _apply_ready_sels mutates ``consumed`` in place via the
            # closure; re-run once more at the top for late bindings.
            plan, consumed = self._apply_ready_sels(
                plan, arc, all_conjuncts, consumed
            )
            cost = self._cost(plan, delta_env)
            variants.append(
                _Partial(plan, frozenset({arc_index}), frozenset(consumed), cost)
            )
        variants.extend(
            self._reverse_index_variants(
                node, arc_index, source, all_conjuncts, delta_env
            )
        )
        return variants

    def _reverse_index_variants(
        self,
        node: TranslatedNode,
        arc_index: int,
        source: PlanNode,
        all_conjuncts: List[Predicate],
        delta_env: Optional[DeltaEnv],
    ) -> List[_Partial]:
        """Retrieval by reverse path index ([MS86]): when an arc's hop
        chain exists only to evaluate one terminal equality and a path
        index spans it, generate the variant that skips navigation
        entirely — ``Sel_{root.a1...an.attr = c}(Entity)``, answered by
        the index's reverse direction at execution time.

        Answer *sets* are preserved (one binding per qualifying head
        object instead of one per qualifying path instantiation); bag
        multiplicities may differ, as with the paper's own plans.
        """
        arc = node.arcs[arc_index]
        if not isinstance(source, EntityLeaf) or len(arc.hops) < 2:
            return []
        # The hops must form one linear chain from the root variable.
        chain = []
        current_var = arc.root_var
        remaining = list(arc.hops)
        while remaining:
            next_hops = [h for h in remaining if h.source.var == current_var]
            if len(next_hops) != 1 or len(next_hops[0].source.attrs) != 1:
                return []
            chain.append(next_hops[0])
            remaining.remove(next_hops[0])
            current_var = next_hops[0].out_var
        attributes = tuple(hop.source.attrs[0] for hop in chain)
        terminal_var = chain[-1].out_var
        chain_vars = {hop.out_var for hop in chain}
        # Exactly one conjunct may touch the chain: the terminal
        # equality; the output must not need chain variables either.
        if node.output.variables() & chain_vars:
            return []
        terminal_position: Optional[int] = None
        for position, conjunct in enumerate(all_conjuncts):
            touches = conjunct.variables() & chain_vars
            if not touches:
                continue
            if terminal_position is not None:
                return []
            if not isinstance(conjunct, Comparison) or conjunct.op != "=":
                return []
            for path_side, const_side in (
                (conjunct.left, conjunct.right),
                (conjunct.right, conjunct.left),
            ):
                if (
                    isinstance(path_side, PathRef)
                    and path_side.var == terminal_var
                    and len(path_side.attrs) == 1
                    and isinstance(const_side, Const)
                ):
                    terminal_attr = path_side.attrs[0]
                    terminal_const = const_side
                    terminal_position = position
                    break
            else:
                return []
        if terminal_position is None:
            return []
        index = self.physical.path_index(source.entity, attributes)
        if index is None or index.terminal_attribute != terminal_attr:
            return []
        whole_path = PathRef(
            arc.root_var, attributes + (terminal_attr,)
        )
        plan: PlanNode = Sel(
            source, Comparison("=", whole_path, terminal_const)
        )
        consumed: Set[int] = {terminal_position}
        plan, consumed = self._apply_ready_sels(
            plan, arc, all_conjuncts, consumed
        )
        cost = self._cost(plan, delta_env)
        return [
            _Partial(plan, frozenset({arc_index}), frozenset(consumed), cost)
        ]

    def _chain_layouts(self, arc: TranslatedArc, hops: List[Hop]):
        """Alternative realizations of a hop chain: plain IJ sequence,
        plus every maximal PIJ collapse a path index allows."""
        layouts = []

        def plain(plan: PlanNode, sel_hook) -> PlanNode:
            for hop in hops:
                plan = IJ(
                    plan,
                    EntityLeaf(hop.target_entity, self._leaf_var(hop)),
                    hop.source,
                    hop.out_var,
                )
                plan, _ = sel_hook(plan)
            return plan

        layouts.append(plain)
        collapse_runs = self._collapse_runs(hops)
        if collapse_runs:

            def collapsed(plan: PlanNode, sel_hook) -> PlanNode:
                position = 0
                while position < len(hops):
                    run = collapse_runs.get(position)
                    if run is not None:
                        run_hops = hops[position:position + run]
                        plan = PIJ(
                            plan,
                            [
                                EntityLeaf(h.target_entity, self._leaf_var(h))
                                for h in run_hops
                            ],
                            [h.source.attrs[-1] for h in run_hops],
                            # The index lookup key is the head object:
                            # the variable the first hop dereferences.
                            PathRef(
                                run_hops[0].source.var,
                                run_hops[0].source.attrs[:-1],
                            ),
                            [h.out_var for h in run_hops],
                        )
                        position += run
                    else:
                        hop = hops[position]
                        plan = IJ(
                            plan,
                            EntityLeaf(hop.target_entity, self._leaf_var(hop)),
                            hop.source,
                            hop.out_var,
                        )
                        position += 1
                    plan, _ = sel_hook(plan)
                return plan

            layouts.append(collapsed)
        return layouts

    def _leaf_var(self, hop: Hop) -> str:
        return f"_{hop.out_var}_leaf"

    def _collapse_runs(self, hops: List[Hop]) -> Dict[int, int]:
        """start index -> run length for every collapsible hop run.

        A run of hops h_i..h_j is collapsible when each hop's source is
        the previous hop's out_var and a path index exists on the
        attribute sequence (the ``collapse`` action's
        ``existPathIndex(p2.p1)`` constraint)."""
        runs: Dict[int, int] = {}
        count = len(hops)
        for start in range(count):
            best_length = 0
            attrs = [hops[start].source.attrs[0]]
            for end in range(start + 1, count):
                if hops[end].source.var != hops[end - 1].out_var:
                    break
                attrs.append(hops[end].source.attrs[0])
                if self.physical.find_path_index(tuple(attrs)) is not None:
                    best_length = end - start + 1
            if best_length >= 2:
                runs[start] = best_length
        return runs

    def _apply_ready_sels(
        self,
        plan: PlanNode,
        arc: TranslatedArc,
        all_conjuncts: List[Predicate],
        consumed: Set[int],
    ) -> Tuple[PlanNode, Set[int]]:
        """The ``sel`` action: apply every unconsumed single-arc
        conjunct whose variables are bound (as soon as possible)."""
        available = plan.output_vars()
        for position, conjunct in enumerate(all_conjuncts):
            if position in consumed:
                continue
            variables = conjunct.variables()
            if not variables or not variables <= arc.all_vars():
                continue
            if variables <= available:
                plan = Sel(plan, conjunct)
                consumed.add(position)
        return plan, consumed

    # -- joins ----------------------------------------------------------------------------------

    def _join_candidates(
        self,
        left: _Partial,
        right: _Partial,
        all_conjuncts: List[Predicate],
        delta_env: Optional[DeltaEnv],
    ):
        """The ``join`` action: combine two disjoint partials when a
        join predicate connects them (``disjoint(N, Inner)`` plus the
        existence of ``joinpred`` — no Cartesian products)."""
        if left.arcs & right.arcs:
            return
        left_vars = left.plan.output_vars()
        right_vars = right.plan.output_vars()
        join_positions: List[int] = []
        for position, conjunct in enumerate(all_conjuncts):
            if position in left.consumed or position in right.consumed:
                continue
            variables = conjunct.variables()
            if not variables:
                continue
            touches_left = bool(variables & left_vars)
            touches_right = bool(variables & right_vars)
            if (
                touches_left
                and touches_right
                and variables <= (left_vars | right_vars)
            ):
                join_positions.append(position)
        if not join_positions:
            return
        predicate = conjoin([all_conjuncts[p] for p in join_positions])
        consumed = left.consumed | right.consumed | frozenset(join_positions)
        arcs = left.arcs | right.arcs
        scanned = EJ(
            left.plan,
            right.plan,
            predicate,
            scan_join_algorithm(predicate, right.plan, left_vars),
        )
        yield _Partial(scanned, arcs, consumed, self._cost(scanned, delta_env))
        if index_join_possible(
            right.plan, predicate, left_vars, self.physical
        ):
            indexed = EJ(left.plan, right.plan, predicate, INDEX_JOIN)
            yield _Partial(
                indexed, arcs, consumed, self._cost(indexed, delta_env)
            )

    # -- deferred attachment ------------------------------------------------------------------------

    def _attach_deferred(
        self,
        node: TranslatedNode,
        final: _Partial,
        all_conjuncts: List[Predicate],
        deferred_flags: Tuple[bool, ...],
    ) -> Tuple[PlanNode, Set[int]]:
        """Append the deferred hop chains (plain layout) after the
        joins, applying their selections as variables become bound."""
        plan = final.plan
        consumed = set(final.consumed)
        for index, arc in enumerate(node.arcs):
            if not deferred_flags[index] or not arc.hops:
                continue
            layout = self._chain_layouts(arc, list(arc.hops))[0]
            plan = layout(
                plan,
                lambda p, arc=arc: self._apply_ready_sels(
                    p, arc, all_conjuncts, consumed
                ),
            )
        return plan, consumed

    # -- costing ---------------------------------------------------------------------------------------

    def _cost(self, plan: PlanNode, delta_env: Optional[DeltaEnv]) -> float:
        return self.cost_model.cost(plan, delta_env)
