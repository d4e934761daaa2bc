"""Memoized transformation-based enumeration of recursive plans.

The randomized strategies (II/SA/2PO) sample walks through the move
graph — selection-push in/out of Fix, join-push, join-order
(``swap-join``), and operator-order (``collapse``/``expand``,
``index-join``/``nested-loop``) alternatives — so they can silently
miss the best recursive plan.  :class:`MemoizedEnumeration` explores
the same space *systematically*, borrowing the two ideas that make
transformation-based enumeration affordable (arXiv 2312.02572,
arXiv 2605.05044):

* a **memo table keyed on the plan term itself**, through
  :class:`~repro.plans.nodes.PlanNode`'s cached O(1) structural hash
  and equality: the move graph is a DAG with massive sharing —
  independent moves commute, so ``k`` applicable moves reach the same
  plan along ``k!`` orders, and every order builds the *same* term.
  The push renamer's ``_p{part_index}`` suffix depends on the part,
  not on the push order, so no two structurally distinct plans of a
  closure are alpha-variants (the optimality-oracle test re-checks
  this against :mod:`repro.plans.canonical`).  Memoization costs each
  distinct plan once, collapsing the factorial path count to the
  polynomial number of distinct plans;
* **branch-and-bound pruning against the incumbent**: expansion is
  best-first (cheapest plan next), so the incumbent drops fast; once
  the cheapest open plan costs more than ``prune_factor`` times the
  incumbent, the rest of the frontier is pruned unexpanded.  The rule
  is exact whenever the optimum is reachable through intermediate
  plans within the band — which holds for this move graph's commuting
  local moves, and is continuously re-proven by the optimality-oracle
  test against the brute-force enumerator
  (:func:`repro.core.baselines.brute_force_enumerate`).

The strategy is cost-model-aware by construction: it only ever calls
the ``cost_fn`` it is handed, so the serial and distributed
(``CostParameters.shards``, :mod:`repro.cost.distributed`) Fix
variants both steer the search.  Search effort is observable: every
costed candidate emits the standard ``strategy.candidate`` tracer
event, and a final ``enumeration.memo`` event (plus
:attr:`MemoizedEnumeration.last_stats`) carries the memo statistics
that the optimizer forwards into the ``transformPT`` span and EXPLAIN
output.
"""

from __future__ import annotations

import heapq
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Set

from repro.core.moves import neighbors
from repro.core.strategies import CostFn, SearchResult, SearchStrategy
from repro.physical.schema import PhysicalSchema
from repro.plans.nodes import PlanNode

__all__ = ["EnumerationStats", "MemoizedEnumeration"]


@dataclass
class EnumerationStats:
    """Memo-table and pruning counters of one enumeration run."""

    #: Distinct plans entered into the memo table.
    subplans_memoized: int = 0
    #: Generated candidates that were already memoized
    #: (shared subproblems reached along another transformation order).
    memo_hits: int = 0
    #: Frontier plans discarded by the branch-and-bound cutoff.
    pruned_branches: int = 0
    #: Candidates actually handed to the cost model.
    candidates_costed: int = 0
    #: Plans whose neighbourhoods were generated.
    expanded: int = 0

    def to_dict(self) -> Dict[str, int]:
        return asdict(self)


class MemoizedEnumeration(SearchStrategy):
    """Best-first, memoized, branch-and-bound plan enumeration.

    ``prune_factor`` bounds how far above the incumbent an open plan
    may sit and still be expanded (``None`` disables pruning — the
    closure is then exhaustive over distinct plans);
    ``max_plans`` caps the memo table as a terminating backstop.
    """

    #: transformPT need not pre-seed this strategy with push
    #: candidates: push-filter moves are part of the explored graph, so
    #: one search from the unpushed plan covers every selection/join
    #: push alternative (see ``Optimizer._transform_pt``).
    self_contained = True

    def __init__(
        self,
        prune_factor: Optional[float] = 2.0,
        max_plans: int = 20_000,
    ) -> None:
        if prune_factor is not None and prune_factor < 1.0:
            raise ValueError("prune_factor must be >= 1.0 (or None)")
        self.prune_factor = prune_factor
        self.max_plans = max_plans
        self.last_stats = EnumerationStats()

    def search(
        self,
        start: PlanNode,
        cost_fn: CostFn,
        physical: PhysicalSchema,
        *,
        tracer=None,
    ) -> SearchResult:
        """Enumerate the transformation closure of ``start``."""
        tracing = tracer is not None and tracer.enabled
        stats = EnumerationStats()
        self.last_stats = stats

        start_cost = cost_fn(start)
        stats.candidates_costed += 1
        memo: Set[PlanNode] = {start}
        best_plan, best_cost = start, start_cost
        taken: List[str] = []
        # Heap entries carry an insertion counter so plans (unordered)
        # never get compared on cost ties.
        counter = 0
        frontier = [(start_cost, counter, start)]
        while frontier and len(memo) < self.max_plans:
            cost, _tie, plan = heapq.heappop(frontier)
            if (
                self.prune_factor is not None
                and cost > best_cost * self.prune_factor
            ):
                # Best-first order means every remaining open plan is
                # at least this costly, and the incumbent only ever
                # improves: the whole frontier is out of the band.
                stats.pruned_branches += 1 + len(frontier)
                if tracing:
                    tracer.event(
                        "enumeration.prune",
                        frontier_cost=cost,
                        incumbent=best_cost,
                        prune_factor=self.prune_factor,
                        pruned=1 + len(frontier),
                    )
                break
            stats.expanded += 1
            for description, candidate in neighbors(
                plan, physical, self.extended_moves
            ):
                if candidate in memo:
                    stats.memo_hits += 1
                    continue
                candidate_cost = cost_fn(candidate)
                stats.candidates_costed += 1
                memo.add(candidate)
                accepted = candidate_cost < best_cost
                if tracing:
                    tracer.event(
                        "strategy.candidate",
                        strategy="enum",
                        move=description,
                        cost_before=cost,
                        cost_after=candidate_cost,
                        accepted=accepted,
                    )
                if accepted:
                    best_plan, best_cost = candidate, candidate_cost
                    taken.append(description)
                counter += 1
                heapq.heappush(
                    frontier, (candidate_cost, counter, candidate)
                )
        stats.subplans_memoized = len(memo)
        if tracing:
            tracer.event("enumeration.memo", **stats.to_dict())
        return SearchResult(
            best_plan, best_cost, stats.candidates_costed, taken
        )
