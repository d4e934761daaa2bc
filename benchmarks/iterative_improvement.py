"""[IC90] Iterative Improvement, the randomized rival of the transformPT
search.

The optimizer has one transformPT search, the memoized enumerator
(:mod:`repro.core.enumerate`).  II lives here, beside SA and 2PO in
``bench_enumeration.py``, because only the benchmarks that reproduce
CLAIM-STRATEGY (``bench_claim_strategy_time.py``) and CLAIM-ENUM
(``bench_enumeration.py``) still run it.

II does not reach the push alternatives by itself: a random improving
walk from the unpushed plan takes a push only when the push alone
improves.  The paper runs it once per transformPT candidate — the
unpushed plan and every filter push of
:func:`~repro.core.transform.transform_candidates` — and keeps the
cheapest result.  :class:`PerCandidate` does that for any such search,
so ``OptimizerConfig(strategy=PerCandidate(IterativeImprovement()))``
optimizes as the paper's optimizer did.
"""

import random
from typing import List, Optional

from repro.core.enumerate import CostFn, SearchResult, SearchStrategy
from repro.core.moves import neighbors
from repro.core.transform import transform_candidates
from repro.physical.schema import PhysicalSchema
from repro.plans.nodes import PlanNode


class IterativeImprovement(SearchStrategy):
    """Randomized descent with restarts.

    Each restart walks random improving moves until no neighbor
    improves (a local minimum); the best local minimum over all
    restarts wins.  "The termination of a randomized strategy is
    conditioned by the optimization time or the stability of the
    current solution."
    """

    def __init__(
        self,
        restarts: int = 3,
        max_moves: int = 32,
        seed: int = 1992,
    ) -> None:
        self.restarts = restarts
        self.max_moves = max_moves
        self.seed = seed

    def search(
        self,
        start: PlanNode,
        cost_fn: CostFn,
        physical: PhysicalSchema,
        *,
        tracer=None,
    ) -> SearchResult:
        """Randomized descent with restarts from ``start``."""
        rng = random.Random(self.seed)
        tracing = tracer is not None and tracer.enabled
        best_plan, best_cost = start, cost_fn(start)
        costed = 1
        taken: List[str] = []
        for _restart in range(self.restarts):
            current, current_cost = start, best_cost
            for _step in range(self.max_moves):
                options = neighbors(current, physical, self.extended_moves)
                rng.shuffle(options)
                improved = False
                for description, candidate in options:
                    candidate_cost = cost_fn(candidate)
                    costed += 1
                    accepted = candidate_cost < current_cost
                    if tracing:
                        tracer.event(
                            "strategy.candidate",
                            strategy="II",
                            move=description,
                            cost_before=current_cost,
                            cost_after=candidate_cost,
                            accepted=accepted,
                        )
                    if accepted:
                        current, current_cost = candidate, candidate_cost
                        taken.append(description)
                        improved = True
                        break
                if not improved:
                    break  # local minimum: stable solution
            if current_cost < best_cost:
                best_plan, best_cost = current, current_cost
        return SearchResult(best_plan, best_cost, costed, taken)


class PerCandidate(SearchStrategy):
    """Run ``inner`` once from every transformPT candidate of the start
    plan and keep the cheapest result (the first on a tie, in
    :func:`~repro.core.transform.transform_candidates` order); the
    plans costed are summed over the runs."""

    def __init__(self, inner: SearchStrategy) -> None:
        self.inner = inner

    def search(
        self,
        start: PlanNode,
        cost_fn: CostFn,
        physical: PhysicalSchema,
        *,
        tracer=None,
    ) -> SearchResult:
        best: Optional[SearchResult] = None
        costed = 0
        for description, candidate in transform_candidates(start):
            result = self.inner.search(
                candidate, cost_fn, physical, tracer=tracer
            )
            costed += result.plans_costed
            if best is None or result.cost < best.cost:
                pushes = [] if description == "original" else [description]
                best = SearchResult(
                    result.plan,
                    result.cost,
                    0,
                    pushes + result.moves_taken,
                )
        best.plans_costed = costed
        return best
