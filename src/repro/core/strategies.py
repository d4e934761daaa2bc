"""Search strategies (Sections 4.1, 4.5; [IC90], [LV91]).

The optimizer isolates *what can be transformed* (actions/moves) from
*how alternatives are explored* (strategies).  Strategies implemented:

* :class:`IterativeImprovement` — random restarts, each descending via
  random improving moves until a local minimum ([IC90] II);
* :class:`SimulatedAnnealing` — accepts uphill moves with probability
  ``exp(-Δ/T)`` under a geometric cooling schedule ([IC90] SA);
* :class:`TwoPhase` — II to find a good start, then low-temperature SA
  around it ([IC90] 2PO; the paper's transformPT is "analogous to
  two-pass search strategies");
* :class:`ExhaustiveSearch` — closes the move graph breadth-first and
  returns the global optimum over it (the [KZ88]-style baseline whose
  "optimization time may become unacceptably high").

All strategies count the plans they cost — the currency of the
optimization-time comparison benchmarks.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.moves import neighbors
from repro.physical.schema import PhysicalSchema
from repro.plans.nodes import PlanNode

__all__ = [
    "SearchResult",
    "SearchStrategy",
    "IterativeImprovement",
    "SimulatedAnnealing",
    "TwoPhase",
    "ExhaustiveSearch",
    "STRATEGY_NAMES",
    "resolve_strategy",
]

CostFn = Callable[[PlanNode], float]


@dataclass
class SearchResult:
    """Outcome of a strategy run."""

    plan: PlanNode
    cost: float
    plans_costed: int
    moves_taken: List[str] = field(default_factory=list)


class SearchStrategy:
    """Base class: improve a starting plan under a cost function.

    ``extended_moves`` additionally explores union-over-join
    distribution (the Section 5 extension).
    """

    extended_moves: bool = False
    #: Self-contained strategies explore push alternatives themselves
    #: (push-filter is in their move graph), so transformPT runs them
    #: once from the untouched plan instead of once per pre-generated
    #: push candidate.
    self_contained: bool = False

    def search(
        self,
        start: PlanNode,
        cost_fn: CostFn,
        physical: PhysicalSchema,
        *,
        tracer=None,
    ) -> SearchResult:
        """Improve ``start``; ``tracer`` (when given and enabled)
        receives one ``strategy.candidate`` event per costed move:
        the action applied, cost before/after, accepted or not."""
        raise NotImplementedError


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


class SimulatedAnnealing(SearchStrategy):
    """Annealing over the move graph with geometric cooling."""

    def __init__(
        self,
        initial_temperature: float = 2.0,
        cooling: float = 0.9,
        steps_per_temperature: int = 8,
        floor: float = 0.01,
        seed: int = 1992,
    ) -> None:
        self.initial_temperature = initial_temperature
        self.cooling = cooling
        self.steps_per_temperature = steps_per_temperature
        self.floor = floor
        self.seed = seed

    def search(
        self,
        start: PlanNode,
        cost_fn: CostFn,
        physical: PhysicalSchema,
        *,
        tracer=None,
    ) -> SearchResult:
        """Anneal from ``start`` under geometric cooling."""
        rng = random.Random(self.seed)
        tracing = tracer is not None and tracer.enabled
        current, current_cost = start, cost_fn(start)
        best_plan, best_cost = current, current_cost
        costed = 1
        taken: List[str] = []
        temperature = self.initial_temperature * max(current_cost, 1.0)
        while temperature > self.floor * max(best_cost, 1.0):
            for _step in range(self.steps_per_temperature):
                options = neighbors(current, physical, self.extended_moves)
                if not options:
                    return SearchResult(best_plan, best_cost, costed, taken)
                description, candidate = rng.choice(options)
                candidate_cost = cost_fn(candidate)
                costed += 1
                delta = candidate_cost - current_cost
                accepted = (
                    delta <= 0
                    or rng.random() < math.exp(-delta / temperature)
                )
                if tracing:
                    tracer.event(
                        "strategy.candidate",
                        strategy="SA",
                        move=description,
                        cost_before=current_cost,
                        cost_after=candidate_cost,
                        accepted=accepted,
                        temperature=temperature,
                    )
                if accepted:
                    current, current_cost = candidate, candidate_cost
                    taken.append(description)
                    if current_cost < best_cost:
                        best_plan, best_cost = current, current_cost
            temperature *= self.cooling
        return SearchResult(best_plan, best_cost, costed, taken)


class TwoPhase(SearchStrategy):
    """II to locate a basin, then low-temperature SA within it."""

    def __init__(self, seed: int = 1992) -> None:
        self.seed = seed

    def search(
        self,
        start: PlanNode,
        cost_fn: CostFn,
        physical: PhysicalSchema,
        *,
        tracer=None,
    ) -> SearchResult:
        """Run II, then refine its result with low-temperature SA."""
        first = IterativeImprovement(restarts=2, seed=self.seed).search(
            start, cost_fn, physical, tracer=tracer
        )
        second = SimulatedAnnealing(
            initial_temperature=0.2, seed=self.seed + 1
        ).search(first.plan, cost_fn, physical, tracer=tracer)
        if second.cost <= first.cost:
            return SearchResult(
                second.plan,
                second.cost,
                first.plans_costed + second.plans_costed,
                first.moves_taken + second.moves_taken,
            )
        return SearchResult(
            first.plan,
            first.cost,
            first.plans_costed + second.plans_costed,
            first.moves_taken,
        )


class ExhaustiveSearch(SearchStrategy):
    """Breadth-first closure of the move graph; global optimum over it.

    This is the [KZ88]-style exhaustive baseline: optimality by
    construction, cost-of-optimization unbounded (capped here by
    ``max_plans`` to keep benchmarks terminating)."""

    def __init__(self, max_plans: int = 20_000) -> None:
        self.max_plans = max_plans

    def search(
        self,
        start: PlanNode,
        cost_fn: CostFn,
        physical: PhysicalSchema,
        *,
        tracer=None,
    ) -> SearchResult:
        """Breadth-first closure of the move graph from ``start``."""
        tracing = tracer is not None and tracer.enabled
        seen: Dict[PlanNode, float] = {start: cost_fn(start)}
        frontier: List[PlanNode] = [start]
        costed = 1
        while frontier and len(seen) < self.max_plans:
            next_frontier: List[PlanNode] = []
            for plan in frontier:
                for description, candidate in neighbors(plan, physical, self.extended_moves):
                    if candidate in seen:
                        continue
                    before = seen[plan]
                    seen[candidate] = cost_fn(candidate)
                    costed += 1
                    if tracing:
                        tracer.event(
                            "strategy.candidate",
                            strategy="exhaustive",
                            move=description,
                            cost_before=before,
                            cost_after=seen[candidate],
                            accepted=True,
                        )
                    next_frontier.append(candidate)
                    if len(seen) >= self.max_plans:
                        break
                if len(seen) >= self.max_plans:
                    break
            frontier = next_frontier
        best_plan, best_cost = min(seen.items(), key=lambda item: item[1])
        return SearchResult(best_plan, best_cost, costed)


#: Strategy names accepted anywhere a strategy can be selected by name
#: (``OptimizerConfig(strategy=...)``, ``repro run --strategy``, the
#: service protocol's per-request ``strategy`` field): the paper's II
#: and the exact memoized enumerator.  SA, 2PO and the exhaustive
#: closure are comparison baselines, constructed directly.
STRATEGY_NAMES = ("ii", "enum")


def resolve_strategy(name: str, *, seed: int = 1992) -> SearchStrategy:
    """Build the strategy registered under ``name``.

    ``seed`` feeds II; ``enum`` is deterministic and ignores it.
    """
    # Imported here: enumerate.py subclasses SearchStrategy.
    from repro.core.enumerate import MemoizedEnumeration

    factories = {
        "ii": lambda: IterativeImprovement(seed=seed),
        "enum": MemoizedEnumeration,
    }
    try:
        factory = factories[name]
    except KeyError:
        known = ", ".join(STRATEGY_NAMES)
        raise ValueError(
            f"unknown strategy {name!r} (expected one of: {known})"
        ) from None
    return factory()
