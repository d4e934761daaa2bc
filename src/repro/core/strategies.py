"""Search strategies (Sections 4.1, 4.5; [IC90]).

The optimizer isolates *what can be transformed* (actions/moves) from
*how alternatives are explored* (strategies).  Two strategies search
the move graph:

* :class:`IterativeImprovement` — random restarts, each descending via
  random improving moves until a local minimum ([IC90] II); the
  paper's strategy and the default;
* :class:`repro.core.enumerate.MemoizedEnumeration` (``"enum"``) — the
  memoized, branch-and-bound closure of the move graph.  With
  ``prune_factor=None`` it is the [KZ88]-style exhaustive baseline
  (:func:`repro.core.baselines.exhaustive_optimizer`), whose
  "optimization time may become unacceptably high".

All strategies count the plans they cost — the currency of the
optimization-time comparison benchmarks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List

from repro.core.moves import neighbors
from repro.physical.schema import PhysicalSchema
from repro.plans.nodes import PlanNode

__all__ = [
    "SearchResult",
    "SearchStrategy",
    "IterativeImprovement",
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


#: Strategy names accepted anywhere a strategy can be selected by name
#: (``OptimizerConfig(strategy=...)``, ``repro run --strategy``, the
#: service protocol's per-request ``strategy`` field): the paper's II
#: and the memoized enumerator.
STRATEGY_NAMES = ("ii", "enum")


def resolve_strategy(name: str) -> SearchStrategy:
    """Build the strategy registered under ``name``."""
    # Imported here: enumerate.py subclasses SearchStrategy.
    from repro.core.enumerate import MemoizedEnumeration

    factories = {"ii": IterativeImprovement, "enum": MemoizedEnumeration}
    try:
        factory = factories[name]
    except KeyError:
        known = ", ".join(STRATEGY_NAMES)
        raise ValueError(
            f"unknown strategy {name!r} (expected one of: {known})"
        ) from None
    return factory()
