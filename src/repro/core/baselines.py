"""Baseline optimizers the paper argues against (Section 4.1).

* :func:`deductive_optimizer` — the deductive-DB approach: rewriting
  heuristics applied unconditionally.  Selections (and joins) that
  *can* be pushed through recursion *are* pushed, with no cost model
  consulted ("most deductive query processors would push selection and
  projection through recursion [BR86]").
* :func:`naive_optimizer` — never pushes through recursion and runs
  no transformPT search: the plain generatePT output.
* :func:`exhaustive_optimizer` — the [KZ88]-style strategy:
  exhaustively enumerate the transformation space and keep the global
  optimum.  "As this strategy is cost-based, optimality is guaranteed,
  but the optimization time may become unacceptably high."  It is the
  memoized enumerator with pruning switched off, over a generatePT
  that keeps every join order.
* :func:`cost_controlled_optimizer` — the paper's optimizer with its
  default cost-compared transformPT (for symmetric naming).
* :func:`brute_force_enumerate` — the optimality oracle: close the
  move graph with *no* memo fingerprinting and *no* pruning, costing
  every structurally distinct plan reached, and return the global
  minimum over the closure.  Only feasible on small plan spaces, which
  is exactly what the property-based oracle tests generate.
"""

from __future__ import annotations

from typing import Callable, Tuple

from repro.core.optimizer import Optimizer, OptimizerConfig
from repro.physical.schema import PhysicalSchema
from repro.plans.nodes import PlanNode

__all__ = [
    "deductive_optimizer",
    "naive_optimizer",
    "exhaustive_optimizer",
    "cost_controlled_optimizer",
    "brute_force_enumerate",
]


def deductive_optimizer(
    physical: PhysicalSchema, cost_model=None
) -> Optimizer:
    """Always push through recursion; no cost comparison."""
    return Optimizer(
        physical,
        cost_model,
        OptimizerConfig(push_policy="always"),
    )


def naive_optimizer(physical: PhysicalSchema, cost_model=None) -> Optimizer:
    """Never push through recursion; no transformPT search."""
    return Optimizer(
        physical,
        cost_model,
        OptimizerConfig(push_policy="never"),
    )


def exhaustive_optimizer(
    physical: PhysicalSchema,
    cost_model=None,
    max_plans: int = 20_000,
) -> Optimizer:
    """Exhaustively close the transformation space ([KZ88])."""
    from repro.core.enumerate import MemoizedEnumeration

    return Optimizer(
        physical,
        cost_model,
        OptimizerConfig(
            strategy=MemoizedEnumeration(
                prune_factor=None, max_plans=max_plans
            ),
            exhaustive_generate=True,
        ),
    )


def cost_controlled_optimizer(
    physical: PhysicalSchema,
    cost_model=None,
    seed: int = 1992,
) -> Optimizer:
    """The paper's optimizer: pushes decided by comparing costed plans
    in one memoized search of the move graph.  The search is
    deterministic, so ``seed`` changes nothing; it is kept for callers
    written against the seeded randomized search."""
    return Optimizer(physical, cost_model, OptimizerConfig())


def brute_force_enumerate(
    start: PlanNode,
    cost_fn: Callable[[PlanNode], float],
    physical: PhysicalSchema,
    *,
    extended_moves: bool = False,
    max_plans: int = 50_000,
) -> Tuple[PlanNode, float, int]:
    """Cost every structurally distinct plan in the move-graph closure
    of ``start`` and return ``(best_plan, best_cost, plans_costed)``.

    Deliberately naive — structural (not canonical) dedup, breadth-
    first, no pruning — so it shares no machinery with
    :class:`repro.core.enumerate.MemoizedEnumeration` and can serve as
    its optimality oracle.  Raises :class:`RuntimeError` when the
    closure exceeds ``max_plans``: an oracle that silently truncated
    the space could vacuously "confirm" optimality.
    """
    from repro.core.moves import neighbors

    seen = {start: cost_fn(start)}
    frontier = [start]
    while frontier:
        next_frontier = []
        for plan in frontier:
            for _description, candidate in neighbors(
                plan, physical, extended_moves
            ):
                if candidate in seen:
                    continue
                seen[candidate] = cost_fn(candidate)
                next_frontier.append(candidate)
                if len(seen) > max_plans:
                    raise RuntimeError(
                        f"plan space exceeds {max_plans} plans; "
                        "brute-force oracle is not feasible here"
                    )
        frontier = next_frontier
    best_plan, best_cost = min(seen.items(), key=lambda item: item[1])
    return best_plan, best_cost, len(seen)
