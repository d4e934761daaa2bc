"""Tests for local moves and search strategies."""

import pytest

from repro.core.enumerate import MemoizedEnumeration
from repro.core.moves import neighbors
from repro.core.strategies import IterativeImprovement
from repro.cost import DetailedCostModel
from repro.engine import Engine
from repro.plans import (
    EJ,
    HASH_JOIN,
    IJ,
    INDEX_JOIN,
    PIJ,
    EntityLeaf,
    Proj,
    Sel,
    find_all,
    validate_plan,
)
from repro.querygraph.builder import and_, const, eq, ge, out, path, var


def chain_plan():
    """An IJ chain over works.instruments (collapsible via path index)."""
    return Proj(
        Sel(
            IJ(
                IJ(
                    EntityLeaf("Composer", "x"),
                    EntityLeaf("Composition", "w"),
                    path("x", "works"),
                    "w",
                ),
                EntityLeaf("Instrument", "ins"),
                path("w", "instruments"),
                "ins",
            ),
            eq(path("ins", "name"), const("harpsichord")),
        ),
        out(n=path("x", "name")),
    )


def join_plan():
    return Proj(
        EJ(
            Sel(EntityLeaf("Composer", "a"), eq(path("a", "name"), const("Bach"))),
            EntityLeaf("Composer", "b"),
            eq(path("a", "name"), path("b", "name")),
        ),
        out(n=path("b", "name")),
    )


class TestMoves:
    def test_collapse_move_produces_pij(self, indexed_db):
        options = neighbors(chain_plan(), indexed_db.physical)
        collapsed = [plan for desc, plan in options if desc.startswith("collapse")]
        assert collapsed
        assert find_all(collapsed[0], PIJ)
        validate_plan(collapsed[0], indexed_db.physical)

    def test_collapse_preserves_answers(self, indexed_db):
        engine = Engine(indexed_db.physical)
        original = chain_plan()
        options = neighbors(original, indexed_db.physical)
        collapsed = [plan for desc, plan in options if desc.startswith("collapse")][0]
        assert (
            engine.execute(original).answer_set()
            == engine.execute(collapsed).answer_set()
        )

    def test_expand_inverts_collapse(self, indexed_db):
        original = chain_plan()
        options = neighbors(original, indexed_db.physical)
        collapsed = [plan for desc, plan in options if desc.startswith("collapse")][0]
        expansions = [
            plan
            for desc, plan in neighbors(collapsed, indexed_db.physical)
            if desc.startswith("expand")
        ]
        assert expansions
        validate_plan(expansions[0], indexed_db.physical)
        engine = Engine(indexed_db.physical)
        assert (
            engine.execute(expansions[0]).answer_set()
            == engine.execute(original).answer_set()
        )

    def test_swap_join_move(self, indexed_db):
        options = neighbors(join_plan(), indexed_db.physical)
        swapped = [plan for desc, plan in options if desc == "swap-join"]
        assert swapped
        join = find_all(swapped[0], EJ)[0]
        assert isinstance(join.left, EntityLeaf)
        engine = Engine(indexed_db.physical)
        assert (
            engine.execute(swapped[0]).answer_set()
            == engine.execute(join_plan()).answer_set()
        )

    def test_index_join_toggle(self, indexed_db):
        options = neighbors(join_plan(), indexed_db.physical)
        toggled = [plan for desc, plan in options if desc == "index-join"]
        assert toggled
        assert find_all(toggled[0], EJ)[0].algorithm == INDEX_JOIN
        # An index join's predicate has an equality key, so the move
        # back is to the hash join.
        back = [
            plan
            for desc, plan in neighbors(toggled[0], indexed_db.physical)
            if desc == "hash-join"
        ]
        assert back
        assert find_all(back[0], EJ)[0].algorithm == HASH_JOIN

    def test_all_neighbors_valid(self, indexed_db):
        for _desc, plan in neighbors(chain_plan(), indexed_db.physical):
            validate_plan(plan, indexed_db.physical)
        for _desc, plan in neighbors(join_plan(), indexed_db.physical):
            validate_plan(plan, indexed_db.physical)


class TestStrategies:
    @pytest.fixture()
    def cost_fn(self, indexed_db):
        model = DetailedCostModel(indexed_db.physical)
        return lambda plan: model.cost(plan)

    def test_iterative_improvement_never_worsens(self, indexed_db, cost_fn):
        start = chain_plan()
        result = IterativeImprovement(seed=1).search(
            start, cost_fn, indexed_db.physical
        )
        assert result.cost <= cost_fn(start)
        assert result.plans_costed >= 1
        validate_plan(result.plan, indexed_db.physical)

    def test_iterative_improvement_deterministic_per_seed(
        self, indexed_db, cost_fn
    ):
        first = IterativeImprovement(seed=3).search(
            chain_plan(), cost_fn, indexed_db.physical
        )
        second = IterativeImprovement(seed=3).search(
            chain_plan(), cost_fn, indexed_db.physical
        )
        assert first.cost == second.cost
        assert first.plan == second.plan

    def test_exhaustive_at_least_as_good(self, indexed_db, cost_fn):
        start = chain_plan()
        exhaustive = MemoizedEnumeration(prune_factor=None, max_plans=500).search(
            start, cost_fn, indexed_db.physical
        )
        improving = IterativeImprovement(seed=1).search(
            start, cost_fn, indexed_db.physical
        )
        assert exhaustive.cost <= improving.cost + 1e-9

    def test_exhaustive_counts_plans(self, indexed_db, cost_fn):
        closure = MemoizedEnumeration(prune_factor=None, max_plans=500)
        result = closure.search(chain_plan(), cost_fn, indexed_db.physical)
        assert result.plans_costed >= 2
        assert result.plans_costed == closure.last_stats.subplans_memoized
        assert closure.last_stats.pruned_branches == 0

    def test_exhaustive_stops_at_max_plans(self, indexed_db, cost_fn):
        full = MemoizedEnumeration(prune_factor=None).search(
            join_plan(), cost_fn, indexed_db.physical
        )
        assert full.plans_costed > 2
        capped = MemoizedEnumeration(prune_factor=None, max_plans=2)
        result = capped.search(join_plan(), cost_fn, indexed_db.physical)
        # The cap is checked between expansions: the plan being expanded
        # finishes its neighbourhood, so the memo may overshoot it.
        assert capped.last_stats.expanded == 1
        assert 2 <= result.plans_costed < full.plans_costed
