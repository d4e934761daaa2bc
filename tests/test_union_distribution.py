"""Tests for the Section 5 extension: distributing union over join."""

import pytest

from repro.core.enumerate import MemoizedEnumeration
from repro.core.moves import neighbors
from repro.cost import DetailedCostModel
from repro.engine import Engine
from repro.plans import EJ, EntityLeaf, Proj, Sel, UnionOp, find_all, validate_plan
from repro.querygraph.builder import const, eq, ge, out, path, var


def union_join_plan():
    """(early composers ∪ late composers) ⋈ their direct disciples."""
    early = Proj(
        Sel(EntityLeaf("Composer", "a"), ge(const(1650), path("a", "birthyear"))),
        out(m=var("a")),
    )
    late = Proj(
        Sel(EntityLeaf("Composer", "b"), ge(path("b", "birthyear"), const(1651))),
        out(m=var("b")),
    )
    return Proj(
        EJ(
            UnionOp(early, late),
            EntityLeaf("Composer", "d"),
            eq(path("d", "master"), var("m")),
        ),
        out(n=path("d", "name")),
    )


class TestDistributionMoves:
    def test_not_offered_by_default(self, indexed_db):
        options = neighbors(union_join_plan(), indexed_db.physical)
        assert not any("distribute" in desc for desc, _p in options)

    def test_distribute_left(self, indexed_db):
        options = neighbors(
            union_join_plan(), indexed_db.physical, extended=True
        )
        distributed = [
            plan for desc, plan in options if desc == "distribute-union-left"
        ]
        assert distributed
        plan = distributed[0]
        validate_plan(plan, indexed_db.physical)
        union = find_all(plan, UnionOp)[0]
        assert isinstance(union.left, EJ) and isinstance(union.right, EJ)

    def test_distribution_preserves_answers(self, indexed_db):
        engine = Engine(indexed_db.physical)
        original = union_join_plan()
        options = neighbors(original, indexed_db.physical, extended=True)
        distributed = [
            plan for desc, plan in options if desc.startswith("distribute")
        ][0]
        assert (
            engine.execute(original).answer_set()
            == engine.execute(distributed).answer_set()
        )

    def test_factorize_inverts_distribution(self, indexed_db):
        original = union_join_plan()
        options = neighbors(original, indexed_db.physical, extended=True)
        distributed = [
            plan for desc, plan in options if desc.startswith("distribute")
        ][0]
        back = [
            plan
            for desc, plan in neighbors(
                distributed, indexed_db.physical, extended=True
            )
            if desc.startswith("factorize")
        ]
        assert original in back

    def test_distribute_right_side(self, indexed_db):
        inner_union = UnionOp(
            Proj(EntityLeaf("Composer", "a"), out(m=var("a"))),
            Proj(EntityLeaf("Composer", "b"), out(m=var("b"))),
        )
        plan = Proj(
            EJ(
                EntityLeaf("Composer", "d"),
                inner_union,
                eq(path("d", "master"), var("m")),
            ),
            out(n=path("d", "name")),
        )
        options = neighbors(plan, indexed_db.physical, extended=True)
        distributed = [
            p for desc, p in options if desc == "distribute-union-right"
        ]
        assert distributed
        validate_plan(distributed[0], indexed_db.physical)
        engine = Engine(indexed_db.physical)
        assert (
            engine.execute(plan).answer_set()
            == engine.execute(distributed[0]).answer_set()
        )


class TestDistributionInSearch:
    def test_extended_strategy_explores_distribution(self, indexed_db):
        model = DetailedCostModel(indexed_db.physical)
        strategy = MemoizedEnumeration()
        strategy.extended_moves = True
        result = strategy.search(
            union_join_plan(), model.cost, indexed_db.physical
        )
        assert result.cost <= model.cost(union_join_plan())
        validate_plan(result.plan, indexed_db.physical)

    def test_extended_never_worse_than_plain(self, indexed_db):
        model = DetailedCostModel(indexed_db.physical)
        plain = MemoizedEnumeration().search(
            union_join_plan(), model.cost, indexed_db.physical
        )
        extended = MemoizedEnumeration()
        extended.extended_moves = True
        extended_result = extended.search(
            union_join_plan(), model.cost, indexed_db.physical
        )
        assert extended_result.cost <= plain.cost + 1e-9
