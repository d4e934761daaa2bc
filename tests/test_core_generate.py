"""Tests for generatePT: the generative SPJ optimizer."""

import pytest

from repro.core.generate import SPJGenerator
from repro.core.translate import Translator
from repro.cost import DetailedCostModel
from repro.engine import Engine, ReferenceEvaluator
from repro.errors import OptimizationError
from repro.plans import (
    EJ,
    HASH_JOIN,
    IJ,
    PIJ,
    EntityLeaf,
    Proj,
    Sel,
    find_all,
    validate_plan,
)
from repro.querygraph.builder import (
    and_,
    arc,
    const,
    eq,
    ge,
    out,
    path,
    query,
    rule,
    spj,
    var,
)
from repro.workloads import fig2_query


@pytest.fixture()
def toolchain(indexed_db):
    translator = Translator(indexed_db.physical)
    model = DetailedCostModel(indexed_db.physical)
    generator = SPJGenerator(indexed_db.physical, model)
    return indexed_db, translator, generator


def generate(toolchain, node):
    db, translator, generator = toolchain
    translated = translator.translate_node(node)
    sources = [
        EntityLeaf(translated_arc.entity, translated_arc.root_var)
        for translated_arc in translated.arcs
    ]
    return generator.generate(translated, sources)


class TestSingleArc:
    def test_simple_selection(self, toolchain):
        db, _t, _g = toolchain
        node = spj(
            [arc("Composer", x=".")],
            where=eq(path("x", "name"), const("Bach")),
            select=out(n=path("x", "name")),
        )
        generated = generate(toolchain, node)
        validate_plan(generated.plan, db.physical)
        assert isinstance(generated.plan, Proj)
        assert find_all(generated.plan, Sel)
        assert generated.cost > 0

    def test_sel_applied_before_hops(self, toolchain):
        """The sel action fires as soon as possible: the name filter
        sits directly on the Composer scan, below the works hop."""
        db, _t, _g = toolchain
        node = spj(
            [arc("Composer", x=".", t="works.*.title")],
            where=eq(path("x", "name"), const("Bach")),
            select=out(t=var("t")),
        )
        generated = generate(toolchain, node)
        sel = find_all(generated.plan, Sel)[0]
        assert isinstance(sel.child, EntityLeaf)

    def test_collapse_considered(self, toolchain):
        db, _t, _g = toolchain
        node = spj(
            [arc("Composer", x=".")],
            where=eq(
                path("x", "works", "instruments", "name"), const("harpsichord")
            ),
            select=out(n=path("x", "name")),
        )
        generated = generate(toolchain, node)
        validate_plan(generated.plan, db.physical)
        # Either realization is fine; both IJ-chain and PIJ variants
        # were generated, so at least 2 candidates were considered.
        assert generated.candidates_considered >= 2

    def test_execution_matches_reference(self, toolchain):
        db, _t, _g = toolchain
        graph = fig2_query()
        node = graph.producers_of("Answer")[0].node
        generated = generate(toolchain, node)
        engine = Engine(db.physical)
        reference = ReferenceEvaluator(db.physical)
        assert (
            engine.execute(generated.plan).answer_set()
            == reference.answer_set(graph)
        )


class TestJoins:
    def join_node(self):
        return spj(
            [arc("Composer", a="."), arc("Composer", b=".")],
            where=and_(
                eq(path("a", "name"), const("Bach")),
                eq(path("b", "master"), var("a")),
            ),
            select=out(n=path("b", "name")),
        )

    def test_join_generated(self, toolchain):
        db, _t, _g = toolchain
        generated = generate(toolchain, self.join_node())
        joins = find_all(generated.plan, EJ)
        assert len(joins) == 1
        validate_plan(generated.plan, db.physical)

    def test_generated_plan_not_worse_than_hand_orders(self, toolchain):
        """DP output costs no more than either hand-built join order
        (built as the hash joins the generator emits for an equality)."""
        db, _t, _g = toolchain
        from repro.cost import DetailedCostModel
        from repro.querygraph.builder import out as out_

        model = DetailedCostModel(db.physical)
        generated = generate(toolchain, self.join_node())
        bach_sel = Sel(
            EntityLeaf("Composer", "a"), eq(path("a", "name"), const("Bach"))
        )
        predicate = eq(path("b", "master"), var("a"))
        projection = out_(n=path("b", "name"))
        bach_outer = Proj(
            EJ(bach_sel, EntityLeaf("Composer", "b"), predicate, HASH_JOIN),
            projection,
        )
        bach_inner = Proj(
            EJ(EntityLeaf("Composer", "b"), bach_sel, predicate, HASH_JOIN),
            projection,
        )
        assert generated.cost <= model.cost(bach_outer) + 1e-9
        assert generated.cost <= model.cost(bach_inner) + 1e-9

    def test_join_executes_correctly(self, toolchain):
        db, _t, _g = toolchain
        generated = generate(toolchain, self.join_node())
        engine = Engine(db.physical)
        result = engine.execute(generated.plan)
        # Bach's direct disciple (exactly one per the chain layout).
        assert len(result) >= 1

    def test_cartesian_product_rejected(self, toolchain):
        node = spj(
            [arc("Composer", a="."), arc("Instrument", b=".")],
            where=and_(
                eq(path("a", "name"), const("Bach")),
                eq(path("b", "name"), const("flute")),
            ),
            select=out(n=path("a", "name")),
        )
        with pytest.raises(OptimizationError):
            generate(toolchain, node)

    def test_three_way_join(self, toolchain):
        db, _t, _g = toolchain
        node = spj(
            [arc("Composer", a="."), arc("Composer", b="."), arc("Composer", c=".")],
            where=and_(
                eq(path("b", "master"), var("a")),
                eq(path("c", "master"), var("b")),
                eq(path("a", "name"), const("Bach")),
            ),
            select=out(n=path("c", "name")),
        )
        generated = generate(toolchain, node)
        validate_plan(generated.plan, db.physical)
        assert len(find_all(generated.plan, EJ)) == 2
        engine = Engine(db.physical)
        result = engine.execute(generated.plan)
        assert len(result) >= 1  # grand-disciples of Bach

    def test_deferred_chain_variant_considered(self, toolchain):
        """An arc with a hop chain not needed by the join predicate
        yields eager and deferred variants."""
        node = spj(
            [arc("Composer", a="."), arc("Composer", b=".")],
            where=and_(
                eq(path("b", "master"), var("a")),
                eq(path("a", "works", "title"), const("work_00001")),
            ),
            select=out(n=path("b", "name")),
        )
        generated = generate(toolchain, node)
        # eager + deferred profiles both explored.
        assert generated.candidates_considered >= 4
