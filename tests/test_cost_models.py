"""Tests for the detailed (Figure 5) and simplified (§4.6) cost models."""

import pytest

from repro.cost import (
    CostParameters,
    DetailedCostModel,
    SimplifiedCostModel,
    SimplifiedParameters,
    Sym,
)
from repro.engine import Engine
from repro.errors import CostModelError
from repro.plans import (
    EJ,
    IJ,
    INDEX_JOIN,
    NESTED_LOOP,
    PIJ,
    EntityLeaf,
    Fix,
    Proj,
    RecLeaf,
    Sel,
    UnionOp,
)
from repro.querygraph.builder import add, const, eq, ge, out, path, var
from repro.workloads import MusicConfig, generate_music_database


def make_fix():
    base = Proj(
        EntityLeaf("Composer", "x"),
        out(master=path("x", "master"), disciple=var("x"), gen=const(1)),
    )
    recursive = Proj(
        EJ(
            RecLeaf("Influencer", "i"),
            EntityLeaf("Composer", "x"),
            eq(path("i", "disciple"), path("x", "master")),
        ),
        out(
            master=path("i", "master"),
            disciple=var("x"),
            gen=add(path("i", "gen"), const(1)),
        ),
    )
    return Fix(
        "Influencer", UnionOp(base, recursive), "i", "Composer", "master", {"master"}
    )


class TestDetailedModel:
    def test_scan_cost_is_pages(self, indexed_db):
        model = DetailedCostModel(indexed_db.physical)
        report = model.report(EntityLeaf("Composer", "x"))
        pages = indexed_db.physical.statistics.pages("Composer")
        assert report.io == pytest.approx(pages * model.params.page_read)

    def test_selection_adds_cpu(self, indexed_db):
        model = DetailedCostModel(indexed_db.physical)
        leaf_cost = model.cost(EntityLeaf("Composer", "x"))
        sel_cost = model.cost(
            Sel(
                EntityLeaf("Composer", "x"),
                ge(path("x", "birthyear"), const(1700)),
            )
        )
        assert sel_cost > leaf_cost

    def test_indexed_selection_cheaper_than_scan(self, indexed_db):
        model = DetailedCostModel(indexed_db.physical)
        indexed = model.cost(
            Sel(EntityLeaf("Composer", "x"), eq(path("x", "name"), const("Bach")))
        )
        # Same predicate on an unindexed attribute: full scan.
        unindexed = model.cost(
            Sel(
                EntityLeaf("Composer", "x"),
                eq(path("x", "birthyear"), const(1700)),
            )
        )
        assert indexed < unindexed

    def test_method_predicates_cost_more(self, indexed_db):
        """The paper's motivation: selections invoking methods are
        expensive, scaled by the method's eval weight."""
        model = DetailedCostModel(indexed_db.physical)
        catalog = indexed_db.catalog
        cheap = model.cost(
            Sel(EntityLeaf("Composer", "x"), ge(path("x", "birthyear"), const(0)))
        )
        catalog.get("Person").methods["age"].eval_weight = 500.0
        try:
            expensive = model.cost(
                Sel(EntityLeaf("Composer", "x"), ge(path("x", "age"), const(50)))
            )
        finally:
            catalog.get("Person").methods["age"].eval_weight = 1.0
        assert expensive > cheap

    def test_ij_cost_grows_with_input(self, indexed_db):
        model = DetailedCostModel(indexed_db.physical)
        small = model.cost(
            IJ(
                Sel(
                    EntityLeaf("Composer", "x"),
                    eq(path("x", "name"), const("Bach")),
                ),
                EntityLeaf("Composition", "w"),
                path("x", "works"),
                "w",
            )
        )
        large = model.cost(
            IJ(
                EntityLeaf("Composer", "x"),
                EntityLeaf("Composition", "w"),
                path("x", "works"),
                "w",
            )
        )
        assert small < large

    def test_nested_loop_vs_index_join(self):
        left = Sel(
            EntityLeaf("Composer", "a"),
            ge(path("a", "birthyear"), const(0)),
        )
        right = EntityLeaf("Composer", "b")
        predicate = eq(path("a", "name"), path("b", "name"))
        # A pool that holds the inner (rescans are free) and a starved
        # one: in both regimes the EJ algorithm the model prefers is
        # the one that measures cheaper, each run from a cleared buffer.
        for buffer_pages in (256, 1):
            db = generate_music_database(
                MusicConfig(
                    lineages=3,
                    generations=7,
                    works_per_composer=3,
                    seed=7,
                    buffer_pages=buffer_pages,
                )
            )
            db.build_paper_indexes()
            model = DetailedCostModel(db.physical)
            measured = {}
            estimated = {}
            for algorithm in (NESTED_LOOP, INDEX_JOIN):
                plan = EJ(left, right, predicate, algorithm)
                estimated[algorithm] = model.cost(plan)
                db.store.buffer.clear()
                measured[algorithm] = (
                    Engine(db.physical).execute(plan).metrics.measured_cost()
                )
            preferred = min(estimated, key=estimated.get)
            other = INDEX_JOIN if preferred == NESTED_LOOP else NESTED_LOOP
            assert measured[preferred] < measured[other], (
                buffer_pages,
                estimated,
                measured,
            )

    def test_fix_cost_scales_with_iterations(self, indexed_db):
        model = DetailedCostModel(indexed_db.physical)
        fix_cost = model.cost(make_fix())
        base_only = model.cost(
            Proj(
                EntityLeaf("Composer", "x"),
                out(master=path("x", "master"), disciple=var("x"), gen=const(1)),
            )
        )
        iterations = indexed_db.physical.statistics.estimated_fixpoint_iterations(
            "Composer", "master"
        )
        assert fix_cost > base_only * 2
        assert iterations >= 2

    def test_report_rows_cover_operators(self, indexed_db):
        model = DetailedCostModel(indexed_db.physical)
        report = model.report(
            Sel(EntityLeaf("Composer", "x"), ge(path("x", "birthyear"), const(0)))
        )
        labels = [label for label, _cost in report.rows]
        assert any(label.startswith("Sel") for label in labels)
        assert report.total == pytest.approx(report.io + report.cpu)

    def test_buffer_capacity_changes_deref_cost(self, indexed_db):
        big_buffer = DetailedCostModel(
            indexed_db.physical, CostParameters(buffer_pages=512)
        )
        tiny_buffer = DetailedCostModel(
            indexed_db.physical, CostParameters(buffer_pages=1)
        )
        plan = IJ(
            EntityLeaf("Composer", "x"),
            EntityLeaf("Composition", "w"),
            path("x", "works"),
            "w",
        )
        assert tiny_buffer.cost(plan) >= big_buffer.cost(plan)


class TestSimplifiedModel:
    def test_numeric_cost_positive(self, indexed_db):
        model = SimplifiedCostModel(indexed_db.physical)
        assert model.cost(make_fix()) > 0

    def test_sel_row_formula(self, indexed_db):
        model = SimplifiedCostModel(indexed_db.physical)
        plan = Sel(
            Proj(EntityLeaf("Composer", "x"), out(n=path("x", "name"))),
            eq(var("n"), const("Bach")),
        )
        rows = model.table(plan, symbolic=True, entity_abbreviations={"Composer": "Cpr"})
        sel_row = [r for r in rows if r.operator.startswith("Sel")][0]
        rendered = repr(sel_row.formula)
        # |T1| * (pr + ev): scan pages plus one eval per page.
        assert "ev*|T1|" in rendered and "pr*|T1|" in rendered

    def test_ij_row_formula(self, indexed_db):
        model = SimplifiedCostModel(indexed_db.physical)
        plan = IJ(
            Sel(EntityLeaf("Composer", "x"), ge(path("x", "birthyear"), const(0))),
            EntityLeaf("Composer", "m2"),
            path("x", "master"),
            "mm",
        )
        rows = model.table(plan, symbolic=True, entity_abbreviations={"Composer": "Cpr"})
        ij_row = [r for r in rows if r.operator.startswith("IJ")][0]
        rendered = repr(ij_row.formula)
        assert "pr*|T1|" in rendered and "pr*||T1||" in rendered

    def test_pij_row_uses_lev_and_lea(self, indexed_db):
        model = SimplifiedCostModel(indexed_db.physical)
        plan = PIJ(
            Sel(EntityLeaf("Composer", "x"), ge(path("x", "birthyear"), const(0))),
            [EntityLeaf("Composition", "w"), EntityLeaf("Instrument", "i")],
            ["works", "instruments"],
            var("x"),
            ["w", "i"],
        )
        rows = model.table(
            plan, symbolic=True, entity_abbreviations={"Composer": "Cpr"}
        )
        pij_row = [r for r in rows if r.operator.startswith("PIJ")][0]
        rendered = repr(pij_row.formula)
        assert "lev" in rendered and "lea/||Cpr||" in rendered

    def test_fix_row_has_iteration_symbol(self, indexed_db):
        model = SimplifiedCostModel(indexed_db.physical)
        rows = model.table(
            make_fix(),
            symbolic=True,
            entity_abbreviations={"Composer": "Cpr", "Influencer": "Inf"},
        )
        fix_row = [r for r in rows if r.operator.startswith("Fix")][0]
        rendered = repr(fix_row.formula)
        assert "n_1" in rendered
        assert "Inf_i" in rendered

    def test_fix_inner_rows_sectioned(self, indexed_db):
        model = SimplifiedCostModel(indexed_db.physical)
        rows = model.table(make_fix(), symbolic=True)
        sections = {row.section for row in rows}
        assert "fix-base" in sections and "fix-rec" in sections
        main_rows = [row for row in rows if row.section == "main"]
        assert len(main_rows) == 1  # just the Fix row

    def test_total_skips_fix_internal_rows(self, indexed_db):
        model = SimplifiedCostModel(indexed_db.physical)
        rows = model.table(make_fix(), symbolic=False)
        total = model.total(rows)
        fix_row = [r for r in rows if r.operator.startswith("Fix")][0]
        assert total == pytest.approx(fix_row.formula)

    def test_symbolic_evaluates_under_assignment(self, indexed_db):
        model = SimplifiedCostModel(indexed_db.physical)
        plan = Sel(
            Proj(EntityLeaf("Composer", "x"), out(n=path("x", "name"))),
            eq(var("n"), const("Bach")),
        )
        rows = model.table(
            plan,
            symbolic=True,
            entity_abbreviations={"Composer": "Cpr"},
            size_assignment={"|Cpr|": 10, "||Cpr||": 200, "|T1|": 10, "||T1||": 200},
        )
        for row in rows:
            assert not isinstance(row.formula, Sym)

    def test_custom_parameters_scale_cost(self, indexed_db):
        cheap = SimplifiedCostModel(
            indexed_db.physical, SimplifiedParameters(pr=1.0, ev=0.1)
        )
        pricey = SimplifiedCostModel(
            indexed_db.physical, SimplifiedParameters(pr=10.0, ev=1.0)
        )
        plan = Sel(
            Proj(EntityLeaf("Composer", "x"), out(n=path("x", "name"))),
            eq(var("n"), const("Bach")),
        )
        assert pricey.cost(plan) > cheap.cost(plan)


class TestVarmapFallback:
    """The numeric table asks the estimator for the variable shapes a
    selectivity needs; only the estimator's own typed refusal falls
    back to default selectivities, anything else propagates."""

    def _cost_with(self, indexed_db, monkeypatch, error):
        model = SimplifiedCostModel(indexed_db.physical)
        varmaps = []
        selectivity = model.estimator.predicate_selectivity

        def estimate(node, delta_env=None):
            raise error

        def recording_selectivity(predicate, varmap):
            varmaps.append(varmap)
            return selectivity(predicate, varmap)

        monkeypatch.setattr(model.estimator, "estimate", estimate)
        monkeypatch.setattr(
            model.estimator, "predicate_selectivity", recording_selectivity
        )
        plan = Sel(
            Proj(EntityLeaf("Composer", "x"), out(n=path("x", "name"))),
            eq(var("n"), const("Bach")),
        )
        return model.cost(plan), varmaps

    def test_cost_model_error_uses_default_selectivities(
        self, indexed_db, monkeypatch
    ):
        cost, varmaps = self._cost_with(
            indexed_db, monkeypatch, CostModelError("injected")
        )
        assert cost > 0
        assert varmaps == [{}]

    def test_unexpected_error_propagates(self, indexed_db, monkeypatch):
        with pytest.raises(AttributeError, match="injected"):
            self._cost_with(indexed_db, monkeypatch, AttributeError("injected"))
