"""Tests for the execution engine: operators, fixpoint, metrics."""

import pytest

from repro.core.baselines import cost_controlled_optimizer
from repro.errors import ExecutionError, PlanError
from repro.engine import Batch, Engine, ReferenceEvaluator, canonical_row
from repro.engine import fixpoint as fixpoint_mod
from repro.engine.fixpoint import flatten_union, partition_parts
from repro.lang import compile_text
from repro.plans import (
    EJ,
    IJ,
    INDEX_JOIN,
    PIJ,
    EntityLeaf,
    Fix,
    Materialize,
    Proj,
    RecLeaf,
    Sel,
    UnionOp,
)
from repro.querygraph.builder import add, and_, const, eq, ge, out, path, var
from repro.workloads import MusicConfig, fig3_query, generate_music_database


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


class TestScansAndSelections:
    def test_scan_binds_every_record(self, indexed_db):
        engine = Engine(indexed_db.physical)
        result = engine.execute(EntityLeaf("Composer", "x"))
        assert len(result) == indexed_db.config.composer_count

    def test_selection_filters(self, indexed_db):
        engine = Engine(indexed_db.physical)
        result = engine.execute(
            Sel(
                EntityLeaf("Composer", "x"),
                eq(path("x", "name"), const("Bach")),
            )
        )
        assert len(result) == 1
        assert result.rows[0]["x"].values["name"] == "Bach"

    def test_indexed_selection_reads_fewer_pages(self, indexed_db):
        engine = Engine(indexed_db.physical)
        indexed = engine.execute(
            Sel(EntityLeaf("Composer", "x"), eq(path("x", "name"), const("Bach")))
        )
        # Indexed access: only the matching record's page is touched.
        assert indexed.metrics.buffer.logical_reads <= 2
        assert indexed.metrics.index_lookups == 1

    def test_method_invocation_in_predicate(self, indexed_db):
        engine = Engine(indexed_db.physical)
        result = engine.execute(
            Sel(EntityLeaf("Composer", "x"), ge(path("x", "age"), const(200)))
        )
        for row in result.rows:
            assert 1992 - row["x"].values["birthyear"] >= 200
        assert engine.metrics.method_eval_weight > 0

    def test_multivalued_path_existential(self, indexed_db):
        engine = Engine(indexed_db.physical)
        result = engine.execute(
            Sel(
                EntityLeaf("Composer", "x"),
                eq(
                    path("x", "works", "instruments", "name"),
                    const("harpsichord"),
                ),
            )
        )
        # Exists-semantics: each composer appears at most once.
        names = [row["x"].values["name"] for row in result.rows]
        assert len(names) == len(set(names))


class TestJoins:
    def test_ij_expands_collections(self, indexed_db):
        engine = Engine(indexed_db.physical)
        result = engine.execute(
            IJ(
                EntityLeaf("Composer", "x"),
                EntityLeaf("Composition", "w"),
                path("x", "works"),
                "w",
            )
        )
        expected = (
            indexed_db.config.composer_count
            * indexed_db.config.works_per_composer
        )
        assert len(result) == expected

    def test_ij_drops_null_references(self, indexed_db):
        engine = Engine(indexed_db.physical)
        result = engine.execute(
            IJ(
                EntityLeaf("Composer", "x"),
                EntityLeaf("Composer", "m"),
                path("x", "master"),
                "m",
            )
        )
        founders = indexed_db.config.lineages
        assert len(result) == indexed_db.config.composer_count - founders

    def test_pij_matches_ij_chain(self, indexed_db):
        engine = Engine(indexed_db.physical)
        chain = IJ(
            IJ(
                EntityLeaf("Composer", "x"),
                EntityLeaf("Composition", "w"),
                path("x", "works"),
                "w",
            ),
            EntityLeaf("Instrument", "ins"),
            path("w", "instruments"),
            "ins",
        )
        pij = PIJ(
            EntityLeaf("Composer", "x"),
            [EntityLeaf("Composition", "w"), EntityLeaf("Instrument", "ins")],
            ["works", "instruments"],
            var("x"),
            ["w", "ins"],
        )
        chain_result = engine.execute(chain)
        pij_result = engine.execute(pij)
        assert chain_result.answer_set() == pij_result.answer_set()
        assert pij_result.metrics.index_lookups > 0

    def test_nested_loop_join(self, indexed_db):
        engine = Engine(indexed_db.physical)
        result = engine.execute(
            EJ(
                Sel(
                    EntityLeaf("Composer", "a"),
                    eq(path("a", "name"), const("Bach")),
                ),
                EntityLeaf("Composer", "b"),
                eq(path("b", "master"), var("a")),
            )
        )
        # Bach's direct disciples.
        for row in result.rows:
            assert row["b"].values["master"] == row["a"].oid

    def test_index_join_equals_nested_loop(self, indexed_db):
        left = Sel(
            EntityLeaf("Composer", "a"), ge(path("a", "birthyear"), const(1700))
        )
        right = EntityLeaf("Composer", "b")
        predicate = eq(path("a", "name"), path("b", "name"))
        engine = Engine(indexed_db.physical)
        nested = engine.execute(EJ(left, right, predicate))
        indexed = engine.execute(EJ(left, right, predicate, INDEX_JOIN))
        assert nested.answer_set() == indexed.answer_set()
        assert indexed.metrics.index_lookups > 0

    def test_index_join_without_index_raises(self, small_db):
        plan = EJ(
            EntityLeaf("Composer", "a"),
            EntityLeaf("Composer", "b"),
            eq(path("a", "birthyear"), path("b", "birthyear")),
            INDEX_JOIN,
        )
        engine = Engine(small_db.physical)
        with pytest.raises(ExecutionError):
            engine.execute(plan)


class TestFixpoint:
    def test_flatten_and_partition(self):
        fix = make_fix()
        parts = flatten_union(fix.body)
        assert len(parts) == 2
        base, recursive = partition_parts(fix)
        assert len(base) == 1 and len(recursive) == 1

    def test_fixpoint_computes_transitive_closure(self, indexed_db):
        engine = Engine(indexed_db.physical)
        result = engine.execute(make_fix())
        config = indexed_db.config
        expected = sum(
            config.lineages * (config.generations - g)
            for g in range(1, config.generations)
        )
        assert len(result) == expected
        assert engine.metrics.fix_iterations == config.generations - 1

    def test_fixpoint_gen_values(self, indexed_db):
        engine = Engine(indexed_db.physical)
        result = engine.execute(make_fix())
        gens = {row["i"].values["gen"] for row in result.rows}
        assert gens == set(range(1, indexed_db.config.generations))

    def test_fixpoint_deduplicates(self, indexed_db):
        engine = Engine(indexed_db.physical)
        result = engine.execute(make_fix())
        keys = {canonical_row(dict(row["i"].values)) for row in result.rows}
        assert len(keys) == len(result)

    def test_temp_extents_dropped_after_execution(self, indexed_db):
        engine = Engine(indexed_db.physical)
        before = set(indexed_db.store.extent_names())
        engine.execute(make_fix())
        assert set(indexed_db.store.extent_names()) == before

    def test_keep_temps_option(self, indexed_db):
        engine = Engine(indexed_db.physical, keep_temps=True)
        before = set(indexed_db.store.extent_names())
        engine.execute(make_fix())
        assert set(indexed_db.store.extent_names()) > before

    def test_divergent_fixpoint_capped(self, indexed_db):
        engine = Engine(indexed_db.physical, max_fix_iterations=3)
        base = Proj(EntityLeaf("Composer", "x"), out(n=path("x", "name"), k=const(0)))
        recursive = Proj(
            Sel(RecLeaf("R", "r"), ge(path("r", "k"), const(0))),
            out(n=path("r", "n"), k=add(path("r", "k"), const(1))),
        )
        divergent = Fix("R", UnionOp(base, recursive), "r")
        with pytest.raises(ExecutionError):
            engine.execute(divergent)

    def test_rec_leaf_outside_fix_rejected(self, indexed_db):
        engine = Engine(indexed_db.physical)
        with pytest.raises(PlanError):
            engine.execute(Sel(RecLeaf("R", "r"), ge(path("r", "k"), const(0))))


class TestMaterializeAndUnion:
    def test_union_concatenates(self, indexed_db):
        engine = Engine(indexed_db.physical)
        left = Proj(EntityLeaf("Composer", "x"), out(n=path("x", "name")))
        right = Proj(EntityLeaf("Instrument", "y"), out(n=path("y", "name")))
        result = engine.execute(UnionOp(left, right))
        assert len(result) == (
            indexed_db.config.composer_count + indexed_db.config.instruments
        )

    def test_materialize_round_trips(self, indexed_db):
        engine = Engine(indexed_db.physical)
        inner = Proj(EntityLeaf("Composer", "x"), out(n=path("x", "name")))
        result = engine.execute(
            Proj(Materialize("V", inner, "v"), out(name=path("v", "n")))
        )
        names = {row["name"] for row in result.rows}
        assert "Bach" in names


class TestMetricsAndEquivalence:
    def test_measured_cost_combines_io_and_cpu(self, indexed_db):
        engine = Engine(indexed_db.physical)
        result = engine.execute(
            Sel(EntityLeaf("Composer", "x"), ge(path("x", "birthyear"), const(0)))
        )
        assert result.metrics.measured_cost() > 0
        assert result.metrics.predicate_evals == indexed_db.config.composer_count

    def test_reference_evaluator_agrees_with_engine(self, indexed_db):
        reference = ReferenceEvaluator(indexed_db.physical)
        want = reference.answer_set(fig3_query())
        fix = make_fix()
        plan = Proj(
            IJ(
                Sel(
                    PIJ(
                        IJ(
                            Sel(fix, ge(path("i", "gen"), const(6))),
                            EntityLeaf("Composer", "m"),
                            path("i", "master"),
                            "m",
                        ),
                        [
                            EntityLeaf("Composition", "w"),
                            EntityLeaf("Instrument", "ins"),
                        ],
                        ["works", "instruments"],
                        var("m"),
                        ["w", "ins"],
                    ),
                    eq(path("ins", "name"), const("harpsichord")),
                ),
                EntityLeaf("Composer", "d"),
                path("i", "disciple"),
                "d",
            ),
            out(name=path("d", "name")),
        )
        engine = Engine(indexed_db.physical)
        assert engine.execute(plan).answer_set() == want


RECURSIVE = """
view Influencer as
  select [master: x.master, disciple: x, gen: 1] from x in Composer
  union
  select [master: i.master, disciple: x, gen: i.gen + 1]
  from i in Influencer, x in Composer where i.disciple = x.master;
select [name: i.disciple.name, gen: i.gen] from i in Influencer;
"""


def _recursive_plan():
    db = generate_music_database(
        MusicConfig(lineages=3, generations=6, works_per_composer=2, seed=3)
    )
    db.build_paper_indexes()
    graph = compile_text(RECURSIVE, db.catalog)
    return db, cost_controlled_optimizer(db.physical).optimize(graph).plan


class TestSeenProbeNormalization:
    def test_normalize_runs_once_per_field_at_insertion(self, monkeypatch):
        """Regression: the seen-set probe used to re-normalize every
        value of every produced binding (2x per field); normalization
        now happens exactly once per field, at insertion time.  Pinned
        to the row probe (every batch declared row-constructed) — the
        columnar dedup path assembles its keys straight from normalized
        columns and never routes through ``key_of_normalized``, so this
        accounting is row-specific."""
        monkeypatch.setattr(Batch, "is_columnar", False)
        db, plan = _recursive_plan()

        normalize_calls = [0]
        real_normalize = fixpoint_mod.normalize_value

        def counting_normalize(value):
            normalize_calls[0] += 1
            return real_normalize(value)

        key_calls = [0]
        real_key = fixpoint_mod.key_of_normalized

        def counting_key(values):
            key_calls[0] += 1
            return real_key(values)

        monkeypatch.setattr(
            fixpoint_mod, "normalize_value", counting_normalize
        )
        monkeypatch.setattr(fixpoint_mod, "key_of_normalized", counting_key)
        Engine(db.physical).execute(plan)
        assert key_calls[0] > 0
        # Influencer tuples carry exactly 3 scalar fields (master,
        # disciple, gen): one normalize call per field per probed
        # binding — the old probe path would have doubled this.
        assert normalize_calls[0] == 3 * key_calls[0]

    def test_columnar_dedup_never_normalizes_more_than_row(self, monkeypatch):
        """The columnar dedup path normalizes column-wise (at most once
        per field per produced binding, and not at all for all-atomic
        columns) — so it can only ever call ``normalize_value`` fewer
        times than the row probe — the path row-constructed batches
        take — does for the same plan."""
        db, plan = _recursive_plan()

        real_normalize = fixpoint_mod.normalize_value

        def run(row_probe):
            calls = [0]

            def counting_normalize(value):
                calls[0] += 1
                return real_normalize(value)

            with monkeypatch.context() as patch:
                patch.setattr(
                    fixpoint_mod, "normalize_value", counting_normalize
                )
                if row_probe:
                    patch.setattr(Batch, "is_columnar", False)
                result = Engine(db.physical).execute(plan)
            return result.answer_set(), calls[0]

        row_answers, row_calls = run(row_probe=True)
        col_answers, col_calls = run(row_probe=False)
        assert col_answers == row_answers
        assert 0 < col_calls <= row_calls
