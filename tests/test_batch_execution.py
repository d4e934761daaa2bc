"""Batch-vectorized execution: parity, metering, compile-once caching.

The batch refactor's contract is that ``batch_size`` is invisible to
everything except throughput: the answer set, the per-node tuple
counters and the predicate-evaluation counts must be identical at any
batch size (1 reproduces the old tuple-at-a-time engine exactly), and
the per-plan-node closures must be compiled once per execution, never
once per tuple.
"""

import logging
import math

import pytest

from repro.cost.params import CostParameters
from repro.engine import DEFAULT_BATCH_SIZE, Engine, default_batch_size
from repro.plans import EntityLeaf, Proj, Sel
from repro.querygraph.builder import and_, const, eq, ge, le, out, path
from tests.test_engine import make_fix


def filter_plan():
    """Scan + conjunctive filter + projection (the closure-heavy
    shape: two predicate conjuncts, one projected path)."""
    return Proj(
        Sel(
            EntityLeaf("Composer", "x"),
            and_(
                ge(path("x", "birthyear"), const(1600)),
                le(path("x", "birthyear"), const(1850)),
            ),
        ),
        out(name=path("x", "name")),
    )


class TestConfigurationPlumbing:
    def test_default_batch_size_mirrors_cost_parameters(self):
        # The model prices plans at the batch size the engine runs by
        # default: both read repro.units.
        assert CostParameters().batch_size == DEFAULT_BATCH_SIZE

    def test_env_var_overrides_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_SIZE", "32")
        assert default_batch_size() == 32

    def test_env_var_garbage_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_SIZE", "not-a-number")
        assert default_batch_size() == DEFAULT_BATCH_SIZE
        monkeypatch.setenv("REPRO_BATCH_SIZE", "0")
        assert default_batch_size() == DEFAULT_BATCH_SIZE

    def test_env_var_garbage_warns_structured(self, monkeypatch, caplog):
        # A typo'd environment must not silently run a whole suite at
        # the wrong batch size: the fallback carries a structured
        # warning naming the rejected value and the default used.
        monkeypatch.setenv("REPRO_BATCH_SIZE", "not-a-number")
        with caplog.at_level(logging.WARNING, logger="repro.engine"):
            assert default_batch_size() == DEFAULT_BATCH_SIZE
        [record] = caplog.records
        assert "malformed REPRO_BATCH_SIZE" in record.getMessage()
        assert record.value == "not-a-number"
        assert record.default == DEFAULT_BATCH_SIZE

        caplog.clear()
        monkeypatch.setenv("REPRO_BATCH_SIZE", "-3")
        with caplog.at_level(logging.WARNING, logger="repro.engine"):
            assert default_batch_size() == DEFAULT_BATCH_SIZE
        [record] = caplog.records
        assert "out-of-range REPRO_BATCH_SIZE" in record.getMessage()
        assert record.value == "-3"

    def test_engine_picks_up_env_default(self, small_db, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_SIZE", "17")
        assert Engine(small_db.physical).batch_size == 17
        # An explicit size always wins over the environment.
        assert Engine(small_db.physical, batch_size=3).batch_size == 3

    def test_nonpositive_batch_size_rejected(self, small_db):
        with pytest.raises(ValueError):
            Engine(small_db.physical, batch_size=0)

    def test_constructor_batch_size_sets_batches(self, small_db):
        engine = Engine(small_db.physical, batch_size=4)
        result = engine.execute(EntityLeaf("Composer", "x"))
        assert engine.batch_size == 4
        count = small_db.config.composer_count
        assert result.metrics.batches == math.ceil(count / 4)

    def test_shard_view_inherits_batch_size(self, small_db):
        engine = Engine(small_db.physical, batch_size=9)
        assert engine.shard_view(small_db.physical).batch_size == 9


class TestBatchMetering:
    def test_scan_emits_ceil_n_over_b_batches(self, small_db):
        count = small_db.config.composer_count
        for size in (1, 10, 10_000):
            engine = Engine(small_db.physical, batch_size=size)
            result = engine.execute(EntityLeaf("Composer", "x"))
            assert len(result.rows) == count
            assert result.metrics.batches == math.ceil(count / size)

    def test_batch_size_one_counts_one_batch_per_tuple(self, small_db):
        engine = Engine(small_db.physical, batch_size=1)
        result = engine.execute(EntityLeaf("Composer", "x"))
        assert result.metrics.batches == len(result.rows)


class TestBatchSizeParity:
    """batch_size only regroups emissions; every observable counter of
    the computation itself is invariant."""

    SIZES = (1, 3, 64, 4096)

    def run_at(self, db, plan, size):
        engine = Engine(db.physical, batch_size=size)
        result = engine.execute(plan)
        return engine, result

    def assert_parity(self, db, plan):
        baseline_engine, baseline = self.run_at(db, plan, self.SIZES[0])
        for size in self.SIZES[1:]:
            engine, result = self.run_at(db, plan, size)
            assert result.answer_set() == baseline.answer_set()
            assert (
                result.metrics.tuples_by_node
                == baseline.metrics.tuples_by_node
            )
            assert (
                result.metrics.predicate_evals
                == baseline.metrics.predicate_evals
            )
            assert (
                result.metrics.buffer.logical_reads
                == baseline.metrics.buffer.logical_reads
            )

    def test_flat_plan_parity(self, indexed_db):
        self.assert_parity(indexed_db, filter_plan())

    def test_recursive_plan_parity(self, indexed_db):
        # Project onto values: the raw Fix output binds temp records,
        # whose oids are freshly allocated every run.
        plan = Proj(
            make_fix(),
            out(who=path("i", "disciple", "name"), gen=path("i", "gen")),
        )
        self.assert_parity(indexed_db, plan)


class TestCompileOnceClosures:
    """Satellite regression test: predicates and projections compile to
    closures once per plan node per execution — the compilation
    counters must not scale with the number of tuples evaluated."""

    def compilations_on(self, db):
        engine = Engine(db.physical)
        result = engine.execute(filter_plan())
        evaluator = engine._evaluator
        return result, (
            evaluator.predicate_compilations,
            evaluator.expr_compilations,
            evaluator.path_compilations,
        )

    def test_compilation_counts_do_not_scale_with_tuples(
        self, small_db, larger_db
    ):
        small_result, small_counts = self.compilations_on(small_db)
        large_result, large_counts = self.compilations_on(larger_db)
        # The workload grew …
        assert (
            large_result.metrics.predicate_evals
            > small_result.metrics.predicate_evals
        )
        # … the compilation work did not.
        assert small_counts == large_counts
        # One top-level predicate, one projected expression; the paths
        # inside them compile once each too.
        assert small_counts[0] == 1

    def test_recompiling_same_node_hits_cache(self, small_db):
        engine = Engine(small_db.physical)
        plan = filter_plan()
        engine.execute(plan)
        evaluator = engine._evaluator
        before = evaluator.predicate_compilations
        first = evaluator.compile_predicate(plan.child.predicate)
        second = evaluator.compile_predicate(plan.child.predicate)
        assert first is second
        assert evaluator.predicate_compilations == before

