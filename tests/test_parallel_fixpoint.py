"""Unit coverage for the hash-partitioned parallel fixpoint.

Delta partitioning (disjointness, determinism, no lost tuples on
cyclic data), cancellation and error propagation out of worker
threads, deterministic results under barrier-forced adversarial
interleavings, and the insertion-time normalization of the seen-set
dedup path.
"""

import threading

import pytest

import repro.engine.parallel as parallel_mod
from repro.core.baselines import cost_controlled_optimizer
from repro.engine import (
    Batch,
    CancellationToken,
    Engine,
    ExecutionContext,
    ReferenceEvaluator,
    partition_delta,
    partitionable,
)
from repro.engine import fixpoint as fixpoint_mod
from repro.errors import ExecutionTimeout, FixpointLimitError
from repro.lang import compile_text
from repro.physical.storage import Oid, StoredRecord
from repro.plans.nodes import EJ, EntityLeaf, Proj, RecLeaf, Sel
from repro.querygraph.graph import OutputField, OutputSpec
from repro.querygraph.predicates import Comparison, PathRef
from repro.workloads import MusicConfig, generate_music_database

RECURSIVE = """
view Influencer as
  select [master: x.master, disciple: x, gen: 1] from x in Composer
  union
  select [master: i.master, disciple: x, gen: i.gen + 1]
  from i in Influencer, x in Composer where i.disciple = x.master;
select [name: i.disciple.name, gen: i.gen] from i in Influencer;
"""

# Converges even on cyclic data: no generation counter, so the tuple
# space is bounded by Composer x Composer.
CYCLIC_SAFE = """
view Reach as
  select [master: x.master, disciple: x] from x in Composer
  union
  select [master: r.master, disciple: x]
  from r in Reach, x in Composer where r.disciple = x.master;
select [m: r.disciple.name, d: r.gen] from r in Reach;
"""


def _music_db(**overrides):
    config = dict(lineages=3, generations=6, works_per_composer=2, seed=3)
    config.update(overrides)
    db = generate_music_database(MusicConfig(**config))
    db.build_paper_indexes()
    return db


def _cyclic_db():
    db = generate_music_database(
        MusicConfig(lineages=2, generations=5, works_per_composer=1, seed=5)
    )
    # Close each master chain into a cycle: the founder's master is the
    # chain's youngest composer.
    chain = db.composer_oids[:5]
    founder = db.store.peek(chain[0])
    founder.values["master"] = chain[-1]
    db.physical.refresh_statistics()
    return db


def _optimized(db, text):
    graph = compile_text(text, db.catalog)
    plan = cost_controlled_optimizer(db.physical).optimize(graph).plan
    return graph, plan


def _records(count, fields):
    records = []
    for index in range(count):
        values = {name: f"{name}-{index % 7}" for name in fields}
        values["n"] = index
        records.append(StoredRecord(Oid(index), "T", values))
    return records


class TestPartitioning:
    def test_slices_are_disjoint_and_complete(self):
        delta = _records(100, ["master", "disciple"])
        slices = partition_delta(delta, 4, ["disciple"])
        assert len(slices) == 4
        flattened = [record for piece in slices for record in piece]
        assert len(flattened) == len(delta)
        assert {id(r) for r in flattened} == {id(r) for r in delta}

    def test_partition_is_deterministic(self):
        delta = _records(64, ["master", "disciple"])
        first = partition_delta(delta, 8, ["disciple"])
        second = partition_delta(delta, 8, ["disciple"])
        assert [[r.oid for r in piece] for piece in first] == [
            [r.oid for r in piece] for piece in second
        ]

    def test_same_binding_key_lands_in_same_slice(self):
        delta = _records(50, ["master", "disciple"])
        slices = partition_delta(delta, 4, ["disciple"])
        owner = {}
        for index, piece in enumerate(slices):
            for record in piece:
                key = record.values["disciple"]
                assert owner.setdefault(key, index) == index

    def test_unhashable_field_value_falls_back(self):
        delta = _records(10, ["master"])
        for record in delta:
            record.values["master"] = [record.values["master"]]  # a list
        slices = partition_delta(delta, 4, ["master"])
        assert sum(len(piece) for piece in slices) == len(delta)


class TestPartitionability:
    def _eq(self):
        return Comparison("=", PathRef("r", ("a",)), PathRef("x", ("b",)))

    def test_driving_chain_is_partitionable(self):
        rec = RecLeaf("R", "r")
        spec = OutputSpec([OutputField("a", PathRef("r", ("a",)))])
        part = Proj(Sel(rec, self._eq()), spec)
        assert partitionable(part, "R")

    def test_recleaf_on_inner_join_side_is_not(self):
        part = EJ(EntityLeaf("Composer", "x"), RecLeaf("R", "r"), self._eq())
        assert not partitionable(part, "R")

    def test_recleaf_on_outer_join_side_is(self):
        part = EJ(RecLeaf("R", "r"), EntityLeaf("Composer", "x"), self._eq())
        assert partitionable(part, "R")

    def test_two_recursion_references_are_not(self):
        part = EJ(RecLeaf("R", "r"), RecLeaf("R", "s"), self._eq())
        assert not partitionable(part, "R")

    def test_other_recursions_reference_does_not_count(self):
        part = EJ(RecLeaf("R", "r"), RecLeaf("Outer", "s"), self._eq())
        assert partitionable(part, "R")


class TestParallelCorrectness:
    @pytest.mark.parametrize("workers", [2, 4, 8])
    def test_matches_serial_and_reference(self, workers):
        db = _music_db()
        graph, plan = _optimized(db, RECURSIVE)
        reference = ReferenceEvaluator(db.physical).answer_set(graph)
        serial = Engine(db.physical).execute(plan)
        parallel = Engine(db.physical, parallelism=workers).execute(plan)
        assert serial.answer_set() == reference
        assert parallel.answer_set() == reference
        assert (
            parallel.metrics.total_tuples == serial.metrics.total_tuples
        )
        assert (
            parallel.metrics.fix_iterations == serial.metrics.fix_iterations
        )
        assert (
            parallel.metrics.tuples_by_node == serial.metrics.tuples_by_node
        )

    def test_no_lost_tuples_on_cyclic_data(self):
        db = _cyclic_db()
        text = CYCLIC_SAFE.replace("r.gen", "r.master.name")
        graph, plan = _optimized(db, text)
        reference = ReferenceEvaluator(db.physical).answer_set(graph)
        serial = Engine(db.physical).execute(plan)
        parallel = Engine(db.physical, parallelism=4).execute(plan)
        assert serial.answer_set() == reference
        assert parallel.answer_set() == reference
        assert parallel.metrics.total_tuples == serial.metrics.total_tuples

    def test_execution_context_threads_parallelism(self):
        db = _music_db()
        _graph, plan = _optimized(db, RECURSIVE)
        engine = Engine(db.physical)
        context = ExecutionContext(parallelism=4)
        result = engine.execute(plan, context=context)
        assert engine.parallelism == 4
        baseline = Engine(db.physical).execute(plan)
        assert result.answer_set() == baseline.answer_set()

    def test_context_rejects_nonpositive_parallelism(self):
        with pytest.raises(ValueError):
            ExecutionContext(parallelism=0)
        with pytest.raises(ValueError):
            Engine(_music_db().physical, parallelism=0)


class TestWorkerPropagation:
    def test_timeout_propagates_and_cleans_temps(self):
        db = _music_db()
        _graph, plan = _optimized(db, RECURSIVE)
        engine = Engine(db.physical, parallelism=4)
        before = {info.name for info in db.physical.entities()}
        with pytest.raises(ExecutionTimeout):
            engine.execute(plan, cancel=CancellationToken(timeout=-1.0))
        assert {info.name for info in db.physical.entities()} == before
        # The engine still serves the next (parallel) query.
        assert len(engine.execute(plan).rows) > 0

    def test_fixpoint_limit_propagates_from_parallel_run(self):
        db = _cyclic_db()
        _graph, plan = _optimized(db, RECURSIVE)
        engine = Engine(db.physical, max_fix_iterations=8, parallelism=4)
        before = {info.name for info in db.physical.entities()}
        with pytest.raises(FixpointLimitError) as excinfo:
            engine.execute(plan)
        assert excinfo.value.limit == 8
        assert {info.name for info in db.physical.entities()} == before

    def test_worker_raised_error_reaches_the_caller(self, monkeypatch):
        """An exception raised on a pool thread (injected through the
        test seam) must abort peers and re-raise in the coordinator."""
        db = _music_db()
        _graph, plan = _optimized(db, RECURSIVE)

        def explode(stage, part):
            if stage == "task_end":
                raise FixpointLimitError("Injected", 1)

        monkeypatch.setattr(parallel_mod, "INTERLEAVE_HOOK", explode)
        engine = Engine(db.physical, parallelism=4)
        before = {info.name for info in db.physical.entities()}
        with pytest.raises(FixpointLimitError, match="Injected"):
            engine.execute(plan)
        assert {info.name for info in db.physical.entities()} == before
        monkeypatch.setattr(parallel_mod, "INTERLEAVE_HOOK", None)
        assert len(engine.execute(plan).rows) > 0


class _BarrierHook:
    """Forces worker tasks to start in lockstep so every round races
    the striped seen-set as hard as the pool allows."""

    def __init__(self, parties):
        self._barrier = threading.Barrier(parties)
        self.rendezvous = 0

    def __call__(self, stage, part):
        if stage != "task_start":
            return
        try:
            self._barrier.wait(timeout=0.05)
            self.rendezvous += 1
        except threading.BrokenBarrierError:
            pass
        finally:
            if self._barrier.broken:
                self._barrier.reset()


class TestRacyScheduler:
    def test_deterministic_under_forced_interleavings(self, monkeypatch):
        db = _music_db(lineages=4, generations=5)
        _graph, plan = _optimized(db, RECURSIVE)
        baseline = Engine(db.physical).execute(plan)
        for workers in (2, 4):
            hook = _BarrierHook(workers)
            monkeypatch.setattr(parallel_mod, "INTERLEAVE_HOOK", hook)
            try:
                racy = Engine(db.physical, parallelism=workers).execute(plan)
            finally:
                monkeypatch.setattr(parallel_mod, "INTERLEAVE_HOOK", None)
            assert racy.answer_set() == baseline.answer_set()
            assert (
                racy.metrics.total_tuples == baseline.metrics.total_tuples
            )


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
        db = _music_db()
        _graph, plan = _optimized(db, RECURSIVE)

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
        db = _music_db()
        _graph, plan = _optimized(db, RECURSIVE)

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
