"""The one semi-naive loop (:func:`repro.engine.fixpoint.run_fixpoint`).

Serial and sharded fixpoints share the loop's iteration limit (and its
structured warning), its one clock read per round, and the one round
record it hands to both the profiler and the live progress handle;
EXPLAIN ANALYZE and telemetry price a node's counters with the same
helper."""

import contextlib
import logging
import types

import pytest

from repro.core import cost_controlled_optimizer
from repro.cost import CostParameters, DetailedCostModel
from repro.dist import ShardCluster
from repro.engine import Engine
from repro.engine import fixpoint
from repro.errors import FixpointLimitError
from repro.obs import PlanProfiler, ProgressTracker, build_explain, build_observation
from repro.workloads import MusicConfig, generate_music_database
from repro.workloads.queries import fig3_query


@pytest.fixture(scope="module")
def music_db():
    db = generate_music_database(
        MusicConfig(lineages=3, generations=5, works_per_composer=2, seed=13)
    )
    db.build_paper_indexes()
    return db


@pytest.fixture(scope="module")
def fig3_plan(music_db):
    return cost_controlled_optimizer(music_db.physical).optimize(fig3_query()).plan


@contextlib.contextmanager
def _engine(music_db, shards, **options):
    """An engine at ``shards`` (over a cluster when more than one)."""
    if shards == 1:
        yield Engine(music_db.physical, **options)
        return
    with ShardCluster(music_db.physical, shards) as cluster:
        yield Engine(music_db.physical, shards=shards, cluster=cluster, **options)


def _fix_profiles(profiler):
    return [
        profile for profile in profiler.profiles.values() if profile.fix_iterations
    ]


@pytest.mark.parametrize("shards", [1, 2])
def test_iteration_limit_logs_one_structured_warning(
    music_db, fig3_plan, shards, caplog
):
    with _engine(music_db, shards, max_fix_iterations=1) as engine:
        engine.request_id = f"req-limit-{shards}"
        with caplog.at_level(logging.WARNING, logger="repro.engine"):
            with pytest.raises(FixpointLimitError):
                engine.execute(fig3_plan)
    [record] = [
        record
        for record in caplog.records
        if record.getMessage() == "fixpoint iteration limit hit"
    ]
    assert record.request_id == f"req-limit-{shards}"
    assert record.fix == "Influencer"
    assert record.limit == 1


@pytest.mark.parametrize("shards", [1, 2])
def test_one_clock_read_per_round(music_db, fig3_plan, shards, monkeypatch):
    ticks = iter(range(1_000_000))
    monkeypatch.setattr(
        fixpoint,
        "time",
        types.SimpleNamespace(perf_counter=lambda: next(ticks) / 1000.0),
    )
    profiler = PlanProfiler()
    with _engine(music_db, shards) as engine:
        engine.progress = ProgressTracker().begin("req-clock", shards=shards)
        engine.execute(fig3_plan, profiler=profiler)
    [profile] = _fix_profiles(profiler)
    recorded = list(profile.fix_iterations)
    rounds = engine.progress.snapshot()["recent_rounds"]
    assert len(recorded) == len(rounds) >= 2
    for entry, live in zip(recorded, rounds):
        # The fake clock advances 1 ms per read: the profiler and the
        # progress handle report the same time for the round.
        assert live["round"] == entry.iteration
        assert live["delta"] == entry.new_tuples
        assert live["ms"] == round(entry.seconds * 1000, 3)
        # ... and that time is exactly one clock read per round.
        assert entry.seconds == pytest.approx(0.001)


@pytest.mark.parametrize("shards", [1, 2])
def test_profiler_and_progress_get_the_same_record(music_db, fig3_plan, shards):
    handed = []
    tracker = ProgressTracker(on_round=lambda entry, width: handed.append(entry))
    profiler = PlanProfiler()
    with _engine(music_db, shards) as engine:
        engine.progress = tracker.begin("req-record", shards=shards)
        engine.execute(fig3_plan, profiler=profiler)
    [profile] = _fix_profiles(profiler)
    assert handed
    assert [id(entry) for entry in handed] == [
        id(entry) for entry in profile.fix_iterations
    ]


@pytest.mark.parametrize("shards", [1, 2])
def test_explain_and_telemetry_price_nodes_alike(music_db, fig3_plan, shards):
    from repro.engine.metrics import network_cost, node_cost

    params = CostParameters()
    params.shards = shards
    model = DetailedCostModel(music_db.physical, params)
    profiler = PlanProfiler()
    with _engine(music_db, shards) as engine:
        execution = engine.execute(fig3_plan, profiler=profiler)
    metrics = execution.metrics
    tree = build_explain(fig3_plan, model, profiler)
    observation = build_observation(
        "req-cost",
        1.0,
        metrics.measured_cost(),
        0.01,
        len(execution.rows),
        metrics,
        profiler=profiler,
    )
    assert observation.operators
    for node_id, actual in observation.operators.items():
        assert tree.by_id[node_id].actual_cost == actual.cost
        assert actual.cost == node_cost(profiler.profiles[node_id])
    if shards == 1:
        return
    # The distributed actuals are read off the round records and add up
    # to the run's exchange counters.
    [fix] = [node for node in tree.by_id.values() if node.distributed]
    act = fix.distributed["act"]
    assert act["rounds"] == metrics.exchange_rounds
    assert act["exchange_tuples"] == metrics.exchange_tuples
    assert act["exchange_frames"] == metrics.exchange_frames
    assert act["exchange_bytes"] == metrics.exchange_bytes
    assert act["network"] == network_cost(
        metrics.exchange_tuples, metrics.exchange_frames
    )
    assert act["barrier_wait_ms"] == pytest.approx(
        metrics.barrier_wait_seconds * 1000
    )
