"""Distributed observability: trace-context propagation and lane
stitching, barrier-wait accounting, failure-path traces, exchange
frame/byte pinning under splits, distributed EXPLAIN ANALYZE
est-vs-act terms, skew recalibration from production actuals, and the
live ``progress`` / ``repro top`` surface."""

import json
import logging
import threading

import pytest

from repro.core import cost_controlled_optimizer
from repro.cost import CostParameters, DetailedCostModel
from repro.dist import ShardCluster, decode_tuples, encode_tuples
from repro.dist import exchange
from repro.dist.shard import ShardSession
from repro.engine import Engine
from repro.obs import (
    FeedbackConfig,
    FeedbackManager,
    FixIterationProfile,
    PlanProfiler,
    ProgressTracker,
    Tracer,
    build_explain,
    build_observation,
)
from repro.service import protocol
from repro.workloads import MusicConfig, generate_music_database
from repro.workloads.queries import fig3_query


@pytest.fixture(scope="module")
def music_db():
    # Few lineages over several generations: hash-partitioning the
    # delta leaves some shards consistently heavier, so observed skew
    # is strictly above 1 at width 4 (the recalibration test needs a
    # genuinely skewed workload).
    db = generate_music_database(
        MusicConfig(lineages=2, generations=6, works_per_composer=2, seed=13)
    )
    db.build_paper_indexes()
    return db


@pytest.fixture(scope="module")
def fig3_plan(music_db):
    graph = fig3_query()
    return cost_controlled_optimizer(music_db.physical).optimize(graph).plan


def _lane_names(chrome: dict):
    return {
        event["tid"]: event["args"]["name"]
        for event in chrome["traceEvents"]
        if event["ph"] == "M" and event["name"] == "thread_name"
    }


def _spans(chrome: dict, name=None):
    return [
        event
        for event in chrome["traceEvents"]
        if event["ph"] == "X" and (name is None or event["name"] == name)
    ]


# -- exchange counting under splits ------------------------------------------


def test_split_twice_counts_every_frame_exactly_once(monkeypatch):
    """A payload whose encoding splits twice (full -> halves -> both
    halves split again) produces dense seq numbers and stats that pin
    the emitted frame/byte counts — no double counting of the
    intermediate chunks that never hit the wire."""
    tuples = [{"k": i, "pad": "x" * 120} for i in range(8)]
    full = len(protocol.encode({"op": "delta", "tuples": tuples}))
    # A limit between a quarter and half of the full payload forces
    # exactly two levels of halving: 8 -> 4+4 -> 2+2+2+2.
    monkeypatch.setattr(protocol, "MAX_LINE_BYTES", full // 3)
    frames = encode_tuples("delta", "f", 1, 0, tuples)
    assert len(frames) == 4
    assert all(len(frame) <= full // 3 for frame in frames)
    assert decode_tuples(frames) == tuples
    seqs = [protocol.decode(frame)["seq"] for frame in frames]
    assert seqs == [0, 1, 2, 3]  # dense: split chunks never claim a seq
    stats = exchange.ExchangeStats()
    stats.count(frames, len(tuples))
    assert stats.frames == 4
    assert stats.tuples == 8
    assert stats.bytes == sum(len(frame) for frame in frames)


def test_trace_id_rides_in_every_frame():
    frames = encode_tuples("result", "f", 0, 2, [{"a": 1}], trace_id="req9")
    assert all(protocol.decode(f)["trace"] == "req9" for f in frames)
    bare = encode_tuples("result", "f", 0, 2, [{"a": 1}])
    assert all("trace" not in protocol.decode(f) for f in bare)


# -- stitched multi-lane traces ----------------------------------------------


def test_stitched_trace_has_one_lane_per_shard(music_db, fig3_plan):
    tracer = Tracer(trace_id="req-lanes")
    with ShardCluster(music_db.physical, 4) as cluster:
        engine = Engine(music_db.physical, shards=4, cluster=cluster)
        engine.tracer = tracer
        engine.request_id = "req-lanes"
        engine.execute(fig3_plan)
    chrome = tracer.to_chrome_trace()
    lanes = _lane_names(chrome)
    assert lanes[1] == "coordinator"
    assert set(lanes.values()) == {
        "coordinator",
        "shard0",
        "shard1",
        "shard2",
        "shard3",
    }
    # Every shard lane recorded the full per-round span taxonomy.
    by_lane = {}
    for event in _spans(chrome):
        by_lane.setdefault(lanes[event["tid"]], set()).add(event["name"])
    for shard in range(4):
        assert {"round", "exchange_send"} <= by_lane[f"shard{shard}"]
    assert {"fix", "partition", "barrier_wait", "gather", "cleanup"} <= by_lane[
        "coordinator"
    ]
    # Trace-context propagation: the shards' round spans carry the
    # coordinator's trace id.
    rounds = _spans(chrome, "round")
    assert rounds
    assert all(e["args"]["trace_id"] == "req-lanes" for e in rounds)
    assert all(e["args"]["request"] == "req-lanes" for e in rounds)


def test_barrier_wait_spans_sum_to_measured_wait(music_db, fig3_plan):
    tracer = Tracer()
    with ShardCluster(music_db.physical, 2) as cluster:
        engine = Engine(music_db.physical, shards=2, cluster=cluster)
        engine.tracer = tracer
        execution = engine.execute(fig3_plan)
    chrome = tracer.to_chrome_trace()
    waits = _spans(chrome, "barrier_wait")
    assert len(waits) == execution.metrics.exchange_rounds
    span_sum = sum(e["dur"] for e in waits) / 1e6
    measured = execution.metrics.barrier_wait_seconds
    assert measured > 0
    # The spans sit directly inside the measured window: never longer,
    # and within bookkeeping noise of it.
    assert span_sum <= measured + 1e-6
    assert measured - span_sum < 0.05


def test_trace_disabled_costs_nothing(music_db, fig3_plan):
    """Without a tracer the distributed path still runs (NULL_TRACER
    everywhere) and the engine records no lanes."""
    with ShardCluster(music_db.physical, 2) as cluster:
        engine = Engine(music_db.physical, shards=2, cluster=cluster)
        execution = engine.execute(fig3_plan)
    assert execution.metrics.shards_used == 2
    assert engine.tracer.enabled is False


# -- failure-path tracing -----------------------------------------------------


def test_failing_shard_yields_stitched_trace_with_error_span(
    music_db, fig3_plan, monkeypatch, caplog
):
    real_evaluate = ShardSession.evaluate
    calls = {"n": 0}

    def failing_evaluate(self, part, env):
        calls["n"] += 1
        if calls["n"] > 2:
            raise RuntimeError("shard exploded")
        return real_evaluate(self, part, env)

    monkeypatch.setattr(ShardSession, "evaluate", failing_evaluate)
    tracer = Tracer(trace_id="req-fail")
    before = set(music_db.physical.store.extent_names())
    with ShardCluster(music_db.physical, 2) as cluster:
        engine = Engine(music_db.physical, shards=2, cluster=cluster)
        engine.tracer = tracer
        engine.request_id = "req-fail"
        with caplog.at_level(logging.ERROR, logger="repro.dist"):
            with pytest.raises(RuntimeError, match="shard exploded") as info:
                engine.execute(fig3_plan)
    # The error names its origin: request id, shard, round.
    assert "request req-fail shard" in str(info.value)
    assert any("req-fail" in record.message for record in caplog.records)
    # The stitched trace is still well-formed: coordinator + shard
    # lanes, an error span on the failing shard's round, and the
    # cleanup events recording the staging drops.
    chrome = tracer.to_chrome_trace()
    json.dumps(chrome)  # must serialize
    lanes = _lane_names(chrome)
    assert set(lanes.values()) >= {"coordinator", "shard0", "shard1"}
    errored = [
        e for e in _spans(chrome) if "error" in e.get("args", {})
    ]
    assert any(e["name"] == "round" for e in errored)
    assert any("RuntimeError" in e["args"]["error"] for e in errored)
    cleanups = [
        e
        for e in chrome["traceEvents"]
        if e["ph"] == "i" and e["name"] == "staging_cleanup"
    ]
    assert len(cleanups) == 2  # one per shard session
    # And cleanup actually happened: no leaked temps or staging extents.
    assert set(music_db.physical.store.extent_names()) == before


def test_shard_threads_carry_request_id(music_db, fig3_plan, monkeypatch):
    real_evaluate = ShardSession.evaluate
    seen = []

    def recording_evaluate(self, part, env):
        seen.append(threading.current_thread().name)
        return real_evaluate(self, part, env)

    monkeypatch.setattr(ShardSession, "evaluate", recording_evaluate)
    with ShardCluster(music_db.physical, 2) as cluster:
        engine = Engine(music_db.physical, shards=2, cluster=cluster)
        engine.request_id = "req-name"
        engine.execute(fig3_plan)
    assert seen
    assert all(name.startswith("shard") for name in seen)
    assert all(name.endswith("-req-name") for name in seen)


# -- distributed EXPLAIN ANALYZE ---------------------------------------------


def test_explain_analyze_pairs_distributed_est_and_act(music_db, fig3_plan):
    params = CostParameters()
    params.shards = 4
    model = DetailedCostModel(music_db.physical, params)
    profiler = PlanProfiler()
    with ShardCluster(music_db.physical, 4) as cluster:
        engine = Engine(music_db.physical, shards=4, cluster=cluster)
        engine.execute(fig3_plan, profiler=profiler)
    tree = build_explain(fig3_plan, model, profiler)
    fixes = [
        node
        for node in tree.by_id.values()
        if node.kind == "Fix" and node.distributed is not None
    ]
    assert fixes, "sharded Fix node should carry distributed est-vs-act"
    dist = fixes[0].distributed
    for term in ("network", "disk", "skew"):
        assert term in dist["est"]
        assert term in dist["act"]
    assert dist["est"]["shards"] == 4
    assert dist["act"]["exchange_tuples"] > 0
    assert dist["act"]["skew"] >= 1.0
    # Rendered and serialized forms both carry the row.
    lines = fixes[0].extra_lines()
    assert any(line.startswith("[distributed:") for line in lines)
    payload = tree.to_dict()
    assert '"distributed"' in json.dumps(payload)


# -- skew recalibration from production actuals -------------------------------


def test_recalibration_strictly_reduces_distributed_misestimate(
    music_db, fig3_plan
):
    params = CostParameters()
    params.shards = 4
    model = DetailedCostModel(music_db.physical, params)
    manager = FeedbackManager(FeedbackConfig(recalibrate_min_samples=8))
    fingerprint = manager.register_plan("fig3", fig3_plan, 100.0, model)
    with ShardCluster(music_db.physical, 4) as cluster:
        for run in range(9):
            engine = Engine(music_db.physical, shards=4, cluster=cluster)
            execution = engine.execute(fig3_plan)
            observation = build_observation(
                f"r{run}",
                100.0,
                execution.metrics.measured_cost(),
                0.01,
                len(execution.rows),
                execution.metrics,
            )
            assert observation.distributed is not None
            assert observation.distributed["shards"] == 4
            manager.observe("fig3", fingerprint, observation)
    # The workload is genuinely skewed...
    skews = manager.store.observed_skews()
    assert skews and max(skews) > 1.05
    # ...so refitting shard_skew from the observed actuals strictly
    # reduces the distributed-term misestimate.
    _weights, fitted, report = manager.recalibrate(params)
    assert report["distributed"] is not None
    dist = report["distributed"]
    assert dist["sharded_samples"] == 9
    assert dist["misestimate_after"] < dist["misestimate_before"]
    assert fitted.shard_skew == pytest.approx(dist["shard_skew"], abs=1e-4)
    assert fitted.shard_skew > 1.0
    assert report["parameters"]["shard_skew"] == pytest.approx(
        fitted.shard_skew, abs=1e-4
    )
    # Verify against the store's objective directly.
    before = manager.store.distributed_misestimate(params)
    import dataclasses

    after = manager.store.distributed_misestimate(
        dataclasses.replace(fitted)
    )
    assert after < before


def test_runtime_metrics_observed_skew_and_merge():
    from repro.engine.metrics import RuntimeMetrics

    metrics = RuntimeMetrics()
    assert metrics.observed_skew() == 1.0
    metrics.shards_used = 2
    metrics.shard_load_max = 30.0
    metrics.shard_load_mean = 10.0
    assert metrics.observed_skew() == 3.0
    other = RuntimeMetrics()
    other.shard_load_max = 10.0
    other.shard_load_mean = 10.0
    other.barrier_wait_seconds = 0.5
    other.exchange_frames = 7
    metrics.merge(other)
    assert metrics.shard_load_max == 40.0
    assert metrics.shard_load_mean == 20.0
    assert metrics.barrier_wait_seconds == 0.5
    assert metrics.exchange_frames == 7


# -- live progress ------------------------------------------------------------


def test_progress_tracker_rounds_and_snapshot():
    observed = []
    tracker = ProgressTracker(
        on_round=lambda entry, shards: observed.append((entry, shards))
    )
    handle = tracker.begin("req1", query="select ...", shards=2)
    first_round = FixIterationProfile(
        0,
        40,
        0.01,
        shards=2,
        exchange_tuples=40,
        exchange_bytes=2000,
        exchange_frames=2,
        skew=1.5,
        barrier_wait_s=0.004,
        per_shard={0: 30, 1: 10},
    )
    handle.record_fix_iteration("Influencer", first_round)
    handle.record_fix_iteration("Influencer", FixIterationProfile(1, 5, 0.002))
    snapshot = tracker.snapshot()
    assert len(snapshot["active"]) == 1
    live = snapshot["active"][0]
    assert live["request"] == "req1"
    assert live["rounds"] == 2
    assert live["total_delta"] == 45
    first = live["recent_rounds"][0]
    assert first["delta_by_shard"] == {"0": 30, "1": 10}
    assert first["skew"] == 1.5
    assert first["exchange_tuples_per_s"] == 4000.0
    assert first["barrier_wait_ms"] == 4.0
    assert live["last_round"]["round"] == 1
    # The per-round callback saw both round records — the very objects
    # handed in — with the query's width.
    assert len(observed) == 2
    assert observed[0][0] is first_round
    assert all(shards == 2 for _, shards in observed)
    tracker.finish(handle)
    snapshot = tracker.snapshot()
    assert snapshot["active"] == []
    assert [q["request"] for q in snapshot["recent"]] == ["req1"]


def test_progress_ring_is_bounded():
    from repro.obs.progress import ROUND_RING_SIZE

    tracker = ProgressTracker()
    handle = tracker.begin("req2")
    for index in range(ROUND_RING_SIZE + 10):
        handle.record_fix_iteration("f", FixIterationProfile(index, 1, 0.0))
    snapshot = handle.snapshot()
    assert snapshot["rounds"] == ROUND_RING_SIZE + 10
    assert snapshot["total_delta"] == ROUND_RING_SIZE + 10
    assert len(snapshot["recent_rounds"]) == ROUND_RING_SIZE
    assert snapshot["recent_rounds"][0]["round"] == 10


def test_serial_and_distributed_fixpoints_report_progress(
    music_db, fig3_plan
):
    tracker = ProgressTracker()
    engine = Engine(music_db.physical)
    engine.progress = tracker.begin("serial")
    engine.execute(fig3_plan)
    serial_rounds = engine.progress.snapshot()["recent_rounds"]
    assert serial_rounds and serial_rounds[0]["round"] == 0
    assert all("delta_by_shard" not in r for r in serial_rounds)

    with ShardCluster(music_db.physical, 2) as cluster:
        engine = Engine(music_db.physical, shards=2, cluster=cluster)
        engine.progress = tracker.begin("dist", shards=2)
        engine.execute(fig3_plan)
    dist_rounds = engine.progress.snapshot()["recent_rounds"]
    assert dist_rounds
    assert all("delta_by_shard" in r for r in dist_rounds)
    assert all(r.get("skew", 1.0) >= 1.0 for r in dist_rounds)
    assert all("barrier_wait_ms" in r for r in dist_rounds)
    # Both drivers agree on the fixpoint's round count per Fix node.
    assert len(dist_rounds) == len(serial_rounds)


# -- the service surface: progress op and `repro top` -------------------------

FIG3_TEXT = """
view Influencer as
  select [master: x.master, disciple: x, gen: 1] from x in Composer
  union
  select [master: i.master, disciple: x, gen: i.gen + 1]
  from i in Influencer, x in Composer where i.disciple = x.master;

select [name: i.disciple.name, gen: i.gen]
from i in Influencer
where i.gen >= 2;
"""


def test_progress_op_and_round_metrics(music_db):
    from repro.service import QueryService, ServiceConfig

    service = QueryService(music_db, ServiceConfig(max_concurrent=4))
    try:
        result = service.run_query(FIG3_TEXT, shards=2)
        assert result["shards"] == 2
        response = service.handle({"op": "progress"})
        assert response["ok"]
        progress = response["progress"]
        assert progress["active"] == []
        assert len(progress["recent"]) == 1
        recent = progress["recent"][0]
        assert recent["shards"] == 2
        assert recent["rounds"] > 0
        assert recent["request"] == result["request_id"]
        last = recent["last_round"]
        assert set(last) >= {"fix", "round", "delta", "ms", "delta_by_shard"}
        admission = progress["admission"]
        assert admission["slots_in_use"] == 0
        assert admission["admitted"] >= 1
        # Rounds fed the service metrics: latency histogram plus the
        # labelled barrier-wait and skew gauges.
        exposition = service.metrics.to_prometheus()
        assert "repro_fixpoint_round_seconds_count" in exposition
        assert 'repro_fixpoint_barrier_wait_fraction{shards="2"}' in exposition
        assert 'repro_fixpoint_shard_skew{shards="2"}' in exposition
    finally:
        service.close()


def test_repro_top_renders_progress_payload(music_db):
    import io

    from repro.cli import _render_top
    from repro.service import QueryService, ServiceConfig

    service = QueryService(music_db, ServiceConfig(max_concurrent=4))
    try:
        service.run_query(FIG3_TEXT, shards=2)
        payload = service.handle({"op": "progress"})["progress"]
    finally:
        service.close()
    out = io.StringIO()
    _render_top(payload, out)
    text = out.getvalue()
    assert "slots 0/4 in use" in text
    assert "shards=2" in text
    assert "s0:" in text  # per-shard delta breakdown of the last round
    assert "barrier" in text
