"""Unit tests for the distribution subsystem: the exchange codec, the
shard map, delta partitioning (disjointness, determinism, which parts
may be partitioned), the scatter-gather fixpoint's semantics,
failure/cleanup behaviour, observability (EXPLAIN ANALYZE, runtime
metrics, per-shard round data in the shard trace lanes) and the
cluster snapshot."""

import threading

import pytest

from repro.core import cost_controlled_optimizer
from repro.dist import (
    ShardCluster,
    ShardMap,
    decode_tuples,
    encode_tuples,
    hash_shard,
    range_shard,
)
from repro.dist import exchange
from repro.dist.partition import partition_delta, partitionable
from repro.dist.shard import ShardSession
from repro.engine import Engine, ReferenceEvaluator
from repro.errors import FixpointLimitError, ProtocolError
from repro.lang import compile_text
from repro.obs import PlanProfiler, Tracer, build_explain, render_explain
from repro.service import protocol
from repro.physical.storage import Oid, StoredRecord
from repro.plans.nodes import EJ, EntityLeaf, Proj, RecLeaf, Sel
from repro.querygraph.graph import OutputField, OutputSpec
from repro.querygraph.predicates import Comparison, PathRef
from repro.workloads import MusicConfig, generate_music_database
from repro.workloads.queries import fig3_query
from tests.diff_harness import (
    assert_counts_match_serial,
    build_owners,
    counting_builds,
    tuple_counts,
)


@pytest.fixture(scope="module")
def music_db():
    db = generate_music_database(
        MusicConfig(lineages=3, generations=5, works_per_composer=2, seed=13)
    )
    db.build_paper_indexes()
    return db


@pytest.fixture(scope="module")
def fig3_plan(music_db):
    graph = fig3_query()
    return cost_controlled_optimizer(music_db.physical).optimize(graph).plan


# -- exchange codec -----------------------------------------------------------


def test_exchange_round_trips_oids_atoms_and_tuples():
    tuples = [
        {"a": Oid(7), "b": "Bach", "c": 3, "d": None, "e": True},
        {"a": Oid(9), "nested": (Oid(1), (2, "x"), None)},
    ]
    frames = encode_tuples("delta", "Influencer", 2, 1, tuples)
    assert all(isinstance(frame, bytes) for frame in frames)
    decoded = decode_tuples(frames)
    assert decoded == tuples
    # Oids stay Oids, not ints — identity must survive the wire.
    assert isinstance(decoded[0]["a"], Oid)
    assert isinstance(decoded[1]["nested"][0], Oid)


def test_exchange_empty_batch_is_one_empty_frame():
    frames = encode_tuples("result", "f", 0, 0, [])
    assert len(frames) == 1
    assert decode_tuples(frames) == []


def test_exchange_splits_oversized_payloads(monkeypatch):
    monkeypatch.setattr(protocol, "MAX_LINE_BYTES", 512)
    tuples = [{"k": i, "pad": "x" * 64} for i in range(40)]
    frames = encode_tuples("delta", "f", 1, 0, tuples)
    assert len(frames) > 1
    assert all(len(frame) <= 512 for frame in frames)
    assert decode_tuples(frames) == tuples


def test_exchange_rejects_a_tuple_too_large_for_any_frame(monkeypatch):
    monkeypatch.setattr(protocol, "MAX_LINE_BYTES", 64)
    with pytest.raises(ProtocolError, match="frame limit"):
        encode_tuples("delta", "f", 1, 0, [{"pad": "y" * 256}])


def test_exchange_rejects_unencodable_values():
    with pytest.raises(ProtocolError, match="cannot cross the shard exchange"):
        encode_tuples("delta", "f", 0, 0, [{"bad": object()}])


def test_exchange_rejects_malformed_oid_marker():
    line = protocol.encode(
        {"op": "delta", "tuples": [{"a": {"not_an_oid": 1}}]}
    )
    with pytest.raises(ProtocolError, match="malformed oid marker"):
        decode_tuples([line])


def test_exchange_stats_count_both_legs():
    # A round's scatter and gather legs accumulate into one volume.
    stats = exchange.ExchangeStats()
    frames = encode_tuples("delta", "f", 0, 0, [{"a": 1}, {"a": 2}])
    stats.count(frames, 2)
    stats.count(frames, 2)
    assert stats.tuples == 4
    assert stats.frames == 2 * len(frames)
    assert stats.bytes == 2 * sum(len(frame) for frame in frames)


# -- shard map ----------------------------------------------------------------


def test_shard_map_defaults_to_replicated():
    shard_map = ShardMap(4)
    shard_map.place_replicated("Composer")
    assert not shard_map.is_partitioned("Composer")
    assert shard_map.shard_of("Composer", {"any": 1}) is None
    assert not shard_map.is_partitioned("NeverPlaced")


def test_shard_map_hash_routing_is_stable_and_in_range():
    shard_map = ShardMap(4)
    shard_map.place_partitioned("Influencer", ["master", "gen"])
    assert shard_map.is_partitioned("Influencer")
    assert shard_map.partition_key("Influencer") == ("master", "gen")
    values = {"master": Oid(3), "gen": 2, "extra": "ignored"}
    first = shard_map.shard_of("Influencer", values)
    assert first is not None and 0 <= first < 4
    assert shard_map.shard_of("Influencer", values) == first
    placements = shard_map.to_dict()["placements"]
    assert placements["Influencer"]["kind"] == "partitioned"
    assert placements["Influencer"]["scheme"] == "hash"


def test_hash_shard_falls_back_to_repr_for_unhashable_keys():
    assert 0 <= hash_shard(([1], {"a": 2}), 4) < 4


def test_range_shard_routes_by_boundaries():
    boundaries = [10, 20, 30]
    assert range_shard(5, boundaries) == 0
    assert range_shard(10, boundaries) == 1
    assert range_shard(25, boundaries) == 2
    assert range_shard(99, boundaries) == 3


def test_shard_map_range_placement_validates_shape():
    shard_map = ShardMap(3)
    with pytest.raises(ValueError):
        shard_map.place_partitioned(
            "X", ["a", "b"], range_boundaries=[1, 2]
        )
    with pytest.raises(ValueError):
        shard_map.place_partitioned("X", ["a"], range_boundaries=[1])
    shard_map.place_partitioned("X", ["a"], range_boundaries=[10, 20])
    assert shard_map.shard_of("X", {"a": 15}) == 1


# -- delta partitioning -------------------------------------------------------


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


# -- distributed fixpoint semantics ------------------------------------------


def test_distributed_fixpoint_matches_serial(music_db, fig3_plan):
    with counting_builds() as serial_builds:
        serial = Engine(music_db.physical).execute(fig3_plan)
    with ShardCluster(music_db.physical, 4) as cluster:
        for width in (2, 4):
            with counting_builds() as builds:
                dist = Engine(
                    music_db.physical, shards=width, cluster=cluster
                ).execute(fig3_plan)
            assert dist.answer_set() == serial.answer_set()
            # Exact, once each shard's drain of the Fix body's
            # hash-join inner is counted.
            assert_counts_match_serial(
                tuple_counts(dist.metrics, builds),
                tuple_counts(serial.metrics, serial_builds),
                build_owners(fig3_plan),
                width,
            )
            assert sum(builds.values()) > sum(serial_builds.values())
            assert dist.metrics.shards_used == width
            assert dist.metrics.exchange_rounds > 0
            assert dist.metrics.exchange_tuples > 0
            assert dist.metrics.exchange_bytes > 0
            # Per-shard attribution: shard work sums to a positive
            # total and never names a shard outside the width.
            assert dist.metrics.tuples_by_shard
            assert set(dist.metrics.tuples_by_shard) <= set(range(width))
            assert sum(dist.metrics.reads_by_shard.values()) > 0


# Converges even on cyclic data: no generation counter, so the tuple
# space is bounded by Composer x Composer.
CYCLIC_SAFE = """
view Reach as
  select [master: x.master, disciple: x] from x in Composer
  union
  select [master: r.master, disciple: x]
  from r in Reach, x in Composer where r.disciple = x.master;
select [m: r.disciple.name, d: r.master.name] from r in Reach;
"""


def test_no_lost_tuples_on_cyclic_data():
    db = generate_music_database(
        MusicConfig(lineages=2, generations=5, works_per_composer=1, seed=5)
    )
    # Close each master chain into a cycle: the founder's master is the
    # chain's youngest composer.
    chain = db.composer_oids[:5]
    db.store.peek(chain[0]).values["master"] = chain[-1]
    db.physical.refresh_statistics()
    graph = compile_text(CYCLIC_SAFE, db.catalog)
    plan = cost_controlled_optimizer(db.physical).optimize(graph).plan
    reference = ReferenceEvaluator(db.physical).answer_set(graph)
    with counting_builds() as serial_builds:
        serial = Engine(db.physical).execute(plan)
    with ShardCluster(db.physical, 4) as cluster:
        with counting_builds() as builds:
            sharded = Engine(
                db.physical, shards=4, cluster=cluster
            ).execute(plan)
    assert serial.answer_set() == reference
    assert sharded.answer_set() == reference
    assert_counts_match_serial(
        tuple_counts(sharded.metrics, builds),
        tuple_counts(serial.metrics, serial_builds),
        build_owners(plan),
        4,
    )
    assert sharded.metrics.shards_used == 4


def test_shards_without_cluster_falls_back_to_serial(music_db, fig3_plan):
    serial = Engine(music_db.physical).execute(fig3_plan)
    knobbed = Engine(music_db.physical, shards=4).execute(fig3_plan)
    assert knobbed.answer_set() == serial.answer_set()
    assert knobbed.metrics.shards_used == 0
    assert knobbed.metrics.exchange_rounds == 0


def test_cluster_snapshot_reports_placement_and_buffers(music_db, fig3_plan):
    with ShardCluster(music_db.physical, 2) as cluster:
        Engine(music_db.physical, shards=2, cluster=cluster).execute(fig3_plan)
        snapshot = cluster.snapshot()
    assert snapshot["shards"] == 2
    assert len(snapshot["buffers"]) == 2
    assert all(b["logical_reads"] >= 0 for b in snapshot["buffers"])
    # The fixpoint recorded its per-round hash partitioning.
    kinds = {
        entry["kind"]
        for entry in snapshot["shard_map"]["placements"].values()
    }
    assert "partitioned" in kinds
    assert "replicated" in kinds


# -- failure and cleanup ------------------------------------------------------


def _extent_names(physical):
    return set(physical.store.extent_names())


def test_fixpoint_limit_aborts_and_cleans_up(music_db, fig3_plan):
    before = _extent_names(music_db.physical)
    with ShardCluster(music_db.physical, 2) as cluster:
        engine = Engine(
            music_db.physical, shards=2, cluster=cluster, max_fix_iterations=1
        )
        with pytest.raises(FixpointLimitError):
            engine.execute(fig3_plan)
        # Coordinator temp dropped, and every shard session's staging
        # extent dropped with it.
        assert _extent_names(music_db.physical) == before
        for worker in cluster.workers:
            assert not any(
                name.startswith("shard") for name in worker.schema.store.extent_names()
                if name not in before
            )


def test_shard_error_propagates_to_coordinator(music_db, fig3_plan, monkeypatch):
    real_evaluate = ShardSession.evaluate
    calls = {"n": 0}

    def failing_evaluate(self, part, env):
        calls["n"] += 1
        if calls["n"] > 2:
            raise RuntimeError("shard exploded")
        return real_evaluate(self, part, env)

    monkeypatch.setattr(ShardSession, "evaluate", failing_evaluate)
    before = _extent_names(music_db.physical)
    with ShardCluster(music_db.physical, 2) as cluster:
        engine = Engine(music_db.physical, shards=2, cluster=cluster)
        with pytest.raises(RuntimeError, match="shard exploded"):
            engine.execute(fig3_plan)
    assert _extent_names(music_db.physical) == before


class _ReadOnlyArgs(Exception):
    """An exception whose ``args`` cannot be reassigned."""

    def __init__(self, message, error):
        super().__init__(message)
        self._message = message
        self._error = error

    @property
    def args(self):
        return (self._message,)

    @args.setter
    def args(self, value):
        raise self._error


class TestShardErrorContext:
    """A failed shard round re-raises its error prefixed with the
    request/shard/round it came from; an exception whose ``args``
    setter rejects the rewrite with a TypeError goes out unprefixed,
    anything else the rewrite raises propagates."""

    def _fail_round(self, music_db, fig3_plan, monkeypatch, error):
        def failing_evaluate(self, part, env):
            raise error

        monkeypatch.setattr(ShardSession, "evaluate", failing_evaluate)
        with ShardCluster(music_db.physical, 2) as cluster:
            engine = Engine(music_db.physical, shards=2, cluster=cluster)
            engine.execute(fig3_plan)

    def test_context_prefixes_the_message(
        self, music_db, fig3_plan, monkeypatch
    ):
        with pytest.raises(RuntimeError, match=r"^\[request .* shard \d round"):
            self._fail_round(
                music_db, fig3_plan, monkeypatch, RuntimeError("exploded")
            )

    def test_rejected_rewrite_keeps_the_original(
        self, music_db, fig3_plan, monkeypatch
    ):
        error = _ReadOnlyArgs("exploded", TypeError("read-only"))
        with pytest.raises(_ReadOnlyArgs) as raised:
            self._fail_round(music_db, fig3_plan, monkeypatch, error)
        assert raised.value.args == ("exploded",)

    def test_unexpected_rewrite_error_propagates(
        self, music_db, fig3_plan, monkeypatch
    ):
        error = _ReadOnlyArgs("exploded", AttributeError("injected"))
        with pytest.raises(AttributeError, match="injected"):
            self._fail_round(music_db, fig3_plan, monkeypatch, error)


# -- observability ------------------------------------------------------------


def test_explain_analyze_shows_exchange_per_round(music_db, fig3_plan):
    with ShardCluster(music_db.physical, 2) as cluster:
        engine = Engine(music_db.physical, shards=2, cluster=cluster)
        profiler = PlanProfiler()
        engine.execute(fig3_plan, profiler=profiler)
        model = cost_controlled_optimizer(music_db.physical).cost_model
        tree = build_explain(fig3_plan, model, profiler)
    rendered = render_explain(tree)
    assert "shards=2" in rendered
    assert "exchanged=" in rendered


def test_shard_lanes_carry_round_and_exchange_data(music_db, fig3_plan):
    """Per-shard round data lives in the stitched trace: every shard
    lane's ``round`` spans carry its tuples and reads, and its exchange
    spans carry the bytes of both legs — together exactly the run's
    exchange volume."""
    tracer = Tracer(trace_id="req-rounds")
    with ShardCluster(music_db.physical, 2) as cluster:
        engine = Engine(music_db.physical, shards=2, cluster=cluster)
        engine.tracer = tracer
        execution = engine.execute(fig3_plan)
    events = tracer.to_chrome_trace()["traceEvents"]
    lanes = {
        e["tid"]: e["args"]["name"]
        for e in events
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    spans = [e for e in events if e["ph"] == "X"]
    exchanged = 0
    for shard in ("shard0", "shard1"):
        lane = [e for e in spans if lanes[e["tid"]] == shard]
        rounds = [e for e in lane if e["name"] == "round"]
        assert rounds, shard
        assert all({"tuples", "reads"} <= set(e["args"]) for e in rounds)
        assert max(e["args"]["round"] for e in rounds) >= 1
        legs = [
            e for e in lane if e["name"] in ("exchange_recv", "exchange_send")
        ]
        assert {e["name"] for e in legs} == {"exchange_recv", "exchange_send"}
        assert all(e["args"]["bytes"] > 0 for e in legs)
        exchanged += sum(e["args"]["bytes"] for e in legs)
    assert exchanged == execution.metrics.exchange_bytes
