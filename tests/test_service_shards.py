"""The ``shards`` knob through the service: protocol field validation,
response echo, weighted admission, and — the attribution regression —
per-shard work always lands in the *owning* request's record, even
with two sharded queries in flight at once.
"""

import threading

import pytest

from repro.dist import ShardCluster
from repro.engine import Engine
from repro.errors import ProtocolError
from repro.physical.buffer import BufferPool
from repro.core import cost_controlled_optimizer
from repro.service import (
    QueryServer,
    QueryService,
    ServiceClient,
    ServiceClientError,
    ServiceConfig,
)
from repro.service.server import _positive_int_field
from repro.workloads import MusicConfig, generate_music_database
from repro.workloads.queries import fig3_query

FIG3 = """
view Influencer as
  select [master: x.master, disciple: x, gen: 1] from x in Composer
  union
  select [master: i.master, disciple: x, gen: i.gen + 1]
  from i in Influencer, x in Composer where i.disciple = x.master;

select [name: i.disciple.name, gen: i.gen]
from i in Influencer
where i.gen >= 2;
"""

SHALLOW = """
view Influencer as
  select [master: x.master, disciple: x, gen: 1] from x in Composer
  union
  select [master: i.master, disciple: x, gen: i.gen + 1]
  from i in Influencer, x in Composer where i.disciple = x.master;

select [name: i.disciple.name]
from i in Influencer
where i.gen <= 2;
"""


def build_db():
    db = generate_music_database(
        MusicConfig(lineages=3, generations=5, works_per_composer=2, seed=17)
    )
    db.build_paper_indexes()
    return db


@pytest.fixture(scope="module")
def db():
    return build_db()


def rows_key(rows):
    return sorted(
        tuple(sorted((k, repr(v)) for k, v in row.items())) for row in rows
    )


# -- protocol field validation ------------------------------------------------


def test_shards_field_accepts_absent_and_positive():
    assert _positive_int_field({}, "shards") is None
    assert _positive_int_field({"shards": 4}, "shards") == 4


@pytest.mark.parametrize("bad", [0, -1, 1.5, "4", True, False, [2]])
def test_shards_field_rejects_bad_values(bad):
    with pytest.raises(ProtocolError, match="shards must be a positive integer"):
        _positive_int_field({"shards": bad}, "shards")


def test_bad_shards_rejected_over_the_wire(db):
    service = QueryService(db, ServiceConfig())
    server = QueryServer(service, port=0)
    server.start()
    try:
        with ServiceClient("127.0.0.1", server.port) as client:
            with pytest.raises(ServiceClientError) as excinfo:
                client.request({"op": "query", "text": FIG3, "shards": 0})
            assert "shards must be a positive integer" in str(excinfo.value)
    finally:
        server.stop()


# -- echo and admission weighting ---------------------------------------------


def test_response_echoes_shards_and_matches_serial(db):
    service = QueryService(db, ServiceConfig(max_concurrent=8))
    serial = service.run_query(FIG3)
    assert serial["shards"] == 1
    sharded = service.run_query(FIG3, shards=4)
    assert sharded["shards"] == 4
    assert rows_key(sharded["rows"]) == rows_key(serial["rows"])
    assert sharded["row_count"] == serial["row_count"]


def test_shards_request_over_the_wire(db):
    service = QueryService(db, ServiceConfig(max_concurrent=8))
    server = QueryServer(service, port=0)
    server.start()
    try:
        with ServiceClient("127.0.0.1", server.port) as client:
            plain = client.query(FIG3)
            sharded = client.query(FIG3, shards=2)
            assert sharded["shards"] == 2
            assert rows_key(sharded["rows"]) == rows_key(plain["rows"])
    finally:
        server.stop()


def test_admission_caps_the_shard_grant(db):
    # A shards-N request reserves N slots; the grant is capped by the
    # slot pool.
    service = QueryService(db, ServiceConfig(max_concurrent=2))
    response = service.run_query(FIG3, shards=16)
    assert response["shards"] == 2
    # The default config (shards=1) is unaffected.
    assert service.run_query(FIG3)["shards"] == 1


def test_clusters_are_cached_per_width(db):
    service = QueryService(db, ServiceConfig(max_concurrent=8))
    service.run_query(FIG3, shards=2)
    service.run_query(FIG3, shards=2)
    service.run_query(FIG3, shards=4)
    assert sorted(service._clusters) == [2, 4]


# -- attribution: per-shard work belongs to the owning request ----------------


def solo_records(db, shards):
    """Fresh-service baseline records for FIG3 and SHALLOW run alone."""
    service = QueryService(db, ServiceConfig(max_concurrent=8))
    records = {}
    for text in (FIG3, SHALLOW):
        service.run_query(text, shards=shards)
        records[text] = service.metrics.snapshot()["recent"][-1]
    return records


def test_concurrent_sharded_queries_do_not_bleed_attribution(db):
    baselines = solo_records(db, shards=2)
    service = QueryService(db, ServiceConfig(max_concurrent=8))
    errors = []

    def run(text):
        try:
            service.run_query(text, shards=2)
        except Exception as error:  # noqa: BLE001 - surfaced below
            errors.append(error)

    threads = [
        threading.Thread(target=run, args=(text,))
        for text in (FIG3, SHALLOW)
        for _ in range(1)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    recent = service.metrics.snapshot()["recent"]
    assert len(recent) == 2
    by_query = {record["query"]: record for record in recent}
    assert len(by_query) == 2
    for text, baseline in baselines.items():
        record = by_query[baseline["query"]]
        assert record["shards"] == 2
        # The exchange volume and per-shard read attribution of each
        # record must equal the solo run — concurrent sharded work
        # never bleeds into another request's record.
        assert record["exchange_tuples"] == baseline["exchange_tuples"]
        assert record["exchange_bytes"] == baseline["exchange_bytes"]
        assert record["reads_by_shard"] == baseline["reads_by_shard"]


def test_concurrent_coordinators_share_one_cluster(db):
    """Two coordinator engines driving the same cluster from two
    threads: each engine's metrics must equal its solo run (logical
    reads are deterministic per session; physical reads are not
    asserted — residency is shared by design)."""
    plan = cost_controlled_optimizer(db.physical).optimize(fig3_query()).plan

    def coordinator_view():
        source = db.physical.store.buffer
        pool = BufferPool(source.capacity, source.io_latency)
        store = db.physical.store.replica_view(pool)
        return db.physical.shard_view(store)

    with ShardCluster(db.physical, 2) as cluster:
        solo = []
        for _ in range(2):
            engine = Engine(coordinator_view(), shards=2, cluster=cluster)
            solo.append(engine.execute(plan))
        results = [None, None]
        errors = []

        def run(slot):
            try:
                engine = Engine(
                    coordinator_view(), shards=2, cluster=cluster
                )
                results[slot] = engine.execute(plan)
            except Exception as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        threads = [
            threading.Thread(target=run, args=(slot,)) for slot in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    assert not errors
    want = solo[0]
    assert solo[1].answer_set() == want.answer_set()
    for result in results:
        assert result.answer_set() == want.answer_set()
        assert result.metrics.total_tuples == want.metrics.total_tuples
        assert dict(result.metrics.tuples_by_shard) == dict(
            want.metrics.tuples_by_shard
        )
        assert dict(result.metrics.reads_by_shard) == dict(
            want.metrics.reads_by_shard
        )
        assert result.metrics.exchange_tuples == want.metrics.exchange_tuples
        assert result.metrics.exchange_bytes == want.metrics.exchange_bytes
