"""End-to-end tests: TCP server + client, sessions, prepared
statements, cache hit → stats mutation → invalidation, admission
rejection and timeout without killing the server (acceptance test)."""

import threading
import time

import pytest

from repro.cli import build_parser, cmd_serve
from repro.service import (
    QueryServer,
    QueryService,
    ServiceClient,
    ServiceClientError,
    ServiceConfig,
)
from repro.workloads import MusicConfig, generate_music_database

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

#: The same query spelled with different aliases and layout — must be
#: served from the same cache entry.
FIG3_ALIASED = """
view Influencer as
  select [master: c.master, disciple: c, gen: 1] from c in Composer union
  select [master: inf.master, disciple: c, gen: inf.gen + 1]
  from inf in Influencer, c in Composer where inf.disciple = c.master;
select [name: z.disciple.name, gen: z.gen] from z in Influencer where z.gen >= 2;
"""

SCAN_QUERY = (
    "select [name: x.name] from x in Composer where x.birthyear >= 1700;"
)


def build_db():
    db = generate_music_database(
        MusicConfig(lineages=3, generations=6, works_per_composer=2, seed=21)
    )
    db.build_paper_indexes()
    return db


@pytest.fixture()
def served():
    """A running server over a fresh database; yields (db, service, client)."""
    db = build_db()
    service = QueryService(db, ServiceConfig(drift_ratio=0.05))
    server = QueryServer(service, port=0)
    server.start()
    client = ServiceClient("127.0.0.1", server.port)
    try:
        yield db, service, client
    finally:
        client.close()
        server.stop()


def canonical_rows(rows):
    return sorted(str(sorted(row.items())) for row in rows)


class TestAcceptance:
    def test_cache_hit_then_stats_invalidation(self, served):
        db, service, client = served
        first = client.query(FIG3)
        assert first["cache"] == "miss"
        assert first["row_count"] > 0

        second = client.query(FIG3_ALIASED)
        assert second["cache"] == "hit"
        assert second["plans_costed"] == 0
        assert canonical_rows(second["rows"]) == canonical_rows(first["rows"])

        # Mutate table stats: bulk-load composers, then re-ANALYZE.
        for index in range(500):
            db.store.insert(
                "Composer",
                {
                    "name": f"bulk_{index:04d}",
                    "birthyear": 1950,
                    "master": None,
                    "works": (),
                },
            )
        client.refresh_stats()

        third = client.query(FIG3)
        # The recursion now covers far more composers: the cached PT's
        # re-costed estimate drifts beyond 5% → invalidate, re-optimize.
        assert third["cache"] == "drifted"
        assert third["plans_costed"] > 0
        assert third["row_count"] >= first["row_count"]

        stats = client.stats()
        assert stats["cache"]["invalidations"] >= 1
        assert stats["cache"]["hits"] >= 1
        assert stats["service"]["executed"] == 3

    def test_admission_rejects_and_timeout_without_killing_server(self, served):
        _db, service, client = served
        # Per-request timeout: a deep recursive query with an absurdly
        # small deadline must time out gracefully...
        with pytest.raises(ServiceClientError) as excinfo:
            client.query(FIG3, timeout=1e-9)
        assert excinfo.value.code == "timeout"

        # ...and an over-budget query must be rejected by admission
        # control (tighten the budget below the recursive query's cost).
        service.admission.policy.cost_budget = 0.01
        with pytest.raises(ServiceClientError) as excinfo:
            client.query(FIG3)
        assert excinfo.value.code == "admission_rejected"
        service.admission.policy.cost_budget = None

        # The server survived both failures and still serves answers.
        alive = client.query(FIG3)
        assert alive["row_count"] > 0
        stats = client.stats()
        assert stats["service"]["timeouts"] == 1
        assert stats["service"]["rejected"] == 1


class TestSessionsAndStatements:
    def test_prepared_statement_roundtrip(self, served):
        _db, _service, client = served
        client.hello()
        statement = client.prepare(
            "select [name: c.name] from c in Composer where c.name = $who;"
        )
        bach = client.execute(statement, {"who": "Bach"})
        assert bach["row_count"] == 1
        assert bach["rows"][0]["name"] == "Bach"
        nobody = client.execute(statement, {"who": "nobody"})
        assert nobody["row_count"] == 0

    def test_unbound_parameter_is_an_error(self, served):
        _db, _service, client = served
        client.hello()
        statement = client.prepare(
            "select [name: c.name] from c in Composer where c.name = $who;"
        )
        with pytest.raises(ServiceClientError) as excinfo:
            client.execute(statement, {})
        assert excinfo.value.code == "protocol_error"

    def test_statement_requires_session(self, served):
        _db, _service, client = served
        with pytest.raises(ServiceClientError) as excinfo:
            client.execute("s1", {})
        assert excinfo.value.code == "protocol_error"

    def test_sessions_are_isolated(self, served):
        _db, service, client = served
        client.hello()
        statement = client.prepare(SCAN_QUERY)
        other = ServiceClient("127.0.0.1", client._socket.getpeername()[1])
        try:
            other.hello()
            with pytest.raises(ServiceClientError):
                other.execute(statement)
        finally:
            other.close()

    def test_close_session(self, served):
        _db, _service, client = served
        session = client.hello()
        assert client.request({"op": "close", "session": session})["closed"]


class TestProtocolEdges:
    def test_ping(self, served):
        _db, _service, client = served
        assert client.ping()

    def test_parse_error_code(self, served):
        _db, _service, client = served
        with pytest.raises(ServiceClientError) as excinfo:
            client.query("select from nothing")
        assert excinfo.value.code == "parse_error"

    def test_unknown_op(self, served):
        _db, _service, client = served
        with pytest.raises(ServiceClientError) as excinfo:
            client.request({"op": "frobnicate"})
        assert excinfo.value.code == "protocol_error"

    def test_retired_batch_layout_field_is_ignored(self, served):
        # Clients written against the dual-layout protocol still send
        # the field; like any unknown field it changes nothing.
        _db, _service, client = served
        plain = client.query(SCAN_QUERY)
        legacy = client.request(
            {"op": "query", "text": SCAN_QUERY, "batch_layout": "row"}
        )
        assert canonical_rows(legacy["rows"]) == canonical_rows(plain["rows"])
        assert "batch_layout" not in legacy

    def test_retired_parallelism_field_is_ignored(self, served):
        # Clients written against the thread-parallel fixpoint still
        # send a width; the query runs serially and nothing echoes it.
        _db, service, client = served
        plain = client.query(FIG3)
        legacy = client.request(
            {"op": "query", "text": FIG3, "parallelism": 4}
        )
        client.hello()
        statement = client.prepare(FIG3)
        prepared = client.request(
            {"op": "execute", "statement": statement, "parallelism": 4}
        )
        for response in (legacy, prepared):
            assert "parallelism" not in response
            assert response["shards"] == 1
            assert response["fix_iterations"] == plain["fix_iterations"]
            assert canonical_rows(response["rows"]) == canonical_rows(
                plain["rows"]
            )
        assert service.admission.snapshot()["slots_in_use"] == 0

    def test_malformed_json(self, served):
        _db, _service, client = served
        client._socket.sendall(b"this is not json\n")
        from repro.service import protocol

        line = client._reader.readline()
        response = protocol.decode(line)
        assert response["ok"] is False
        assert response["error"]["code"] == "protocol_error"

    def test_concurrent_clients(self, served):
        _db, _service, client = served
        port = client._socket.getpeername()[1]
        results, errors = [], []

        def worker():
            try:
                with ServiceClient("127.0.0.1", port) as peer:
                    results.append(peer.query(SCAN_QUERY)["row_count"])
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert len(set(results)) == 1  # every client saw the same answer


class TestServeCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve", "--port", "0"])
        assert args.port == 0
        assert args.cache_size == 64
        assert args.drift_ratio == 0.5

    def test_serve_without_flags_serves_the_default_config(self):
        """``repro serve`` with no flags builds the configuration the
        macro benchmark measures (``ServiceConfig()``) in every field
        but the database recipe it records for replay."""
        import dataclasses

        from repro.cli import _serve_config

        args = build_parser().parse_args(["serve"])
        served = dataclasses.asdict(_serve_config(args))
        default = dataclasses.asdict(ServiceConfig())
        assert served.pop("database_config") is not None
        default.pop("database_config")
        assert served == default

    def test_cmd_serve_serves_and_shuts_down(self, capsys):
        import io

        args = build_parser().parse_args(
            ["serve", "--port", "0", "--lineages", "2", "--generations", "4"]
        )
        out = io.StringIO()
        box = []
        thread = threading.Thread(
            target=cmd_serve, args=(args, out, box), daemon=True
        )
        thread.start()
        deadline = time.time() + 30
        while not box and time.time() < deadline:
            time.sleep(0.01)
        assert box, "server did not start"
        server = box[0]
        with ServiceClient("127.0.0.1", server.port) as client:
            assert client.ping()
            response = client.shutdown()
            assert response["stopping"]
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert "serving" in out.getvalue()
        assert "server stopped" in out.getvalue()
