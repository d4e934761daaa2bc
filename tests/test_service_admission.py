"""Admission control, per-query timeouts and the fixpoint safety cap."""

import threading
import time

import pytest

from repro.core.baselines import cost_controlled_optimizer
from repro.engine import CancellationToken, Engine
from repro.errors import (
    AdmissionError,
    ExecutionCancelled,
    ExecutionTimeout,
    FixpointLimitError,
)
from repro.lang import compile_text
from repro.service import AdmissionController, AdmissionPolicy
from repro.service import QueryService, ServiceConfig
from repro.workloads import MusicConfig, generate_music_database

RECURSIVE = """
view Influencer as
  select [master: x.master, disciple: x, gen: 1] from x in Composer
  union
  select [master: i.master, disciple: x, gen: i.gen + 1]
  from i in Influencer, x in Composer where i.disciple = x.master;
select [name: i.disciple.name, gen: i.gen] from i in Influencer;
"""


@pytest.fixture()
def db():
    db = generate_music_database(
        MusicConfig(lineages=3, generations=6, works_per_composer=2, seed=3)
    )
    db.build_paper_indexes()
    return db


class TestBudget:
    def test_under_budget_admits(self):
        controller = AdmissionController(AdmissionPolicy(cost_budget=100.0))
        controller.admit(99.0)
        assert controller.admitted == 1

    def test_over_budget_rejects(self):
        controller = AdmissionController(AdmissionPolicy(cost_budget=100.0))
        with pytest.raises(AdmissionError) as excinfo:
            controller.admit(101.0)
        assert excinfo.value.reason == "over_budget"
        assert controller.rejected_budget == 1

    def test_no_budget_admits_everything(self):
        controller = AdmissionController(AdmissionPolicy(cost_budget=None))
        controller.admit(1e12)

    def test_service_rejects_over_budget_query(self, db):
        service = QueryService(db, ServiceConfig(cost_budget=0.001))
        with pytest.raises(AdmissionError):
            service.run_query(RECURSIVE)
        assert service.metrics.rejected == 1
        # The plan is still cached: raising the budget later serves it.
        assert len(service.cache) == 1


class TestSlots:
    def test_queue_full_rejects(self):
        controller = AdmissionController(
            AdmissionPolicy(max_concurrent=1, queue_timeout=0.05)
        )
        entered = threading.Event()
        release = threading.Event()

        def hold():
            with controller.slot():
                entered.set()
                release.wait(timeout=5)

        holder = threading.Thread(target=hold)
        holder.start()
        try:
            assert entered.wait(timeout=5)
            with pytest.raises(AdmissionError) as excinfo:
                with controller.slot():
                    pass
            assert excinfo.value.reason == "queue_full"
        finally:
            release.set()
            holder.join()
        # The slot is free again after the holder leaves.
        with controller.slot():
            pass

    def test_sharded_request_reserves_proportional_slots(self):
        """A shards-8 request takes all eight slots of an 8-concurrent
        controller: a second request queues behind it."""
        controller = AdmissionController(
            AdmissionPolicy(max_concurrent=8, queue_timeout=0.05)
        )
        entered = threading.Event()
        release = threading.Event()

        def hold():
            with controller.slot(weight=8) as granted:
                assert granted == 8
                entered.set()
                release.wait(timeout=5)

        holder = threading.Thread(target=hold)
        holder.start()
        try:
            assert entered.wait(timeout=5)
            assert controller.snapshot()["slots_in_use"] == 8
            with pytest.raises(AdmissionError) as excinfo:
                with controller.slot():
                    pass
            assert excinfo.value.reason == "queue_full"
        finally:
            release.set()
            holder.join()
        # Every slot is back: a second wide request is admitted.
        assert controller.snapshot()["slots_in_use"] == 0
        with controller.slot(weight=8):
            pass

    def test_weight_is_capped_at_max_concurrent(self):
        controller = AdmissionController(
            AdmissionPolicy(max_concurrent=4, queue_timeout=0.05)
        )
        with controller.slot(weight=100) as granted:
            assert granted == 4
        assert controller.snapshot()["slots_in_use"] == 0

    def test_wide_request_queues_until_slots_free(self):
        """A shards-4 request waits for a narrow request to finish
        instead of being rejected outright when the queue timeout
        allows it."""
        controller = AdmissionController(
            AdmissionPolicy(max_concurrent=4, queue_timeout=5.0)
        )
        entered = threading.Event()
        release = threading.Event()

        def hold():
            with controller.slot(weight=2):
                entered.set()
                release.wait(timeout=5)

        holder = threading.Thread(target=hold)
        holder.start()
        acquired = threading.Event()

        def wide():
            with controller.slot(weight=4):
                acquired.set()

        waiter = threading.Thread(target=wide)
        try:
            assert entered.wait(timeout=5)
            waiter.start()
            # Not enough free slots yet; the wide request is parked.
            assert not acquired.wait(timeout=0.2)
            release.set()
            assert acquired.wait(timeout=5)
        finally:
            release.set()
            holder.join()
            waiter.join()

    def test_failure_mid_query_releases_every_slot(self):
        controller = AdmissionController(
            AdmissionPolicy(max_concurrent=8, queue_timeout=0.05)
        )
        with pytest.raises(RuntimeError):
            with controller.slot(weight=8):
                assert controller.snapshot()["slots_in_use"] == 8
                raise RuntimeError("query blew up")
        assert controller.snapshot()["slots_in_use"] == 0
        with controller.slot(weight=8):
            pass

    def test_effective_timeout_prefers_request_then_default_then_cap(self):
        controller = AdmissionController(
            AdmissionPolicy(default_timeout=10.0, max_timeout=5.0)
        )
        assert controller.effective_timeout(None) == 5.0  # default capped
        assert controller.effective_timeout(2.0) == 2.0
        assert controller.effective_timeout(60.0) == 5.0
        open_controller = AdmissionController(AdmissionPolicy())
        assert open_controller.effective_timeout(None) is None


class TestCancellation:
    def test_token_deadline_expires(self):
        clock = [0.0]
        token = CancellationToken(timeout=1.0, clock=lambda: clock[0])
        token.check()  # inside the deadline
        clock[0] = 2.0
        assert token.expired
        with pytest.raises(ExecutionTimeout):
            token.check()

    def test_explicit_cancel(self):
        token = CancellationToken()
        token.cancel("operator request")
        with pytest.raises(ExecutionCancelled, match="operator request"):
            token.check()

    def test_timeout_cancels_fixpoint_gracefully(self, db):
        graph = compile_text(RECURSIVE, db.catalog)
        plan = cost_controlled_optimizer(db.physical).optimize(graph).plan
        engine = Engine(db.physical)
        # A deadline already in the past: the fixpoint loop must abort
        # on its first poll instead of running to completion.
        token = CancellationToken(timeout=-1.0)
        entities_before = {info.name for info in db.physical.entities()}
        with pytest.raises(ExecutionTimeout):
            engine.execute(plan, cancel=token)
        # Graceful: every temporary the aborted run created was dropped.
        entities_after = {info.name for info in db.physical.entities()}
        assert entities_after == entities_before
        # The same engine still works for the next query.
        result = engine.execute(plan)
        assert len(result.rows) > 0

    def test_service_timeout_counts_and_recovers(self, db):
        service = QueryService(db, ServiceConfig())
        with pytest.raises(ExecutionTimeout):
            service.run_query(RECURSIVE, timeout=1e-9)
        assert service.metrics.timeouts == 1
        # Server-side flow maps the timeout to a protocol error code.
        response = service.handle(
            {"op": "query", "text": RECURSIVE, "timeout": 1e-9}
        )
        assert response["ok"] is False
        assert response["error"]["code"] == "timeout"
        # And the service still answers afterwards.
        ok = service.run_query(RECURSIVE)
        assert ok["row_count"] > 0


class TestFixpointLimit:
    def _cyclic_db(self):
        db = generate_music_database(
            MusicConfig(lineages=1, generations=4, works_per_composer=1, seed=5)
        )
        # Close the master chain into a cycle: founder's master is the
        # youngest composer.  The gen counter then grows forever.
        chain = db.composer_oids[:4]
        founder = db.store.peek(chain[0])
        founder.values["master"] = chain[-1]
        db.physical.refresh_statistics()
        return db

    def test_divergent_recursion_hits_the_cap(self):
        db = self._cyclic_db()
        graph = compile_text(RECURSIVE, db.catalog)
        plan = cost_controlled_optimizer(db.physical).optimize(graph).plan
        engine = Engine(db.physical, max_fix_iterations=16)
        with pytest.raises(FixpointLimitError) as excinfo:
            engine.execute(plan)
        assert excinfo.value.limit == 16
        assert excinfo.value.name == "Influencer"
        assert "divergent" in str(excinfo.value)

    def test_cap_is_configurable_through_the_service(self):
        db = self._cyclic_db()
        service = QueryService(db, ServiceConfig(max_fix_iterations=8))
        response = service.handle({"op": "query", "text": RECURSIVE})
        assert response["ok"] is False
        assert response["error"]["code"] == "fixpoint_limit"
        assert "8" in response["error"]["message"]


class TestServiceShards:
    def test_timeout_releases_every_reserved_slot(self, db):
        """A sharded query that times out must give back all its
        slots, not just one — otherwise the service leaks capacity."""
        service = QueryService(db, ServiceConfig(max_concurrent=8))
        with pytest.raises(ExecutionTimeout):
            service.run_query(RECURSIVE, timeout=1e-9, shards=8)
        assert service.admission.snapshot()["slots_in_use"] == 0
        # Capacity intact: the next wide query is admitted and runs.
        ok = service.run_query(RECURSIVE, shards=8)
        assert ok["shards"] == 8
        assert ok["row_count"] > 0
