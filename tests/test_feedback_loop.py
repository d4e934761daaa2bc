"""End-to-end feedback loop (the tentpole acceptance test).

Closes the loop the paper leaves open: run a skewed workload through
the service, recalibrate the cost model from the accumulated
production actuals, and check the misestimate actually shrinks; then
induce a plan regression (swap in a deliberately worse plan, as a bad
recalibration or stats drift would) and check it is flagged, logged,
and revertable by pinning the prior plan.

When ``REPRO_TELEMETRY_ARTIFACT`` is set (CI does this), the telemetry
JSONL produced by the workload is written there so the run's history
can be uploaded as a build artifact.
"""

import json
import os

import pytest

from repro.core.baselines import naive_optimizer
from repro.errors import ServiceError
from repro.lang import compile_text
from repro.obs.feedback import operator_estimates
from repro.plans import EntityLeaf
from repro.plans.canonical import canonical_fingerprint
from repro.service import QueryService, ServiceConfig
from repro.workloads import MusicConfig, generate_music_database

RECURSIVE = """
view Influencer as
  select [master: x.master, disciple: x, gen: 1] from x in Composer
  union
  select [master: i.master, disciple: x, gen: i.gen + 1]
  from i in Influencer, x in Composer where i.disciple = x.master;
select [name: i.disciple.name, gen: i.gen]
from i in Influencer
where i.master.works.instruments.name = "harpsichord" and i.gen >= 3;
"""

PLAIN_RECURSIVE = """
view Influencer as
  select [master: x.master, disciple: x, gen: 1] from x in Composer
  union
  select [master: i.master, disciple: x, gen: i.gen + 1]
  from i in Influencer, x in Composer where i.disciple = x.master;
select [name: i.disciple.name, gen: i.gen]
from i in Influencer
where i.gen >= 4;
"""

SCAN = "select [name: x.name] from x in Composer where x.birthyear >= 1700;"
LOOKUP = 'select [name: x.name] from x in Composer where x.name = "Bach";'

WORKLOAD = [PLAIN_RECURSIVE, SCAN, LOOKUP]


def build_db(**overrides):
    config = dict(
        lineages=4, generations=6, works_per_composer=2, seed=1992
    )
    config.update(overrides)
    db = generate_music_database(MusicConfig(**config))
    db.build_paper_indexes()
    return db


def build_skewed_db():
    """A deployment where the data outgrew the buffer pool and the
    paper indexes were never built: scans genuinely hit disk, so the
    model's cold-IO estimate is accurate and the remaining misestimate
    is the default unit costs — the error recalibration removes."""
    return generate_music_database(
        MusicConfig(
            lineages=16,
            generations=8,
            works_per_composer=3,
            buffer_pages=4,
            seed=1992,
        )
    )


def telemetry_path(tmp_path):
    """Honour the CI artifact location when it is set."""
    artifact = os.environ.get("REPRO_TELEMETRY_ARTIFACT")
    if artifact:
        os.makedirs(os.path.dirname(artifact) or ".", exist_ok=True)
        return artifact
    return str(tmp_path / "telemetry.jsonl")


def mean_misestimate(service) -> float:
    summary = service.feedback.misestimate_by_query()
    ratios = [
        entry["cost_misestimate"]
        for entry in summary.values()
        if entry["cost_misestimate"] is not None
    ]
    assert ratios, "workload produced no misestimate data"
    return sum(ratios) / len(ratios)


class TestRecalibrationShrinksMisestimate:
    def test_online_recalibration_improves_estimates(self, tmp_path):
        service = QueryService(
            build_skewed_db(),
            ServiceConfig(
                # A small ring so the post-recalibration runs fully
                # replace the pre-recalibration observations.
                history_window=6,
                recalibrate_min_samples=6,
                profile_sample_every=1,
                history_path=telemetry_path(tmp_path),
            ),
        )
        try:
            for _round in range(6):
                for text in WORKLOAD:
                    service.run_query(text)
            before = mean_misestimate(service)

            report = service.recalibrate(apply=True)
            assert report["applied"]
            assert report["samples"] >= 6
            # The fit recovers the simulator's reference unit costs
            # (``repro.units``, which the defaults already are): 1.0
            # per page read dominates.
            assert report["weights"]["physical_reads"] == pytest.approx(
                1.0, abs=0.2
            )
            assert service._cost_params is not None

            for _round in range(6):
                for text in WORKLOAD:
                    service.run_query(text)
            after = mean_misestimate(service)

            assert after < before, (
                f"mean cost q-error should shrink after recalibration "
                f"(before={before:.4f}, after={after:.4f})"
            )
            assert service.metrics.counters.get("recalibrations") == 1
        finally:
            service.close()

        # The telemetry JSONL is the CI artifact: non-empty, one JSON
        # object per line, and it replays into a fresh store.
        path = service.config.history_path
        with open(path) as handle:
            lines = [line for line in handle if line.strip()]
        assert len(lines) > 10
        kinds = {json.loads(line)["kind"] for line in lines}
        assert {"plan", "obs", "event"} <= kinds

    def test_recalibrate_requires_enough_samples(self):
        service = QueryService(
            build_db(lineages=2, generations=4),
            ServiceConfig(recalibrate_min_samples=50),
        )
        try:
            service.run_query(SCAN)
            with pytest.raises(ServiceError):
                service.recalibrate()
        finally:
            service.close()


def induce_regression(service, text):
    """Swap a deliberately worse plan (no push into the recursion) into
    the cache for ``text``, exactly as a bad recalibration or stats
    drift would, and notify the feedback manager.  Returns the (old,
    new) fingerprints."""
    with service._store_lock:
        key = service.cache.key_for(text, service.physical)
        old_entry = service.cache.entry(key)
        assert old_entry is not None, "prime the cache first"
        graph = compile_text(text, service.database.catalog)
        worse = naive_optimizer(service.physical).optimize(graph)
        new_entry = service.cache.store(
            key, worse.plan, worse.cost, service.physical
        )
        new_fp = service.feedback.register_plan(
            key[0], worse.plan, worse.cost
        )
        new_entry.fingerprint = new_fp
        service.feedback.plan_changed(
            key[0],
            old_entry.plan,
            old_entry.cost,
            worse.plan,
            worse.cost,
            "cost_drift",
        )
    assert old_entry.fingerprint != new_fp, (
        "the induced plan must differ structurally"
    )
    return old_entry.fingerprint, new_fp


class TestRegressionDetection:
    def config(self, **overrides):
        settings = dict(
            history_window=16,
            regression_min_runs=3,
            # Deterministic flagging: any nonzero new-plan latency
            # exceeds the threshold, so the verdict never depends on
            # wall-clock noise.
            regression_ratio=0.01,
            recalibrate_min_samples=5,
        )
        settings.update(overrides)
        return ServiceConfig(**settings)

    def test_induced_regression_is_flagged_and_pinnable(self):
        service = QueryService(build_db(), self.config())
        try:
            for _run in range(4):
                service.run_query(RECURSIVE)
            old_fp, new_fp = induce_regression(service, RECURSIVE)

            for _run in range(3):
                service.run_query(RECURSIVE)

            canonical = service.cache.key_for(
                RECURSIVE, service.physical
            )[0]
            change = service.feedback.regression_for(canonical)
            assert change is not None
            assert change.old_fingerprint == old_fp
            assert change.new_fingerprint == new_fp
            assert change.verdict == "regression"
            # The diff explains what changed: the induced plan stopped
            # pushing the selection into the recursion.
            assert change.diff["old_push"] != change.diff["new_push"]

            # Both fingerprints land in the slow log entry and the
            # event stream; the counter is exported.
            events = [
                event
                for event in service.feedback.store.events
                if event["event"] == "plan_regression"
            ]
            assert len(events) == 1
            assert events[0]["old_fingerprint"] == old_fp
            assert events[0]["new_fingerprint"] == new_fp
            assert service.metrics.counters.get("plan_regressions") == 1
            slow = [
                entry
                for entry in service.metrics.slow
                if any("plan_regression" in r for r in entry["reasons"])
            ]
            assert slow, "regression must enter the slow-query log"
            assert old_fp in slow[0]["reasons"][0]
            assert new_fp in slow[0]["reasons"][0]

            # Pinning reverts to the prior plan and protects it.
            result = service.pin_query(RECURSIVE, revert=True)
            assert result["reverted"]
            assert result["fingerprint"] == old_fp
            key = service.cache.key_for(RECURSIVE, service.physical)
            entry = service.cache.entry(key)
            assert entry.pinned
            assert entry.fingerprint == old_fp
            assert canonical_fingerprint(entry.plan) == old_fp
            # Subsequent requests are served from the pinned plan.
            response = service.run_query(RECURSIVE)
            assert response["cache"] in ("hit", "revalidated")
        finally:
            service.close()

    def test_auto_pin_reverts_without_operator(self):
        service = QueryService(build_db(), self.config(auto_pin=True))
        try:
            for _run in range(4):
                service.run_query(RECURSIVE)
            old_fp, _new_fp = induce_regression(service, RECURSIVE)
            for _run in range(3):
                service.run_query(RECURSIVE)
            key = service.cache.key_for(RECURSIVE, service.physical)
            entry = service.cache.entry(key)
            assert entry.pinned
            assert entry.fingerprint == old_fp
            assert service.metrics.counters.get("plans_pinned") == 1
        finally:
            service.close()

    def test_equivalent_replan_is_not_watched(self):
        service = QueryService(build_db(), self.config())
        try:
            service.run_query(RECURSIVE)
            key = service.cache.key_for(RECURSIVE, service.physical)
            entry = service.cache.entry(key)
            # Re-optimizing to the structurally identical plan is not a
            # plan change at all.
            event = service.feedback.plan_changed(
                key[0],
                entry.plan,
                entry.cost,
                entry.plan,
                entry.cost,
                "cost_drift",
            )
            assert event is None
            assert service.feedback.snapshot()["pending_changes"] == []
        finally:
            service.close()


class TestProtocolSurface:
    def test_history_and_recalibrate_ops(self):
        service = QueryService(
            build_db(lineages=2, generations=4),
            ServiceConfig(recalibrate_min_samples=5, history_window=8),
        )
        try:
            # One observation per calibration event weight (the fit is
            # underdetermined below len(EVENT_NAMES) samples).
            for _run in range(6):
                service.handle({"op": "query", "text": SCAN})
            response = service.handle({"op": "history"})
            assert response["ok"]
            assert response["history"]["plans"] >= 1
            assert response["feedback"]["tracked_plans"] >= 1

            response = service.handle({"op": "recalibrate"})
            assert response["ok"] and not response["applied"]

            response = service.handle({"op": "pin", "text": SCAN})
            assert response["ok"] and response["pinned"]
            response = service.handle({"op": "unpin", "text": SCAN})
            assert response["ok"] and response["found"]

            response = service.handle({"op": "history", "limit": 0})
            assert not response["ok"]
        finally:
            service.close()

    def test_history_rejects_a_boolean_limit(self):
        # ``True`` is an ``int`` to Python; as a limit it must not
        # silently mean 1.
        service = QueryService(build_db(lineages=2, generations=4))
        try:
            service.handle({"op": "query", "text": SCAN})
            response = service.handle({"op": "history", "limit": True})
            assert not response["ok"]
            assert response["error"]["code"] == "protocol_error"
            assert service.handle({"op": "history", "limit": 1})["ok"]
        finally:
            service.close()

    def test_feedback_disabled_service_still_serves(self):
        service = QueryService(
            build_db(lineages=2, generations=4),
            ServiceConfig(feedback_enabled=False),
        )
        try:
            response = service.run_query(SCAN)
            assert response["row_count"] >= 0
            assert "feedback" not in service.stats()
            error = service.handle({"op": "history"})
            assert not error["ok"]
            error = service.handle({"op": "recalibrate"})
            assert not error["ok"]
        finally:
            service.close()

    def test_stats_and_metrics_expose_feedback(self):
        service = QueryService(
            build_db(lineages=2, generations=4),
            ServiceConfig(history_window=8),
        )
        try:
            for _run in range(3):
                service.run_query(SCAN)
            stats = service.stats()
            assert stats["feedback"]["tracked_plans"] >= 1
            text = service.metrics_text()
            assert "repro_misestimate_ratio" in text
        finally:
            service.close()


class TestProfileSampling:
    """``profile_sample_every`` is the one rule that decides which
    served queries carry profiled per-operator actuals: every Nth,
    counted deterministically from the first."""

    def profiled_requests(self, every, runs=9):
        service = QueryService(
            build_db(lineages=2, generations=4),
            ServiceConfig(profile_sample_every=every),
        )
        try:
            request_ids = [service.run_query(SCAN)["request_id"] for _ in range(runs)]
            (history,) = service.feedback.store._plans.values()
            observations = {obs.request_id: obs for obs in history.observations}
        finally:
            service.close()
        profiled = []
        for number, request_id in enumerate(request_ids, start=1):
            operators = observations[request_id].operators.values()
            detailed = [
                op.cost is not None and op.seconds is not None for op in operators
            ]
            assert operators and (all(detailed) or not any(detailed))
            assert observations[request_id].profiled == all(detailed)
            if all(detailed):
                profiled.append(number)
        return profiled

    def test_every_third_request_is_profiled(self):
        assert self.profiled_requests(3) == [3, 6, 9]

    def test_zero_profiles_no_request(self):
        assert self.profiled_requests(0) == []


def test_operator_estimates_propagate_unexpected_errors():
    """Per-operator estimates re-cost a plan with the model that just
    priced it; a failure there is a bug, not an empty estimate."""

    class BrokenModel:
        def annotated_report(self, _plan):
            raise AttributeError("injected")

    with pytest.raises(AttributeError, match="injected"):
        operator_estimates(EntityLeaf("Composer", "x"), BrokenModel())
