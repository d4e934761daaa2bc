"""End-to-end cost-controlled observability on the serving path.

A governed :class:`QueryService` (``--obs-budget`` set): the sampling
echo on query responses, anomaly injection in sampled runs driving
flight-recorder bundles that replay deterministically, head-sampling
degradation under a saturated budget with calibration staying on the
sampled (weighted) runs only, and the ``governor``/``diagnose``
protocol ops.

When ``REPRO_BUNDLE_ARTIFACT`` is set (CI does this), the anomaly
bundle is copied there so the workflow can replay it with
``repro replay`` and upload it as a build artifact.
"""

import os
import shutil

import pytest

from repro.obs.recorder import database_from_config, load_bundle, replay_bundle
from repro.service import QueryService, ServiceConfig

#: The recipe is part of the test: it rides inside recorded bundles as
#: ``database`` so replay can rebuild a bit-identical store.
RECIPE = {"db": "music", "seed": 21, "lineages": 3, "generations": 6}

SCAN = "select [name: x.name] from x in Composer where x.birthyear >= 1700;"

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


def governed_service(tmp_path, **overrides):
    defaults = dict(
        obs_budget=0.5,
        bundle_dir=str(tmp_path / "bundles"),
        database_config=RECIPE,
        anomaly_min_samples=5,
        slow_query_seconds=10.0,
    )
    defaults.update(overrides)
    db = database_from_config(RECIPE)
    service = QueryService(db, ServiceConfig(**defaults))
    if service.governor is not None:
        # Pin unit costs: modeled spend on sub-ms test queries must not
        # depend on this machine's measured probe cost, or the generous
        # budget above can still saturate and degrade mid-test.
        service.governor.probe_cost = service.governor.span_cost = 1e-7
    return service, db


class TestSamplingEcho:
    def test_governed_response_carries_obs(self, tmp_path):
        service, _ = governed_service(tmp_path)
        response = service.handle({"op": "query", "text": SCAN})
        assert response["ok"]
        obs = response["obs"]
        assert set(obs) == {"mode", "sampled", "weight", "reason"}
        assert obs["sampled"] and obs["mode"] == "full"

    def test_ungoverned_response_has_no_obs(self):
        service = QueryService(database_from_config(RECIPE))
        response = service.handle({"op": "query", "text": SCAN})
        assert response["ok"] and "obs" not in response

    def test_stats_and_metrics_surface_governor(self, tmp_path):
        service, _ = governed_service(tmp_path)
        service.handle({"op": "query", "text": SCAN})
        assert "governor" in service.stats()
        text = service.metrics_text()
        assert "repro_obs_budget_fraction" in text
        assert "repro_obs_committed_total" in text


class TestAnomalyInjection:
    def inject(self, service, db, runs=8):
        """Warm a class, then make the store suddenly slow."""
        for _ in range(runs):
            assert service.handle({"op": "query", "text": SCAN})["ok"]
        db.physical.store.buffer.io_latency = 0.05
        db.physical.store.buffer.clear()
        return service.handle({"op": "query", "text": SCAN})

    def test_injected_anomaly_is_flagged_and_bundled(self, tmp_path):
        service, db = governed_service(tmp_path)
        response = self.inject(service, db)
        assert response["ok"]
        obs = response["obs"]
        assert obs["sampled"]
        metrics = [a["metric"] for a in obs["anomalies"]]
        assert "latency" in metrics
        bundle_path = obs["bundle"]
        assert os.path.exists(bundle_path)

        # The anomaly lands everywhere an operator would look.
        snapshot = service.metrics.snapshot()
        assert snapshot["counters"]["anomalies"] >= 1
        assert snapshot["counters"]["flight_bundles"] >= 1
        slow = snapshot["slow"]
        assert any(
            any(r.startswith("anomaly:latency") for r in entry["reasons"])
            for entry in slow
        )
        events = [
            e for e in service.feedback.store.events if e["event"] == "anomaly"
        ]
        assert events and events[-1]["request_id"] == response["request_id"]

        # The class is pinned to full detail for the follow-up runs.
        stats = service.governor_stats()
        pinned = [c for c in stats["governor"]["classes"] if c["pinned"]]
        assert pinned and pinned[0]["anomalies"] >= 1
        follow_up = service.handle({"op": "query", "text": SCAN})
        assert follow_up["obs"]["reason"] == "anomaly-pinned"

    def test_anomaly_bundle_replays_deterministically(self, tmp_path):
        service, db = governed_service(tmp_path)
        response = self.inject(service, db)
        bundle_path = response["obs"]["bundle"]

        artifact = os.environ.get("REPRO_BUNDLE_ARTIFACT")
        if artifact:
            os.makedirs(os.path.dirname(artifact) or ".", exist_ok=True)
            shutil.copyfile(bundle_path, artifact)

        bundle = load_bundle(bundle_path)
        assert bundle["reason"] == "anomaly"
        assert bundle["database"] == RECIPE
        assert bundle["trace"] is not None and bundle["profile"] is not None
        report = replay_bundle(bundle)
        assert report["schema_match"]
        assert report["plan_match"]
        assert report["answer_match"]
        assert report["matched"]

    def test_recursive_query_bundle_replays(self, tmp_path):
        service, db = governed_service(tmp_path)
        for _ in range(8):
            assert service.handle({"op": "query", "text": FIG3})["ok"]
        db.physical.store.buffer.io_latency = 0.05
        db.physical.store.buffer.clear()
        response = service.handle({"op": "query", "text": FIG3})
        bundle_path = response["obs"].get("bundle")
        assert bundle_path, response["obs"]
        assert replay_bundle(load_bundle(bundle_path))["matched"]


class TestDegradation:
    def test_saturated_budget_head_samples(self, tmp_path):
        service, _ = governed_service(tmp_path, obs_budget=0.05)
        # Make every probe ruinously expensive so the modeled spend
        # saturates the budget immediately.
        service.governor.probe_cost = 10.0
        service.governor.span_cost = 10.0
        echoes = []
        for _ in range(24):
            response = service.handle({"op": "query", "text": SCAN})
            assert response["ok"]
            echoes.append(response["obs"])
        modes = {echo["mode"] for echo in echoes}
        assert "skip" in modes, modes
        skipped = [echo for echo in echoes if echo["mode"] == "skip"]
        assert all(not echo["sampled"] for echo in skipped)
        counters = service.metrics.snapshot()["counters"]
        assert counters["obs_dropped"] == len(skipped)

        # Calibration consumes exactly the sampled observations, and
        # head-sampled ones carry their inverse-probability weight.
        samples = service.feedback.store.calibration_samples()
        sampled = [echo for echo in echoes if echo["sampled"]]
        assert counters["obs_committed"] == len(sampled)
        assert len(samples) == len(sampled)
        assert len(samples) < len(echoes)
        if any(echo["mode"] == "head" for echo in echoes):
            assert any(sample["weight"] > 1.0 for sample in samples)

    def test_budget_zero_disables_governor(self):
        service = QueryService(
            database_from_config(RECIPE), ServiceConfig(obs_budget=None)
        )
        assert service.governor is None and service.anomalies is None


class TestOps:
    def test_governor_op(self, tmp_path):
        service, _ = governed_service(tmp_path)
        service.handle({"op": "query", "text": SCAN})
        response = service.handle({"op": "governor"})
        assert response["ok"] and response["enabled"]
        assert response["governor"]["decisions"]["full"] >= 1
        assert "recorder" in response

    def test_governor_op_when_disabled(self):
        service = QueryService(database_from_config(RECIPE))
        response = service.handle({"op": "governor"})
        assert response["ok"] and response["enabled"] is False

    def test_diagnose_op_records_replayable_bundle(self, tmp_path):
        service, _ = governed_service(tmp_path)
        response = service.handle({"op": "diagnose", "text": SCAN})
        assert response["ok"]
        assert response["row_count"] > 0
        bundle_path = response["bundle"]
        assert bundle_path and os.path.exists(bundle_path)
        bundle = load_bundle(bundle_path)
        assert bundle["reason"] == "diagnose"
        assert replay_bundle(bundle)["matched"]

    def test_diagnose_works_without_governor(self, tmp_path):
        service = QueryService(
            database_from_config(RECIPE),
            ServiceConfig(bundle_dir=str(tmp_path), database_config=RECIPE),
        )
        response = service.handle({"op": "diagnose", "text": SCAN})
        assert response["ok"] and response["bundle"]

    def test_diagnose_requires_text(self, tmp_path):
        service, _ = governed_service(tmp_path)
        response = service.handle({"op": "diagnose"})
        assert response["ok"] is False
        assert response["error"]["code"] == "protocol_error"


class TestReplayCli:
    def bundle_path(self, service, tmp_path):
        response = service.handle({"op": "diagnose", "text": SCAN})
        assert response["ok"]
        return response["bundle"]

    def test_replay_command_passes_on_good_bundle(self, tmp_path):
        import io

        from repro.cli import main

        service, _ = governed_service(tmp_path)
        out = io.StringIO()
        code = main(["replay", self.bundle_path(service, tmp_path)], out=out)
        assert code == 0
        assert "REPLAY OK" in out.getvalue()

    def test_replay_command_fails_on_tampered_bundle(self, tmp_path):
        import io
        import json

        from repro.cli import main

        service, _ = governed_service(tmp_path)
        path = self.bundle_path(service, tmp_path)
        bundle = json.loads(open(path).read())
        bundle["execution"]["answer_fingerprint"] = "0" * 16
        with open(path, "w") as handle:
            json.dump(bundle, handle)
        out = io.StringIO()
        code = main(["replay", path], out=out)
        assert code != 0
        assert "REPLAY FAILED" in out.getvalue()
