"""The ``diagnose`` op, CLI replay of its bundles, and the retired
overhead governor staying retired.

``profile_sample_every`` alone decides how much observability detail a
served query gets: query responses carry no ``obs`` echo and the old
``governor`` op is an unknown op.  Incidents are captured on demand:
``diagnose`` runs one query at full detail and records a
flight-recorder bundle that ``repro replay`` re-executes
deterministically.
"""

import os

from repro.obs.recorder import database_from_config, load_bundle, replay_bundle
from repro.service import QueryService, ServiceConfig

#: The recipe is part of the test: it rides inside recorded bundles as
#: ``database`` so replay can rebuild a bit-identical store.
RECIPE = {"db": "music", "seed": 21, "lineages": 3, "generations": 6}

SCAN = "select [name: x.name] from x in Composer where x.birthyear >= 1700;"


def recording_service(tmp_path):
    db = database_from_config(RECIPE)
    config = ServiceConfig(
        bundle_dir=str(tmp_path / "bundles"), database_config=RECIPE
    )
    return QueryService(db, config), db


class TestSamplingEcho:
    def test_ungoverned_response_has_no_obs(self):
        service = QueryService(database_from_config(RECIPE))
        response = service.handle({"op": "query", "text": SCAN})
        assert response["ok"] and "obs" not in response


class TestOps:
    def test_retired_governor_op_is_unknown(self):
        service = QueryService(database_from_config(RECIPE))
        response = service.handle({"op": "governor", "id": 7})
        assert response["ok"] is False
        assert response["error"]["code"] == "protocol_error"
        assert response["error"]["message"] == "unknown op 'governor'"
        assert response["id"] == 7

    def test_diagnose_op_records_replayable_bundle(self, tmp_path):
        service, _ = recording_service(tmp_path)
        response = service.handle({"op": "diagnose", "text": SCAN})
        assert response["ok"]
        assert response["row_count"] > 0
        bundle_path = response["bundle"]
        assert bundle_path and os.path.exists(bundle_path)
        bundle = load_bundle(bundle_path)
        assert bundle["reason"] == "diagnose"
        assert bundle["trace"] is not None and bundle["profile"] is not None
        assert replay_bundle(bundle)["matched"]

    def test_diagnose_works_without_governor(self, tmp_path):
        service = QueryService(
            database_from_config(RECIPE),
            ServiceConfig(bundle_dir=str(tmp_path), database_config=RECIPE),
        )
        response = service.handle({"op": "diagnose", "text": SCAN})
        assert response["ok"] and response["bundle"]
        assert response["recorder"]["written"] == 1

    def test_diagnose_requires_text(self, tmp_path):
        service, _ = recording_service(tmp_path)
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

        service, _ = recording_service(tmp_path)
        out = io.StringIO()
        code = main(["replay", self.bundle_path(service, tmp_path)], out=out)
        assert code == 0
        assert "REPLAY OK" in out.getvalue()

    def test_replay_command_fails_on_tampered_bundle(self, tmp_path):
        import io
        import json

        from repro.cli import main

        service, _ = recording_service(tmp_path)
        path = self.bundle_path(service, tmp_path)
        bundle = json.loads(open(path).read())
        bundle["execution"]["answer_fingerprint"] = "0" * 16
        with open(path, "w") as handle:
            json.dump(bundle, handle)
        out = io.StringIO()
        code = main(["replay", path], out=out)
        assert code != 0
        assert "REPLAY FAILED" in out.getvalue()
