"""The flight recorder: bundle assembly, recording caps, and
deterministic replay (plan-fingerprint + answer-set equality)."""

import io
import json
import os
import threading

import pytest

from repro.cli import main
from repro.core.baselines import cost_controlled_optimizer
from repro.cost.params import CostParameters
from repro.engine import Engine
from repro.lang.compile import compile_text
from repro.obs.recorder import (
    BUNDLE_VERSION,
    FlightRecorder,
    answer_fingerprint,
    build_bundle,
    database_from_config,
    load_bundle,
    replay_bundle,
)
from repro.plans.canonical import canonical_fingerprint
from repro.service import QueryService, ServiceConfig
from repro.workloads import MusicConfig, generate_music_database

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


def run_and_bundle(text, database, tmp_path=None):
    """Optimize + execute *text* and wrap the run into a bundle."""
    physical = database.physical
    graph = compile_text(text, database.catalog)
    result = cost_controlled_optimizer(physical).optimize(graph)
    execution = Engine(physical).execute(result.plan)
    return build_bundle(
        query_text=text,
        canonical=text,
        query_cls="testcls",
        plan=result.plan,
        fingerprint=canonical_fingerprint(result.plan),
        estimated_cost=result.cost,
        rows=execution.rows,
        measured_cost=execution.metrics.measured_cost(),
        execute_seconds=0.01,
        fix_iterations=execution.metrics.fix_iterations,
        knobs={"shards": 1, "max_fix_iterations": 256},
        physical=physical,
        database=RECIPE,
    )


class TestFingerprints:
    def test_answer_fingerprint_order_insensitive(self):
        rows = [{"a": 1, "b": 2}, {"a": 3, "b": 4}]
        assert answer_fingerprint(rows) == answer_fingerprint(rows[::-1])

    def test_answer_fingerprint_detects_difference(self):
        assert answer_fingerprint([{"a": 1}]) != answer_fingerprint([{"a": 2}])

    def test_database_recipe_deterministic(self):
        from repro.service.plan_cache import schema_fingerprint

        first = database_from_config(RECIPE)
        second = database_from_config(RECIPE)
        assert schema_fingerprint(first.physical) == schema_fingerprint(
            second.physical
        )

    def test_parts_recipe(self):
        db = database_from_config({"db": "parts", "seed": 7})
        assert db.physical is not None


class TestBundles:
    def test_bundle_shape(self):
        db = database_from_config(RECIPE)
        bundle = run_and_bundle(SCAN, db)
        assert bundle["bundle_version"] == BUNDLE_VERSION
        assert bundle["query"]["class"] == "testcls"
        assert bundle["plan"]["fingerprint"]
        assert bundle["plan"]["rendered"]
        assert bundle["execution"]["answer_fingerprint"]
        assert bundle["store"]["schema"] and bundle["store"]["stats"]
        assert bundle["database"] == RECIPE
        # The whole bundle must be JSON-serializable as-is.
        json.dumps(bundle, default=str)

    def test_recorder_writes_and_caps(self, tmp_path):
        recorder = FlightRecorder(
            directory=str(tmp_path), max_bundles=3, per_class=2
        )
        db = database_from_config(RECIPE)
        bundle = run_and_bundle(SCAN, db)
        first = recorder.record(bundle)
        second = recorder.record(bundle)
        assert first and os.path.exists(first)
        assert second and second != first
        # Third hits the per-class cap.
        assert recorder.record(bundle) is None
        other = dict(bundle, query=dict(bundle["query"], **{"class": "b"}))
        assert recorder.record(other) is not None
        # Fourth hits the global cap.
        third = dict(bundle, query=dict(bundle["query"], **{"class": "c"}))
        assert recorder.record(third) is None
        snap = recorder.snapshot()
        assert snap["written"] == 3 and snap["suppressed"] == 2

    def test_memory_only_recorder(self):
        recorder = FlightRecorder(directory=None)
        db = database_from_config(RECIPE)
        assert recorder.record(run_and_bundle(SCAN, db)) is None
        assert recorder.written == 1 and len(recorder.recent) == 1

    def test_load_bundle_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"bundle_version": 99}))
        with pytest.raises(ValueError):
            load_bundle(str(path))


class TestReplay:
    def test_replay_matches_scan(self, tmp_path):
        db = database_from_config(RECIPE)
        bundle = run_and_bundle(SCAN, db)
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(bundle, default=str))
        report = replay_bundle(load_bundle(str(path)))
        assert report["schema_match"]
        assert report["plan_match"] and report["answer_match"]
        assert report["matched"]
        assert report["row_count"] == report["expected_row_count"]

    def test_replay_matches_recursive_query(self):
        db = database_from_config(RECIPE)
        bundle = run_and_bundle(FIG3, db)
        report = replay_bundle(bundle)
        assert report["matched"]

    def test_replay_accepts_retired_batch_layout_knob(self, tmp_path):
        # Bundles recorded while the engine still had a row layout
        # carry the knob; replay drops it (retiring a knob does not
        # bump bundle_version).
        db = database_from_config(RECIPE)
        bundle = run_and_bundle(FIG3, db)
        bundle["knobs"]["batch_layout"] = "row"
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(bundle, default=str))
        out = io.StringIO()
        assert main(["replay", str(path)], out=out) == 0
        assert "REPLAY OK" in out.getvalue()

    def test_replay_accepts_retired_parallelism_knob(self, tmp_path):
        # Bundles recorded while the engine still had a thread-parallel
        # fixpoint carry its width in both the knobs and the cost
        # parameters; replay drops it and runs serially (retiring a
        # knob does not bump bundle_version).
        db = database_from_config(RECIPE)
        bundle = run_and_bundle(FIG3, db)
        bundle["knobs"]["parallelism"] = 4
        bundle["cost_parameters"]["parallelism"] = 4
        assert bundle["bundle_version"] == BUNDLE_VERSION == 2
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(bundle, default=str))
        out = io.StringIO()
        assert main(["replay", str(path)], out=out) == 0
        assert "REPLAY OK" in out.getvalue()

    def test_replay_accepts_retired_anomaly_fields(self, tmp_path):
        # Bundles recorded by the retired anomaly detector carry its
        # verdicts, the governor's sampling decision and the class
        # baselines; replay reads none of them (retiring a field does
        # not bump bundle_version).
        db = database_from_config(RECIPE)
        bundle = run_and_bundle(FIG3, db)
        bundle.update(
            reason="anomaly",
            anomalies=[
                {"metric": "latency", "value": 0.2, "baseline": 0.01, "z": 9.0}
            ],
            sampling={"mode": "full", "sampled": True, "weight": 1.0},
            baselines={"latency": {"level": 0.01, "spread": 0.001, "count": 8}},
        )
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(bundle, default=str))
        out = io.StringIO()
        assert main(["replay", "--json", str(path)], out=out) == 0
        assert json.loads(out.getvalue())["matched"]

    def test_sharded_replay_closes_its_cluster(self):
        db = database_from_config(RECIPE)
        bundle = run_and_bundle(FIG3, db)
        bundle["knobs"]["shards"] = 2
        before = threading.active_count()
        report = replay_bundle(bundle)
        assert report["matched"]
        assert threading.active_count() == before

    def test_sharded_diagnose_replays_under_its_recorded_parameters(self):
        # A service priced under non-default unit costs (the
        # eval_per_tuple=0.02 prior bench_feedback_calibration starts
        # from) records them; replay must plan under them, not under
        # the defaults.
        service = QueryService(
            database_from_config(RECIPE), ServiceConfig(database_config=RECIPE)
        )
        service._cost_params = CostParameters(eval_per_tuple=0.02)
        try:
            response = service.handle(
                {"op": "diagnose", "text": FIG3, "shards": 2}
            )
        finally:
            service.close()
        assert response["ok"], response
        bundle = json.loads(json.dumps(service.recorder.recent[-1], default=str))
        assert bundle["knobs"]["shards"] == 2
        assert bundle["cost_parameters"]["eval_per_tuple"] == 0.02
        report = replay_bundle(bundle)
        assert report["plan_match"] and report["answer_match"]
        assert report["estimated_cost"] == bundle["plan"]["estimated_cost"]
        # The recorded parameters are what set that estimate.
        unrecorded = replay_bundle(dict(bundle, cost_parameters=None))
        assert unrecorded["estimated_cost"] != report["estimated_cost"]

    def test_replay_detects_answer_divergence(self):
        db = database_from_config(RECIPE)
        bundle = run_and_bundle(SCAN, db)
        bundle["execution"]["answer_fingerprint"] = "0" * 16
        report = replay_bundle(bundle)
        assert not report["answer_match"] and not report["matched"]

    def test_replay_detects_plan_divergence(self):
        db = database_from_config(RECIPE)
        bundle = run_and_bundle(SCAN, db)
        bundle["plan"]["fingerprint"] = "f" * 16
        report = replay_bundle(bundle)
        assert not report["plan_match"] and not report["matched"]

    def test_replay_against_prebuilt_database(self):
        db = database_from_config(RECIPE)
        bundle = run_and_bundle(SCAN, db)
        bundle["database"] = None
        report = replay_bundle(bundle, database=db)
        assert report["matched"]

    def test_replay_prices_the_recorded_machine(self):
        # Same data, two machines: the recorded 6-page pool and a
        # 256-page one, which holds the 8-page Composer extent the
        # closure dereferences, price the same plan differently.
        def database(buffer_pages):
            db = generate_music_database(
                MusicConfig(
                    lineages=8,
                    generations=8,
                    works_per_composer=2,
                    records_per_page=8,
                    buffer_pages=buffer_pages,
                    seed=0,
                )
            )
            db.build_paper_indexes()
            return db

        bundle = run_and_bundle(FIG3, database(6))
        assert bundle["cost_parameters"]["buffer_pages"] == 6
        assert bundle["cost_parameters"]["temp_records_per_page"] == 8
        bundle = json.loads(json.dumps(bundle, default=str))
        bundle["database"] = None

        roomy = database(256)
        graph = compile_text(FIG3, roomy.catalog)
        unaided = cost_controlled_optimizer(roomy.physical).optimize(graph)
        assert round(unaided.cost, 4) != bundle["plan"]["estimated_cost"]
        report = replay_bundle(bundle, database=roomy)
        assert report["plan_match"] and report["matched"]
        assert report["estimated_cost"] == bundle["plan"]["estimated_cost"]

    def test_replay_without_recipe_or_database_fails(self):
        db = database_from_config(RECIPE)
        bundle = run_and_bundle(SCAN, db)
        bundle["database"] = None
        with pytest.raises(ValueError):
            replay_bundle(bundle)
