"""QueryTelemetryStore unit tests: fingerprints, q-errors, the bounded
per-plan observation rings, JSONL persistence round-trips, and the
calibration-sample extraction feeding :mod:`repro.cost.calibrate`."""

import json

import pytest

from repro.core.baselines import cost_controlled_optimizer
from repro.lang import compile_text
from repro.obs.history import (
    Observation,
    OperatorActual,
    OperatorEstimate,
    PlanHistory,
    QueryTelemetryStore,
    q_error,
    query_class,
)
from repro.plans.canonical import canonical_fingerprint
from repro.workloads import MusicConfig, generate_music_database

SCAN = "select [name: x.name] from x in Composer where x.birthyear >= 1700;"
LOOKUP = 'select [name: x.name] from x in Composer where x.name = "Bach";'


@pytest.fixture(scope="module")
def db():
    db = generate_music_database(
        MusicConfig(lineages=3, generations=5, works_per_composer=2, seed=7)
    )
    db.build_paper_indexes()
    return db


def plan_of(db, text):
    graph = compile_text(text, db.catalog)
    return cost_controlled_optimizer(db.physical).optimize(graph).plan


def observation(
    request_id="r1",
    estimated=10.0,
    measured=12.0,
    seconds=0.002,
    rows=3,
    events=None,
    operators=None,
):
    return Observation(
        at=0.0,
        request_id=request_id,
        estimated_cost=estimated,
        measured_cost=measured,
        execute_seconds=seconds,
        rows=rows,
        events=events or {},
        operators=operators or {},
    )


class TestFingerprints:
    def test_same_plan_same_fingerprint(self, db):
        first, second = plan_of(db, SCAN), plan_of(db, SCAN)
        assert canonical_fingerprint(first) == canonical_fingerprint(second)

    def test_different_plans_differ(self, db):
        scan, lookup = plan_of(db, SCAN), plan_of(db, LOOKUP)
        assert canonical_fingerprint(scan) != canonical_fingerprint(lookup)

    def test_fingerprint_shape(self, db):
        fp = canonical_fingerprint(plan_of(db, SCAN))
        assert len(fp) == 16
        int(fp, 16)  # hex

    def test_query_class_is_stable_and_short(self):
        assert query_class(SCAN) == query_class(SCAN)
        assert query_class(SCAN) != query_class(LOOKUP)
        assert len(query_class(SCAN)) == 8


class TestQError:
    def test_symmetric(self):
        assert q_error(10.0, 20.0) == pytest.approx(2.0)
        assert q_error(20.0, 10.0) == pytest.approx(2.0)

    def test_exact_is_one(self):
        assert q_error(5.0, 5.0) == pytest.approx(1.0)

    def test_zero_sides_are_floored(self):
        # A measured cost of zero (fully buffered, no predicate) must
        # not explode the ratio; both zero means a perfect estimate.
        assert q_error(0.0, 0.0) == 1.0
        assert q_error(3.0, 0.0) == pytest.approx(3.0)
        assert q_error(0.0, 3.0) == pytest.approx(3.0)


class TestStoreRecording:
    def test_record_appends_and_bounds_window(self):
        store = QueryTelemetryStore(window=4)
        store.register_plan(SCAN, "fp1", 10.0)
        for run in range(9):
            store.record("fp1", observation(request_id=f"r{run}"))
        history = store.plan("fp1")
        assert history.total_runs == 9
        assert len(history.observations) == 4  # ring bound

    def test_record_unknown_fingerprint_is_noop(self):
        store = QueryTelemetryStore()
        store.record("missing", observation())
        assert store.plan("missing") is None

    def test_plans_for_groups_by_canonical(self):
        store = QueryTelemetryStore()
        store.register_plan(SCAN, "fp1", 10.0)
        store.register_plan(SCAN, "fp2", 8.0)  # re-optimized plan
        store.register_plan(LOOKUP, "fp3", 1.0)
        assert [h.fingerprint for h in store.plans_for(SCAN)] == ["fp1", "fp2"]

    def test_max_plans_drops_least_recently_observed(self):
        store = QueryTelemetryStore(max_plans=2)
        store.register_plan(SCAN, "fp1", 1.0)
        store.register_plan(LOOKUP, "fp2", 1.0)
        store.record("fp1", observation())  # fp1 is now most recent
        store.register_plan("third query;", "fp3", 1.0)
        assert store.plan("fp2") is None
        assert store.plan("fp1") is not None
        assert store.dropped_plans == 1

    def test_misestimates(self):
        store = QueryTelemetryStore()
        estimates = {
            "n0": OperatorEstimate("n0", "Sel", "Sel", est_rows=10.0),
        }
        store.register_plan(SCAN, "fp1", 10.0, estimates)
        store.record(
            "fp1",
            observation(
                estimated=10.0,
                measured=20.0,
                operators={"n0": OperatorActual(rows=20.0)},
            ),
        )
        history = store.plan("fp1")
        assert history.cost_misestimate() == pytest.approx(2.0)
        ops = history.operator_misestimates()
        assert ops["n0"]["rows_q_error"] == pytest.approx(2.0)
        by_query = store.misestimate_by_query()
        assert by_query[query_class(SCAN)]["cost_misestimate"] == pytest.approx(
            2.0
        )

    def test_calibration_samples_carry_target(self):
        store = QueryTelemetryStore()
        store.register_plan(SCAN, "fp1", 10.0)
        store.record(
            "fp1",
            observation(
                measured=42.0,
                events={"physical_reads": 40.0, "predicate_evals": 20.0},
            ),
        )
        store.record("fp1", observation(events={}))  # no events -> skipped
        (sample,) = store.calibration_samples()
        assert sample["target"] == 42.0
        assert sample["physical_reads"] == 40.0


class TestPersistence:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        store = QueryTelemetryStore(persist_path=str(path))
        store.register_plan(
            SCAN,
            "fp1",
            10.0,
            {"n0": OperatorEstimate("n0", "Sel", "Sel", est_rows=5.0)},
        )
        store.record(
            "fp1",
            observation(
                events={"physical_reads": 4.0},
                operators={"n0": OperatorActual(rows=6.0)},
            ),
        )
        store.record_event("recalibration", samples=12)
        store.close()

        reloaded = QueryTelemetryStore(persist_path=str(path))
        history = reloaded.plan("fp1")
        assert history is not None
        assert history.total_runs == 1
        assert history.estimates["n0"].est_rows == 5.0
        (obs,) = list(history.observations)
        assert obs.operators["n0"].rows == 6.0
        assert [e["event"] for e in reloaded.events] == ["recalibration"]
        reloaded.close()

    def test_corrupt_lines_are_skipped(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        store = QueryTelemetryStore(persist_path=str(path))
        store.register_plan(SCAN, "fp1", 10.0)
        store.record("fp1", observation())
        store.close()
        with open(path, "a") as handle:
            handle.write("{truncated\n")
            handle.write(json.dumps({"kind": "unknown"}) + "\n")
        reloaded = QueryTelemetryStore(persist_path=str(path))
        assert reloaded.plan("fp1").total_runs == 1
        reloaded.close()

    def test_snapshot_shape(self):
        store = QueryTelemetryStore()
        store.register_plan(SCAN, "fp1", 10.0)
        store.record("fp1", observation())
        snapshot = store.snapshot()
        assert snapshot["plans"] == 1
        (entry,) = snapshot["queries"]
        assert entry["query"] == SCAN
        assert entry["plans"][0]["fingerprint"] == "fp1"
        assert entry["plans"][0]["runs"] == 1


class TestValidation:
    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            QueryTelemetryStore(window=0)

    def test_bad_max_plans_rejected(self):
        with pytest.raises(ValueError):
            QueryTelemetryStore(max_plans=0)

    def test_history_median(self):
        history = PlanHistory("fp", SCAN, 1.0)
        assert history.median_latency() is None
        for seconds in (0.004, 0.001, 0.002):
            history.observations.append(observation(seconds=seconds))
        assert history.median_latency() == pytest.approx(0.002)
