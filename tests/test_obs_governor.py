"""The overhead governor and the EWMA+MAD anomaly detector.

Unit-level: the sampling policy (grace, recovery, dominant-class
degradation, overload, anomaly pinning, the probability floor), the
deterministic stride sampler the policy rides on, and the detector's
warmup / one-sided scoring / baseline-contamination guarantees.
"""

import pytest

from repro.obs.anomaly import AnomalyConfig, AnomalyDetector
from repro.obs.governor import (
    GovernorConfig,
    ObservabilityGovernor,
    measure_probe_cost,
)
from repro.obs.sampler import FULL_DETAIL, StrideSampler, stride_for


def governor(**overrides) -> ObservabilityGovernor:
    """A governor with a fixed probe cost (no startup micro-benchmark)
    so spend arithmetic in the tests is exact."""
    defaults = dict(budget=0.05, probe_cost=0.001, grace_runs=0)
    defaults.update(overrides)
    return ObservabilityGovernor(GovernorConfig(**defaults))


class TestStrideSampler:
    def test_stride_for_probability(self):
        assert stride_for(1.0) == 1
        assert stride_for(0.5) == 2
        assert stride_for(0.25) == 4
        assert stride_for(1.0 / 64.0) == 64

    def test_deterministic_one_in_k(self):
        sampler = StrideSampler()
        admitted = [sampler.admit("q", 0.25)[0] for _ in range(16)]
        assert admitted.count(True) == 4
        # Deterministic: the same positions admit every time.
        sampler2 = StrideSampler()
        assert [sampler2.admit("q", 0.25)[0] for _ in range(16)] == admitted

    def test_weight_is_inverse_probability(self):
        sampler = StrideSampler()
        _admitted, stride = sampler.admit("q", 0.125)
        assert stride == 8

    def test_forget_restarts_the_stride(self):
        sampler = StrideSampler()
        first = sampler.admit("q", 0.5)[0]
        sampler.admit("q", 0.5)
        sampler.forget("q")
        assert sampler.admit("q", 0.5)[0] == first


class TestGovernorPolicy:
    def test_full_detail_default(self):
        assert FULL_DETAIL.sampled and FULL_DETAIL.weight == 1.0

    def test_new_class_grace(self):
        gov = governor(grace_runs=2)
        # Grossly over budget, but a brand-new class still gets its
        # grace runs at full detail.
        gov.charge("other", wall_seconds=1.0, probes=10_000)
        assert gov.decide("fresh").reason == "new-class"
        assert gov.decide("fresh").reason == "new-class"
        assert gov.decide("fresh").reason != "new-class"

    def test_under_budget_stays_full(self):
        gov = governor()
        for _ in range(10):
            decision = gov.decide("q")
            assert decision.mode == "full" and decision.weight == 1.0
            gov.charge("q", wall_seconds=1.0, probes=10)  # 1% spend
        assert gov.spent_fraction() < 0.05

    def test_dominant_class_degrades_over_budget(self):
        gov = governor()
        # 20% spend, all attributable to "hot".
        for _ in range(5):
            gov.decide("hot")
            gov.charge("hot", wall_seconds=1.0, probes=200)
        modes = set()
        weights = set()
        for _ in range(16):
            decision = gov.decide("hot")
            modes.add(decision.mode)
            weights.add(decision.weight)
            gov.charge("hot", wall_seconds=1.0, probes=200)
        assert "skip" in modes  # head sampling rejected most runs
        assert max(weights) > 1.0  # admitted runs carry the stride

    def test_minor_class_keeps_full_detail(self):
        gov = governor()
        # "hot" pushes spend over budget (8%) but below the overload
        # threshold (2x budget = 10%); "rare" spends nothing.
        for _ in range(5):
            gov.decide("hot")
            gov.charge("hot", wall_seconds=1.0, probes=80)
            gov.decide("rare")
            gov.charge("rare", wall_seconds=0.01, probes=0)
        decision = gov.decide("rare")
        assert decision.mode == "full" and decision.reason == "minor-class"

    def test_overload_degrades_every_class(self):
        gov = governor(overload_ratio=2.0)
        # Two classes each push spend far past 2x budget.
        for _ in range(6):
            for cls in ("a", "b"):
                gov.decide(cls)
                gov.charge(cls, wall_seconds=0.5, probes=500)
        reasons = {gov.decide(cls).reason for cls in ("a", "b")}
        assert reasons <= {"head-sample", "degraded"}

    def test_probability_floor(self):
        gov = governor(min_probability=1.0 / 64.0)
        for _ in range(200):
            gov.decide("hot")
            gov.charge("hot", wall_seconds=1.0, probes=500)
        snap = gov.snapshot()
        hot = next(c for c in snap["classes"] if c["query_class"] == "hot")
        assert hot["probability"] >= 1.0 / 64.0
        # Even fully degraded, 1-in-64 runs are still observed.
        assert hot["sampled_runs"] >= hot["runs"] // 64

    def test_probability_recovers_under_budget(self):
        # Fast decay so the spend window drains within the test.
        gov = governor(decay=0.8)
        for _ in range(20):
            gov.decide("hot")
            gov.charge("hot", wall_seconds=1.0, probes=500)
        degraded = next(
            c for c in gov.snapshot()["classes"] if c["query_class"] == "hot"
        )["probability"]
        assert degraded < 1.0
        # Spend collapses; the class earns its probability back.
        for _ in range(40):
            gov.decide("hot")
            gov.charge("hot", wall_seconds=1.0, probes=0)
        recovered = next(
            c for c in gov.snapshot()["classes"] if c["query_class"] == "hot"
        )["probability"]
        assert recovered == 1.0

    def test_anomaly_pins_full_detail(self):
        gov = governor(anomaly_pin_runs=8)
        for _ in range(30):
            gov.decide("hot")
            gov.charge("hot", wall_seconds=1.0, probes=500)
        gov.note_anomaly("hot")
        for _ in range(8):
            decision = gov.decide("hot")
            assert decision.mode == "full"
            assert decision.reason == "anomaly-pinned"
            gov.charge("hot", wall_seconds=1.0, probes=500)
        assert gov.decide("hot").reason != "anomaly-pinned"

    def test_class_lru_eviction(self):
        gov = governor(max_classes=4)
        for index in range(10):
            gov.decide(f"cls{index}")
        snap = gov.snapshot()
        assert len(snap["classes"]) == 4

    def test_measured_probe_cost_positive(self):
        cost = measure_probe_cost(samples=256)
        assert 0.0 < cost < 0.001  # a probe is microseconds, not ms

    def test_snapshot_shape(self):
        gov = governor()
        gov.decide("q")
        gov.charge("q", wall_seconds=0.1, probes=3, spans=2)
        snap = gov.snapshot()
        for key in (
            "budget",
            "spent_fraction",
            "probe_cost_us",
            "decisions",
            "classes",
        ):
            assert key in snap


class TestAnomalyDetector:
    def detector(self, **overrides) -> AnomalyDetector:
        defaults = dict(threshold=4.0, min_samples=5)
        defaults.update(overrides)
        return AnomalyDetector(AnomalyConfig(**defaults))

    def test_warmup_never_flags(self):
        det = self.detector(min_samples=5)
        for _ in range(5):
            assert det.observe("q", latency=100.0) == []

    def test_level_shift_flags_latency(self):
        det = self.detector()
        for _ in range(10):
            det.observe("q", latency=0.010)
        flagged = det.observe("q", latency=0.500)
        assert len(flagged) == 1
        anomaly = flagged[0]
        assert anomaly.metric == "latency" and anomaly.score > 4.0
        assert "anomaly:latency" in anomaly.describe()

    def test_one_sided_fast_runs_never_flag(self):
        det = self.detector()
        for _ in range(10):
            det.observe("q", latency=0.010)
        assert det.observe("q", latency=0.0001) == []

    def test_no_baseline_contamination(self):
        # A sustained level shift keeps flagging: anomalous samples do
        # not update the baseline, so the detector cannot acclimatize
        # to an incident.
        det = self.detector()
        for _ in range(10):
            det.observe("q", latency=0.010)
        for _ in range(20):
            assert det.observe("q", latency=0.500)

    def test_misestimate_and_skew_metrics(self):
        det = self.detector()
        for _ in range(10):
            det.observe("q", latency=0.01, misestimate=1.1, skew=1.0)
        flagged = det.observe("q", latency=0.01, misestimate=80.0, skew=1.0)
        assert [a.metric for a in flagged] == ["misestimate"]

    def test_classes_isolated(self):
        det = self.detector()
        for _ in range(10):
            det.observe("a", latency=0.010)
        # "b" has no baseline yet: its first slow run is warmup, not
        # an anomaly inherited from "a".
        assert det.observe("b", latency=0.500) == []

    def test_spread_floor_absorbs_constant_baselines(self):
        # A perfectly constant baseline has zero spread; the relative
        # floor keeps tiny wobbles from scoring as infinite z.
        det = self.detector()
        for _ in range(10):
            det.observe("q", latency=0.0100)
        assert det.observe("q", latency=0.0101) == []

    def test_snapshot_shape(self):
        det = self.detector()
        det.observe("q", latency=0.01)
        snap = det.snapshot()
        assert snap["observed"] == 1 and "q" in snap["classes"]
        assert "latency" in snap["classes"]["q"]

    def test_class_cap(self):
        det = self.detector(max_classes=3)
        for index in range(10):
            det.observe(f"cls{index}", latency=0.01)
        assert len(det.snapshot(top=100)["classes"]) == 3
