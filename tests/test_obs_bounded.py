"""Always-on observability must have a memory and disk ceiling.

Hammer tests: 10k fixpoint rounds against every per-query buffer
(profile iteration ring, tracer span cap, progress round ring), a
size-bounded telemetry JSONL under sustained append load (the file
never exceeds its cap, the newest window survives compaction, and
lines carrying retired fields still load), and the shared structured-log
formatters.
"""

import io
import json
import logging
import os

import pytest

from repro.obs.history import Observation, QueryTelemetryStore
from repro.obs.log import configure_logging, get_logger
from repro.obs.profile import FIX_ITERATION_RING, FixIterationProfile, NodeProfile
from repro.obs.progress import ROUND_RING_SIZE, ProgressTracker, QueryProgress
from repro.obs.trace import Tracer

ROUNDS = 10_000


class TestProfileRing:
    def test_fix_iteration_ring_is_bounded(self):
        profile = NodeProfile(node_id="0", label="Fix(Inf)", kind="Fix")
        for index in range(ROUNDS):
            profile.record_fix_iteration(
                FixIterationProfile(
                    iteration=index, new_tuples=1, seconds=0.0001
                )
            )
        assert len(profile.fix_iterations) == FIX_ITERATION_RING
        assert profile.fix_iterations_dropped == ROUNDS - FIX_ITERATION_RING
        # The ring keeps the newest rounds — the ones that explain a
        # currently-slow query.
        assert profile.fix_iterations[-1].iteration == ROUNDS - 1
        payload = profile.to_dict()
        assert payload["fix_iterations_dropped"] == ROUNDS - FIX_ITERATION_RING
        assert len(payload["fix_iterations"]) == FIX_ITERATION_RING


class TestTracerCap:
    def test_span_cap(self):
        tracer = Tracer(trace_id="t-1", max_spans=64)
        for index in range(ROUNDS):
            with tracer.span("round", index=index):
                pass
        assert len(tracer.spans) == 64
        assert tracer.dropped_spans == ROUNDS - 64
        assert tracer.to_dict()["dropped_spans"] == ROUNDS - 64

    def test_event_cap(self):
        tracer = Tracer(trace_id="t-2", max_spans=64)
        with tracer.span("execute"):
            for index in range(ROUNDS):
                tracer.event("delta", round=index)
        assert tracer.dropped_events == ROUNDS - 64
        kept = sum(len(s.events) for s in tracer.spans)
        assert kept + tracer.dropped_events == ROUNDS


class TestProgressRing:
    def test_round_ring_is_bounded(self):
        progress = QueryProgress("req-1", query="fix hammer")
        for index in range(ROUNDS):
            progress.record_fix_iteration(
                "Influencer", FixIterationProfile(index, 3, 0.0001)
            )
        snap = progress.snapshot()
        assert len(snap["recent_rounds"]) == ROUND_RING_SIZE
        assert snap["recent_rounds"][-1]["round"] == ROUNDS - 1
        # Totals still reflect every round, not just the ring.
        assert snap["rounds"] == ROUNDS
        assert snap["total_delta"] == 3 * ROUNDS

    def test_tracker_recent_is_bounded(self):
        tracker = ProgressTracker()
        for index in range(100):
            tracker.finish(tracker.begin(f"req-{index}"))
        snap = tracker.snapshot()
        assert snap["active"] == []
        assert len(snap["recent"]) == 8


def observation(index: int) -> Observation:
    return Observation(
        at=float(index),
        request_id=f"req-{index}",
        estimated_cost=100.0,
        measured_cost=120.0,
        execute_seconds=0.01,
        rows=5,
        events={"page_reads": 10.0, "predicate_evals": 50.0},
    )


class TestTelemetryRotation:
    MAX_BYTES = 16_384

    def hammer(self, path: str, appends: int = 400) -> QueryTelemetryStore:
        store = QueryTelemetryStore(
            persist_path=path, max_bytes=self.MAX_BYTES
        )
        for index in range(appends):
            fingerprint = f"fp{index:04d}"
            store.register_plan(
                canonical=f"q{index % 5}",
                fingerprint=fingerprint,
                plan_cost=100.0,
            )
            store.record(fingerprint, observation(index))
            # The cap holds after *every* append, not only at the end.
            assert os.path.getsize(path) <= self.MAX_BYTES
        return store

    def test_file_never_exceeds_cap(self, tmp_path):
        path = str(tmp_path / "telemetry.jsonl")
        store = self.hammer(path)
        assert store.compactions > 0
        store.close()

    def test_newest_window_survives_reload(self, tmp_path):
        path = str(tmp_path / "telemetry.jsonl")
        store = self.hammer(path)
        live = list(store._plans)
        assert live, "compaction dropped everything"
        store.close()

        reloaded = QueryTelemetryStore(
            persist_path=path, max_bytes=self.MAX_BYTES
        )
        # Every plan the compacted file kept reloads, newest included.
        assert live[-1] in reloaded._plans
        newest = reloaded._plans[live[-1]]
        assert newest.observations, "newest plan lost its observations"
        reloaded.close()

    def test_retired_sampling_fields_are_ignored(self, tmp_path):
        """A line written when observations carried a head-sampling
        ``weight`` and ``committed`` flag loads, and both are dropped:
        every observation with event counts is one unweighted
        calibration sample."""
        path = str(tmp_path / "telemetry.jsonl")
        store = QueryTelemetryStore(persist_path=path)
        store.register_plan(canonical="q", fingerprint="fp", plan_cost=1.0)
        store.close()
        with open(path, "a", encoding="utf-8") as handle:
            for index in (1, 2):
                line = {
                    "kind": "obs",
                    "fingerprint": "fp",
                    **observation(index).to_dict(),
                    "weight": 8.0,
                    "committed": False,
                }
                handle.write(json.dumps(line) + "\n")

        reloaded = QueryTelemetryStore(persist_path=path)
        loaded = reloaded._plans["fp"].observations
        assert [obs.request_id for obs in loaded] == ["req-1", "req-2"]
        assert "weight" not in loaded[0].to_dict()
        samples = reloaded.calibration_samples()
        assert len(samples) == 2 and all("weight" not in s for s in samples)
        reloaded.close()

    def test_tiny_cap_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            QueryTelemetryStore(
                persist_path=str(tmp_path / "t.jsonl"), max_bytes=16
            )


class TestStructuredLogging:
    @pytest.fixture(autouse=True)
    def restore_logging(self):
        yield
        configure_logging("text")

    def test_json_lines_carry_structured_fields(self):
        stream = io.StringIO()
        configure_logging("json", stream=stream)
        get_logger("service").warning(
            "diagnose bundle recorded",
            extra={"request_id": "req-9", "query_class": "ab12cd34"},
        )
        payload = json.loads(stream.getvalue().strip())
        assert payload["level"] == "warning"
        assert payload["logger"] == "repro.service"
        assert payload["message"] == "diagnose bundle recorded"
        assert payload["request_id"] == "req-9"
        assert payload["query_class"] == "ab12cd34"

    def test_text_lines_append_fields(self):
        stream = io.StringIO()
        configure_logging("text", stream=stream)
        get_logger("dist").error(
            "shard round failed: boom", extra={"shard": 3, "round": 7}
        )
        line = stream.getvalue().strip()
        assert "repro.dist" in line and "shard round failed: boom" in line
        assert "shard=3" in line and "round=7" in line

    def test_configure_is_idempotent(self):
        stream = io.StringIO()
        configure_logging("json", stream=stream)
        configure_logging("json", stream=stream)
        get_logger("engine").info("once")
        lines = [l for l in stream.getvalue().splitlines() if l]
        assert len(lines) == 1

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            configure_logging("xml")
