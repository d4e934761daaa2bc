"""The span tracer: nesting, events, exports, and the optimizer's
search trace (one span per phase, one event per candidate, the
explicit push-vs-no-push cost comparison)."""

import json

import pytest

from benchmarks.iterative_improvement import IterativeImprovement
from repro.core.baselines import cost_controlled_optimizer
from repro.core.enumerate import MemoizedEnumeration
from repro.obs import NULL_TRACER, Tracer
from repro.workloads import fig3_query, join_push_query


class TestTracer:
    def test_span_nesting_and_timing(self):
        tracer = Tracer()
        with tracer.span("outer", query="Q") as outer:
            with tracer.span("inner") as inner:
                pass
        assert outer.parent is None
        assert inner.parent == outer.index
        assert outer.end is not None and outer.duration >= inner.duration
        assert outer.attributes == {"query": "Q"}

    def test_events_attach_to_open_span(self):
        tracer = Tracer()
        tracer.event("orphan", n=0)
        with tracer.span("work"):
            tracer.event("step", n=1)
            tracer.event("step", n=2)
        assert [e.attributes["n"] for e in tracer.find("work")[0].events] == [1, 2]
        assert len(tracer.orphan_events) == 1
        assert len(tracer.events_named("step")) == 2

    def test_exception_closes_span_and_records_error(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        span = tracer.find("doomed")[0]
        assert span.end is not None
        assert "ValueError" in span.attributes["error"]
        assert tracer._stack == []  # stack unwound despite the raise

    def test_set_updates_attributes(self):
        tracer = Tracer()
        with tracer.span("s") as span:
            span.set(result=7)
        assert tracer.spans[0].attributes["result"] == 7

    def test_to_dict_is_json_serializable(self):
        tracer = Tracer()
        with tracer.span("a", k="v"):
            tracer.event("e", n=1)
        payload = json.loads(json.dumps(tracer.to_dict()))
        assert payload["spans"][0]["name"] == "a"
        assert payload["spans"][0]["events"][0]["attributes"] == {"n": 1}

    def test_chrome_trace_format(self):
        tracer = Tracer()
        with tracer.span("phase"):
            tracer.event("point", plan="IJ(...)")
        chrome = tracer.to_chrome_trace()
        kinds = {e["ph"] for e in chrome["traceEvents"]}
        assert kinds == {"X", "i"}
        complete = [e for e in chrome["traceEvents"] if e["ph"] == "X"][0]
        assert complete["ts"] >= 0 and complete["dur"] >= 0
        json.dumps(chrome)  # loadable by chrome://tracing => valid JSON

    def test_null_tracer_is_inert(self):
        with NULL_TRACER.span("anything", k=1) as span:
            span.set(more=2)
            NULL_TRACER.event("ignored")
        assert NULL_TRACER.enabled is False


class TestOptimizerTrace:
    @pytest.fixture(scope="class")
    def traced(self, larger_db_session):
        tracer = Tracer()
        optimizer = cost_controlled_optimizer(larger_db_session.physical)
        result = optimizer.optimize(fig3_query(), tracer=tracer)
        return tracer, result

    @pytest.fixture(scope="class")
    def larger_db_session(self):
        from repro.workloads import MusicConfig, generate_music_database

        db = generate_music_database(
            MusicConfig(
                lineages=6,
                generations=8,
                works_per_composer=3,
                instruments=16,
                selective_fraction=0.2,
                seed=1992,
            )
        )
        db.build_paper_indexes()
        return db

    def test_all_four_phases_have_spans(self, traced):
        tracer, _result = traced
        assert tracer.find("rewrite")
        assert tracer.find("generatePT")
        assert tracer.find("transformPT")
        assert tracer.events_named("translate.arc")

    def test_one_event_per_costed_candidate(self, traced):
        tracer, result = traced
        candidates = tracer.events_named("transformPT.candidate")
        assert len(candidates) == len(result.candidates) == 2
        assert [
            (event.attributes["description"], event.attributes["cost"])
            for event in candidates
        ] == result.candidates
        assert [d for d, _c in result.candidates] == ["enumerated", "original"]
        moves = tracer.events_named("strategy.candidate")
        # One event per costed move: the start plan is costed without one.
        assert len(moves) == result.strategy_stats["candidates_costed"] - 1
        for event in moves:
            assert event.attributes["strategy"] == "enum"
            assert "cost_before" in event.attributes
            assert "cost_after" in event.attributes
            assert isinstance(event.attributes["accepted"], bool)

    def test_push_comparison_event_records_both_costs(self, traced):
        """Acceptance: the transformPT trace contains an explicit
        push-vs-no-push comparison with both costs recorded."""
        tracer, result = traced
        comparisons = tracer.events_named("transformPT.push_comparison")
        assert len(comparisons) >= 1
        attrs = comparisons[0].attributes
        assert attrs["no_push_cost"] > 0
        assert attrs["push_cost"] > 0
        assert isinstance(attrs["chose_push"], bool)
        # The comparison's winner matches the optimizer's verdict.
        chosen_cost = min(attrs["no_push_cost"], attrs["push_cost"])
        assert result.cost == pytest.approx(chosen_cost)

    def test_optimize_without_tracer_behaves_identically(self, larger_db_session):
        physical = larger_db_session.physical
        plain = cost_controlled_optimizer(physical).optimize(join_push_query())
        traced = cost_controlled_optimizer(physical).optimize(
            join_push_query(), tracer=Tracer()
        )
        assert plain.plan == traced.plan
        assert plain.cost == pytest.approx(traced.cost)

    def test_tracer_reset_after_optimize(self, larger_db_session):
        from repro.obs.trace import NULL_TRACER as null

        optimizer = cost_controlled_optimizer(larger_db_session.physical)
        optimizer.optimize(fig3_query(), tracer=Tracer())
        assert optimizer._tracer is null


class TestStrategyTraceEvents:
    """Every search accepts tracer= and reports its moves: the
    optimizer's enumerator, its unpruned [KZ88] closure, and the II
    the benchmarks run against them."""

    @pytest.fixture()
    def searchable(self, larger_db):
        from repro.core.transform import transform_candidates
        from repro.cost import DetailedCostModel
        from repro.lang import compile_text
        from repro.core.baselines import cost_controlled_optimizer

        result = cost_controlled_optimizer(larger_db.physical).optimize(
            fig3_query()
        )
        model = DetailedCostModel(larger_db.physical)
        return result.plan, (lambda p: model.cost(p)), larger_db.physical

    @pytest.mark.parametrize(
        "strategy",
        [
            IterativeImprovement(restarts=1, max_moves=4),
            MemoizedEnumeration(),
            MemoizedEnumeration(prune_factor=None, max_plans=50),
        ],
        ids=["II", "enum", "exhaustive"],
    )
    def test_strategy_accepts_tracer(self, searchable, strategy):
        plan, cost_fn, physical = searchable
        tracer = Tracer()
        with tracer.span("search"):
            traced = strategy.search(plan, cost_fn, physical, tracer=tracer)
        untraced = strategy.search(plan, cost_fn, physical)
        assert traced.cost == pytest.approx(untraced.cost)
        assert traced.plans_costed == untraced.plans_costed
        events = tracer.events_named("strategy.candidate")
        # One event per costed move (the initial costing is not a move).
        assert len(events) == traced.plans_costed - 1
