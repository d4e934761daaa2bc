"""EXPLAIN ANALYZE: the per-operator runtime profiler and the
estimate-vs-actual plan annotation."""

import json

import pytest

from repro.core.baselines import cost_controlled_optimizer
from repro.cost import DetailedCostModel
from repro.engine import Engine
from repro.errors import CostModelError
from repro.obs import PlanProfiler, build_explain, render_explain
from repro.obs.profile import assign_node_ids
from repro.plans import Fix, Sel
from repro.workloads import fig3_query


@pytest.fixture()
def optimized(larger_db):
    optimizer = cost_controlled_optimizer(larger_db.physical)
    result = optimizer.optimize(fig3_query())
    return larger_db, optimizer, result


@pytest.fixture()
def analyzed(optimized):
    db, optimizer, result = optimized
    profiler = PlanProfiler()
    execution = Engine(db.physical).execute(result.plan, profiler=profiler)
    tree = build_explain(result.plan, optimizer.cost_model, profiler)
    return db, result, execution, profiler, tree


class TestNodeIds:
    def test_preorder_and_stable(self, optimized):
        _db, _optimizer, result = optimized
        ids = assign_node_ids(result.plan)
        assert ids[id(result.plan)] == "n0"
        walked = list(result.plan.walk())
        # Pre-order positions; shared subtrees keep their first id.
        for index, node in enumerate(walked):
            assert ids[id(node)] in {f"n{i}" for i in range(index + 1)}
        assert assign_node_ids(result.plan) == ids


class TestProfiler:
    def test_per_node_tuples_match_rollup(self, analyzed):
        _db, _result, execution, _profiler, _tree = analyzed
        metrics = execution.metrics
        assert metrics.tuples_by_node
        assert sum(metrics.tuples_by_node.values()) == sum(
            metrics.tuples_by_operator.values()
        )

    def test_root_counts_every_output_row(self, analyzed):
        _db, result, execution, profiler, _tree = analyzed
        root_id = assign_node_ids(result.plan)[id(result.plan)]
        assert profiler.profiles[root_id].tuples_out == len(execution.rows)

    def test_fix_iterations_recorded(self, analyzed):
        _db, result, execution, profiler, _tree = analyzed
        fix_nodes = [n for n in result.plan.walk() if isinstance(n, Fix)]
        assert fix_nodes
        profile = profiler.profile_for(fix_nodes[0])
        iterations = profile.fix_iterations
        # Base round (0) plus one entry per semi-naive round.
        assert iterations[0].iteration == 0
        assert len(iterations) == execution.metrics.fix_iterations + 1
        assert all(it.seconds >= 0 for it in iterations)
        assert iterations[0].new_tuples > 0
        assert iterations[-1].new_tuples == 0  # the empty closing round

    def test_inclusive_times_nest(self, analyzed):
        _db, _result, _execution, profiler, _tree = analyzed
        for node_id, children in profiler.children.items():
            assert profiler.exclusive_seconds(node_id) >= 0
            for child_id in children:
                assert child_id in profiler.profiles

    def test_no_profiler_means_no_wrapping(self, optimized):
        db, _optimizer, result = optimized
        engine = Engine(db.physical)
        execution = engine.execute(result.plan)
        assert engine.profiler is None
        assert execution.rows  # unprofiled path still works
        # Node-level counters are still kept (cheap dict updates)...
        assert execution.metrics.tuples_by_node

    def test_profiled_run_returns_same_answers(self, optimized):
        db, _optimizer, result = optimized
        plain = Engine(db.physical).execute(result.plan)
        profiled = Engine(db.physical).execute(
            result.plan, profiler=PlanProfiler()
        )
        assert plain.answer_set() == profiled.answer_set()


class TestExplain:
    def test_every_node_has_estimates_and_actuals(self, analyzed):
        _db, _result, _execution, _profiler, tree = analyzed
        assert tree.analyzed

        def walk(node):
            yield node
            for child in node.children:
                yield from walk(child)

        nodes = list(walk(tree.root))
        assert all(n.actual_rows is not None for n in nodes)
        assert all(n.actual_seconds is not None for n in nodes)
        # The interesting operators carry a cost estimate (leaves under
        # index-assisted access may only have a row estimate).
        assert tree.root.est_cost is not None and tree.root.est_cost > 0
        assert tree.root.actual_cost is not None

    def test_fix_node_lists_per_iteration_actuals(self, analyzed):
        """Acceptance: per-iteration actuals are visible on Fix."""
        _db, result, _execution, _profiler, tree = analyzed
        fix = [n for n in result.plan.walk() if isinstance(n, Fix)][0]
        explain = tree.node_for(fix)
        assert explain.fix_iterations
        assert explain.fix_iterations[0]["iteration"] == 0
        rendered = render_explain(tree)
        assert "[base: +" in rendered
        assert "[iter 1: +" in rendered

    def test_render_shows_est_and_act(self, analyzed):
        _db, _result, execution, _profiler, tree = analyzed
        rendered = render_explain(tree)
        assert "est rows=" in rendered and "act rows=" in rendered
        first_line = rendered.splitlines()[0]
        assert f"act rows={len(execution.rows)}" in first_line

    def test_explain_without_profiler_is_estimate_only(self, optimized):
        _db, optimizer, result = optimized
        tree = build_explain(result.plan, optimizer.cost_model)
        assert not tree.analyzed
        rendered = render_explain(tree)
        assert "est rows=" in rendered and "act rows=" not in rendered

    def test_json_export(self, analyzed):
        _db, _result, execution, _profiler, tree = analyzed
        payload = json.loads(json.dumps(tree.to_dict()))
        assert payload["analyzed"] is True
        assert payload["plan"]["actual_rows"] == len(execution.rows)
        assert payload["estimated_cost"] > 0

    def test_chrome_export(self, analyzed):
        _db, _result, _execution, _profiler, tree = analyzed
        chrome = json.loads(json.dumps(tree.to_chrome_trace()))
        events = chrome["traceEvents"]
        assert events and all(e["ph"] == "X" for e in events)
        # Durations are the measured inclusive times.
        assert events[0]["dur"] >= max(e["dur"] for e in events[1:])

    def test_estimates_accumulate_over_fix_iterations(self, analyzed):
        """The model costs recursive parts once per predicted
        iteration; the captured per-node estimate must reflect that
        accumulation (visits > 1), mirroring how actuals accumulate."""
        _db, result, _execution, _profiler, tree = analyzed
        fix = [n for n in result.plan.walk() if isinstance(n, Fix)][0]
        recursive_sels = [
            n
            for n in fix.body.walk()
            if isinstance(n, Sel) and tree.node_for(n) is not None
        ]
        assert any(
            tree.node_for(n).est_visits > 1 for n in recursive_sels
        ), "no recursive-part node was costed across iterations"


class TestEstimateFallback:
    """A node the annotated report did not capture falls back to a bare
    estimate; only the cost model's own error is absorbed there."""

    def _explain_with(self, optimized, monkeypatch, error):
        _db, optimizer, result = optimized
        model = optimizer.cost_model
        # The report is computed before the injection, so the error can
        # only come from the per-node fallback estimate.
        report = model.annotated_report(result.plan)
        monkeypatch.setattr(model, "annotated_report", lambda _plan: report)

        def estimate(_node):
            raise error

        monkeypatch.setattr(model.estimator, "estimate", estimate)
        return result, build_explain(result.plan, model)

    def test_cost_model_error_leaves_rows_unestimated(
        self, optimized, monkeypatch
    ):
        result, tree = self._explain_with(
            optimized, monkeypatch, CostModelError("injected")
        )
        uncaptured = [
            node
            for node in result.plan.walk()
            if tree.node_for(node).est_cost is None
        ]
        assert uncaptured
        assert all(tree.node_for(node).est_rows is None for node in uncaptured)

    def test_unexpected_error_propagates(self, optimized, monkeypatch):
        with pytest.raises(AttributeError, match="injected"):
            self._explain_with(
                optimized, monkeypatch, AttributeError("injected")
            )
