"""EXPLAIN ANALYZE: the per-operator runtime profiler and the
estimate-vs-actual plan annotation."""

import contextlib
import json

import pytest

from repro.core.baselines import cost_controlled_optimizer
from repro.cost import DetailedCostModel
from repro.engine import Engine
from repro.engine.eval_expr import JoinKernel
from repro.errors import CostModelError
from repro.obs import PlanProfiler, build_explain, plan_diff, render_explain
from repro.obs.profile import assign_node_ids
from repro.physical.buffer import BufferPool
from repro.plans import EJ, INDEX_JOIN, NESTED_LOOP, Fix, Sel
from repro.querygraph.builder import arc, const, ge, out, path, query, rule, spj
from repro.service import QueryService
from repro.workloads import (
    MusicConfig,
    fig3_query,
    generate_music_database,
    join_push_query,
)
from repro.workloads.queries import influencer_rules
from tests.diff_harness import as_nested_loop, kernels_declined


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


class TestJoinMethodLabels:
    """EXPLAIN names the join method: ``EJ[hash: pred]`` and
    ``EJ[index: pred]``, while the paper's nested loop stays
    ``EJ[pred]`` (the form the Figure 4 and 7 tables print)."""

    CLOSURE = (
        "view Influencer as "
        "select [master: x.master, disciple: x, gen: 1] from x in Composer "
        "union "
        "select [master: i.master, disciple: x, gen: i.gen + 1] "
        "from i in Influencer, x in Composer where i.disciple = x.master; "
        "select [name: i.disciple.name, gen: i.gen] "
        "from i in Influencer where i.gen >= 3;"
    )

    def test_starved_closure_explain_analyze_shows_hash(self):
        # The closure on a 6-page buffer, 8 records per page.
        db = generate_music_database(
            MusicConfig(
                lineages=8,
                generations=8,
                works_per_composer=2,
                records_per_page=8,
                buffer_pages=6,
                seed=92,
            )
        )
        db.build_paper_indexes()
        db.physical.refresh_statistics()
        service = QueryService(db)
        response = service.handle(
            {"op": "explain", "text": self.CLOSURE, "analyze": True}
        )
        assert response["ok"], response
        joins = [
            line for line in response["plan"].splitlines() if "EJ[" in line
        ]
        assert joins and all("EJ[hash: i.disciple = x.master]" in j for j in joins)
        assert all("act rows=" in j for j in joins)

    def test_labels_per_method(self, optimized):
        _db, _optimizer, result = optimized
        joins = [n for n in result.plan.walk() if isinstance(n, EJ)]
        assert joins
        for join in joins:
            predicate = repr(join.predicate)
            assert join.label() == f"EJ[hash: {predicate}]"
            for method, label in (
                (NESTED_LOOP, f"EJ[{predicate}]"),
                (INDEX_JOIN, f"EJ[index: {predicate}]"),
            ):
                other = EJ(join.left, join.right, join.predicate, method)
                assert other.label() == label

    def test_plan_diff_sees_a_method_flip(self, optimized):
        _db, _optimizer, result = optimized
        diff = plan_diff(as_nested_loop(result.plan), result.plan)
        assert diff["old_push"] == diff["new_push"]
        assert diff["old_size"] == diff["new_size"]
        assert diff["removed"] and diff["added"]
        assert all("EJ[hash: " in op for op in diff["added"])
        assert not any("hash" in op for op in diff["removed"])


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


def _closure_query():
    """The unselective ``Influencer`` closure: its Fix body's hash
    ``EJ`` probes the ``Composer`` leaf it drains once per round."""
    p1, p2 = influencer_rules()
    answer = rule(
        "Answer",
        spj(
            [arc("Influencer", i=".")],
            where=ge(path("i", "gen"), const(3)),
            select=out(
                name=path("i", "disciple", "name"), gen=path("i", "gen")
            ),
        ),
    )
    return query(p1, p2, answer)


def _profiled_actuals(db, plan, kernels, batch_size, buffer_pages):
    """Per-node ``PlanProfiler`` actuals of one cold-buffer run, less
    wall times, with each node's metered ``next()`` calls."""
    db.store.buffer = BufferPool(buffer_pages)
    profiler = PlanProfiler()
    with contextlib.nullcontext() if kernels else kernels_declined():
        result = Engine(db.physical, batch_size=batch_size).execute(
            plan, profiler=profiler
        )
    nodes = profiler.to_dict()["nodes"]
    for node in nodes:
        del node["wall_ms"]
        for iteration in node.get("fix_iterations", ()):
            del iteration["ms"]
        node["next_calls"] = profiler.profiles[node["node_id"]].next_calls
    return nodes, result.answer_set()


class TestReplayProfileParity:
    """EXPLAIN ANALYZE cannot tell a hash ``EJ`` that probes its
    drained inner through the key index from one that replays every
    pair through the per-pair closure: with column kernels on and
    declined, every node's profiled actuals are identical, metered
    ``next()`` calls included."""

    @pytest.fixture(scope="class")
    def db(self):
        db = generate_music_database(
            MusicConfig(lineages=4, generations=6, works_per_composer=2, seed=92)
        )
        db.build_paper_indexes()
        db.physical.refresh_statistics()
        return db

    @pytest.mark.parametrize("batch_size", [1, 2, 7, 256])
    @pytest.mark.parametrize("buffer_pages", [4, 256])
    @pytest.mark.parametrize("graph", ["closure", "join_push"])
    def test_kernels_on_and_declined_profile_alike(
        self, db, graph, batch_size, buffer_pages, monkeypatch
    ):
        graph = _closure_query() if graph == "closure" else join_push_query()
        pool = db.store.buffer
        try:
            plan = cost_controlled_optimizer(db.physical).optimize(graph).plan
            declined = _profiled_actuals(
                db, plan, False, batch_size, buffer_pages
            )
            probes = []
            matches = JoinKernel.matches

            def counting(self, *args):
                found = matches(self, *args)
                probes.append(found)
                return found

            monkeypatch.setattr(JoinKernel, "matches", counting)
            probed = _profiled_actuals(
                db, plan, True, batch_size, buffer_pages
            )
        finally:
            db.store.buffer = pool
        assert probed == declined
        # Both plans hash-join the Composer leaf (the §4.5 plan also
        # joins selections of it).
        assert any(found is not None for found in probes), (
            "the profiled run never probed a drained inner"
        )
