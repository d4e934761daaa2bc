"""The hash ``EJ``: what the planner emits, what the engine reads, what
the model charges.

* **Planner.** The optimizer runs every equi-join as a hash join: no
  plan that generatePT builds, or that an II or ``enum`` move reaches,
  holds a ``NESTED_LOOP`` join whose predicate has an equality key
  (:func:`repro.plans.patterns.scan_join_algorithm`).  Every plan
  handed to the cost model is inspected, so an emitted-then-rejected
  alternative counts too.
* **I/O.** On a closure whose working set overflows a 6-page pool, the
  Fix body's hash join reads each page of each operand at most once
  per round — the nested loop re-read its inner per outer tuple — and
  its counters do not depend on the batch size.
* **Model.** The hash join's estimate charges the inner's I/O once,
  where the nested loop charges a re-scan per outer tuple of an inner
  the buffer cannot hold; under sharding it charges that build to
  every worker, as every shard drains it.
"""

import pytest

from repro.core import cost_controlled_optimizer
from repro.core.baselines import exhaustive_optimizer
from repro.core.optimizer import Optimizer, OptimizerConfig
from repro.cost import CostParameters, DetailedCostModel
from repro.dist import ShardCluster
from repro.engine import Engine
from repro.obs import PlanProfiler
from repro.plans import EJ, HASH_JOIN, NESTED_LOOP, EntityLeaf, Fix, Sel
from repro.plans.patterns import equality_join_key, scan_join_algorithm
from repro.querygraph.builder import const, eq, ge, path
from repro.workloads import (
    MusicConfig,
    chain_join_query,
    fig3_query,
    generate_music_database,
    join_push_query,
)
from tests.diff_harness import counting_builds, recursive_queries
from tests.test_obs_explain import _closure_query

QUERIES = {
    "fig3": fig3_query,
    "join_push": join_push_query,
    "closure": _closure_query,
    "join-3 (dense)": lambda: chain_join_query(3, dense=True),
    "join-4 (dense)": lambda: chain_join_query(4, dense=True),
}

OPTIMIZERS = {
    "ii": lambda physical, model: Optimizer(
        physical, model, OptimizerConfig(strategy="ii")
    ),
    "enum": lambda physical, model: Optimizer(
        physical, model, OptimizerConfig(strategy="enum")
    ),
    "exhaustive": lambda physical, model: exhaustive_optimizer(
        physical, model, max_plans=800
    ),
}


@pytest.fixture(scope="module")
def indexed_db():
    db = generate_music_database(
        MusicConfig(lineages=4, generations=6, works_per_composer=2, seed=41)
    )
    db.build_paper_indexes()
    db.physical.refresh_statistics()
    return db


def _keyed(join):
    return any(
        equality_join_key(join.predicate, var, join.left.output_vars())
        is not None
        for var in join.right.output_vars()
    )


class TestPlanner:
    @pytest.mark.parametrize("strategy", sorted(OPTIMIZERS))
    @pytest.mark.parametrize("query_name", sorted(QUERIES))
    def test_no_nested_loop_on_an_equality_key(
        self, indexed_db, monkeypatch, strategy, query_name
    ):
        joins = {}
        original = DetailedCostModel.cost

        def inspecting(self, plan, delta_env=None):
            for node in plan.walk():
                if isinstance(node, EJ):
                    joins[node] = node.algorithm
            return original(self, plan, delta_env)

        monkeypatch.setattr(DetailedCostModel, "cost", inspecting)
        model = DetailedCostModel(indexed_db.physical)
        result = OPTIMIZERS[strategy](indexed_db.physical, model).optimize(
            QUERIES[query_name]()
        )
        chosen = [node for node in result.plan.walk() if isinstance(node, EJ)]
        assert set(chosen) <= set(joins)
        assert joins, "no join was costed"
        for join, algorithm in joins.items():
            if algorithm == NESTED_LOOP:
                assert not _keyed(join), join.label()
            elif algorithm == HASH_JOIN:
                assert _keyed(join), join.label()
        assert HASH_JOIN in joins.values()

    def test_non_equality_stays_a_nested_loop(self):
        left, right = EntityLeaf("Composer", "a"), EntityLeaf("Composer", "b")
        theta = ge(path("a", "birthyear"), path("b", "birthyear"))
        assert scan_join_algorithm(theta, right, {"a"}) == NESTED_LOOP
        equi = eq(path("b", "master"), path("a", "master"))
        assert scan_join_algorithm(equi, right, left.output_vars()) == HASH_JOIN
        # An equality over the outer only is a filter, not a key.
        filtered = eq(path("a", "name"), const("Bach"))
        assert scan_join_algorithm(filtered, right, {"a"}) == NESTED_LOOP

    def test_randomized_recursive_queries(self, indexed_db):
        """The generator the differential harness draws from: every
        served plan's keyed joins are hash joins."""
        from hypothesis import given, settings

        @settings(max_examples=20, deadline=None, derandomize=True)
        @given(graph=recursive_queries())
        def check(graph):
            plan = cost_controlled_optimizer(indexed_db.physical).optimize(
                graph
            ).plan
            for join in plan.walk():
                if isinstance(join, EJ) and join.algorithm != "index_join":
                    assert (join.algorithm == HASH_JOIN) == _keyed(join)

        check()


def starved_db():
    """The starved closure's database: 64 composers on 8-record pages
    behind a 6-page pool, so neither operand of the Fix body's join
    stays resident across a round."""
    db = generate_music_database(
        MusicConfig(
            lineages=8,
            generations=8,
            works_per_composer=2,
            records_per_page=8,
            buffer_pages=6,
            seed=0,
        )
    )
    db.build_paper_indexes()
    db.physical.refresh_statistics()
    return db


def _profiled(db, plan, batch_size):
    db.store.buffer.clear()
    profiler = PlanProfiler()
    engine = Engine(db.physical, batch_size=batch_size)
    result = engine.execute(plan, profiler=profiler)
    (join,) = [node for node in plan.walk() if isinstance(node, EJ)]
    ids = engine._node_ids
    profiles = {}
    for role, node in (
        ("join", join), ("outer", join.left), ("inner", join.right)
    ):
        profile = profiler.profiles[ids[id(node)]].to_dict()
        del profile["wall_ms"]
        profiles[role] = profile
    metrics = result.metrics
    return join, profiles, (
        metrics.fix_iterations,
        metrics.predicate_evals,
        metrics.buffer.logical_reads,
        metrics.buffer.physical_reads,
        result.answer_set(),
    )


class TestStarvedIO:
    def test_each_operand_is_read_once_per_round(self):
        db = starved_db()
        assert db.store.buffer.capacity == 6
        plan = cost_controlled_optimizer(db.physical).optimize(
            _closure_query()
        ).plan
        runs = {size: _profiled(db, plan, size) for size in (1, 256)}
        assert runs[1][1:] == runs[256][1:]
        join, profiles, (rounds, _evals, _logical, _physical, _rows) = runs[1]
        assert join.algorithm == HASH_JOIN
        outer, inner = profiles["outer"], profiles["inner"]
        extent = inner["label"]
        size = db.physical.statistics.instances(extent)
        pages = db.store.extent(extent).page_count()
        # One drain of the inner extent per round ...
        assert inner["tuples_out"] == rounds * size
        assert inner["page_reads"] <= rounds * pages
        # ... one scan of each round's delta ...
        assert outer["label"].startswith("Δ")
        assert outer["tuples_out"] <= rounds * size
        # ... and nothing read but the two operands.
        assert profiles["join"]["page_reads"] == (
            outer["page_reads"] + inner["page_reads"]
        )


class TestModel:
    def test_hash_join_charges_the_inner_once(self, indexed_db):
        params = CostParameters(buffer_pages=1)
        model = DetailedCostModel(indexed_db.physical, params)
        outer = Sel(
            EntityLeaf("Composer", "a"), ge(path("a", "birthyear"), const(0))
        )
        inner = EntityLeaf("Composer", "b")
        predicate = eq(path("b", "master"), path("a", "master"))
        outer_tuples = model.estimator.estimate(outer, {}).tuples
        assert outer_tuples > 1
        assert model.estimator.estimate(inner, {}).pages > params.buffer_pages
        outer_io = model.report(outer).io
        inner_io = model.report(inner).io
        hashed = model.report(EJ(outer, inner, predicate, HASH_JOIN))
        nested = model.report(EJ(outer, inner, predicate, NESTED_LOOP))
        assert hashed.io == pytest.approx(outer_io + inner_io)
        assert nested.io == pytest.approx(outer_io + inner_io * outer_tuples)
        assert hashed.total < nested.total

    def test_sharded_estimate_charges_each_worker_the_build(self, indexed_db):
        """Each shard whose slice of a round reaches the closure's hash
        join drains its inner itself, so at shards=2 the model's
        per-worker disk estimate must cover a whole build per round:
        it matches the busiest shard's measured reads (dividing the
        build across the workers read 11.1 against 17 here)."""
        model = DetailedCostModel(
            indexed_db.physical, CostParameters(shards=2)
        )
        plan = Optimizer(
            indexed_db.physical, model, OptimizerConfig(strategy="ii")
        ).optimize(_closure_query()).plan
        model.cost(plan)
        (fix,) = [node for node in plan.walk() if isinstance(node, Fix)]
        estimate = model.fix_breakdowns[id(fix)]["disk_base"]
        (join,) = [node for node in plan.walk() if isinstance(node, EJ)]
        assert join.algorithm == HASH_JOIN
        inner_pages = indexed_db.store.extent(join.right.label()).page_count()
        with ShardCluster(indexed_db.physical, 2) as cluster:
            with counting_builds() as builds:
                result = Engine(
                    indexed_db.physical, shards=2, cluster=cluster
                ).execute(plan)
        busiest = max(result.metrics.reads_by_shard.values())
        # Both shards build in every recursive round.
        rounds = result.metrics.fix_iterations
        assert sum(builds.values()) == 2 * rounds
        assert estimate >= rounds * inner_pages
        assert busiest / 1.25 <= estimate <= busiest * 1.25
