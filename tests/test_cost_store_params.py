"""The cost model prices the machine the store describes.

``CostParameters.buffer_pages`` and ``.temp_records_per_page`` default
to "the store's": ``DetailedCostModel`` / ``CardinalityEstimator``
resolve them once, at construction, from ``store.buffer.capacity`` and
``store.default_records_per_page``; an explicit number is a what-if
override and wins.

The decision this was wrong for: under a 6-page pool the closure's Fix
body ``EJ`` must keep ``Composer`` (8 pages) as the *outer* operand.
Told the pool had 256 pages the model believed the extent fits, swapped
the operands on a 0.13 % estimated edge, and LRU flooding turned that
into 1,896 physical reads instead of 601.
"""

import pytest

from repro.core.baselines import (
    cost_controlled_optimizer,
    deductive_optimizer,
    naive_optimizer,
)
from repro.cost import CardinalityEstimator, CostParameters, DetailedCostModel
from repro.engine import DEFAULT_BATCH_SIZE, Engine
from repro.lang import compile_text
from repro.plans.nodes import EJ, EntityLeaf, Fix, RecLeaf
from repro.service import QueryService, ServiceConfig
from repro.workloads import MusicConfig, generate_music_database

CLOSURE = """
view Influencer as
  select [master: x.master, disciple: x, gen: 1] from x in Composer
  union
  select [master: i.master, disciple: x, gen: i.gen + 1]
  from i in Influencer, x in Composer where i.disciple = x.master;
select [name: i.disciple.name, gen: i.gen]
from i in Influencer where i.gen >= 3;
"""

#: The machine the model used to assume whatever the store said.
WRONG_MACHINE = dict(buffer_pages=256, temp_records_per_page=20)


def starved_db():
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
    return db


def fix_body_join(plan) -> EJ:
    fix = next(node for node in plan.walk() if isinstance(node, Fix))
    (join,) = [node for node in fix.walk() if isinstance(node, EJ)]
    return join


def measure(db, plan):
    # The counts pinned below are the macro harness's, taken at the
    # default batch size: under a 6-page LRU pool the batch size moves
    # the eviction order, so it is fixed here rather than read from
    # REPRO_BATCH_SIZE.
    db.store.buffer.clear()
    engine = Engine(db.physical, batch_size=DEFAULT_BATCH_SIZE)
    return engine.execute(plan).metrics


class TestParametersMirrorTheStore:
    @pytest.mark.parametrize("records_per_page", [8, 20])
    @pytest.mark.parametrize("buffer_pages", [2, 6, 32, 256])
    def test_defaults_resolve_from_the_store(
        self, buffer_pages, records_per_page
    ):
        db = generate_music_database(
            MusicConfig(
                lineages=2,
                generations=3,
                records_per_page=records_per_page,
                buffer_pages=buffer_pages,
            )
        )
        model = DetailedCostModel(db.physical)
        assert model.params.buffer_pages == buffer_pages
        assert model.params.temp_records_per_page == records_per_page
        assert model.estimator.params is model.params
        estimator = CardinalityEstimator(db.physical)
        assert estimator.params.temp_records_per_page == records_per_page

        # An explicit what-if value wins; the other still mirrors.
        what_if = DetailedCostModel(
            db.physical, CostParameters(buffer_pages=1)
        )
        assert what_if.params.buffer_pages == 1
        assert what_if.params.temp_records_per_page == records_per_page
        explicit = CostParameters(**WRONG_MACHINE)
        assert DetailedCostModel(db.physical, explicit).params is explicit

    def test_unresolved_parameters_stay_store_relative(self):
        # The caller's object is not written to: the same parameters
        # price two machines.
        params = CostParameters(eval_per_tuple=0.05)
        small = generate_music_database(
            MusicConfig(lineages=2, generations=3, buffer_pages=2)
        )
        large = generate_music_database(
            MusicConfig(lineages=2, generations=3, buffer_pages=32)
        )
        on_small = DetailedCostModel(small.physical, params).params
        on_large = DetailedCostModel(large.physical, params).params
        assert (on_small.buffer_pages, on_large.buffer_pages) == (2, 32)
        assert on_small.eval_per_tuple == 0.05
        assert params.buffer_pages is None


class TestStarvedJoinOrderDecision:
    """ROADMAP 2(b): estimated-vs-measured *difference* between the two
    candidates of one decision, on the macro harness's starved shape."""

    @pytest.fixture(scope="class")
    def db(self):
        return starved_db()

    @pytest.fixture(scope="class")
    def graph(self, db):
        return compile_text(CLOSURE, db.catalog)

    def test_estimate_and_measurement_rank_the_orders_alike(self, db, graph):
        chosen = cost_controlled_optimizer(db.physical).optimize(graph)
        misled = cost_controlled_optimizer(
            db.physical,
            DetailedCostModel(db.physical, CostParameters(**WRONG_MACHINE)),
        ).optimize(graph)

        composer_outer = fix_body_join(chosen.plan)
        delta_outer = fix_body_join(misled.plan)
        assert isinstance(composer_outer.left, EntityLeaf)
        assert composer_outer.left.entity == "Composer"
        assert isinstance(composer_outer.right, RecLeaf)
        # Told the wrong machine, the same search flips the operands —
        # and nothing else.
        assert isinstance(delta_outer.left, RecLeaf)
        assert chosen.plan.substitute(
            composer_outer,
            EJ(
                composer_outer.right,
                composer_outer.left,
                composer_outer.predicate,
                composer_outer.algorithm,
            ),
        ) == misled.plan

        model = DetailedCostModel(db.physical)
        estimated = model.cost(chosen.plan) - model.cost(misled.plan)
        run_a = measure(db, chosen.plan)
        run_b = measure(db, misled.plan)
        measured = run_a.measured_cost() - run_b.measured_cost()
        assert estimated < 0 and measured < 0
        assert run_a.buffer.physical_reads == 601
        assert run_b.buffer.physical_reads == 1896

    def test_cost_controlled_is_no_worse_than_either_fixed_policy(
        self, db, graph
    ):
        chosen = cost_controlled_optimizer(db.physical).optimize(graph)
        measured = measure(db, chosen.plan).measured_cost()
        floor = min(
            measure(
                db, factory(db.physical).optimize(graph).plan
            ).measured_cost()
            for factory in (deductive_optimizer, naive_optimizer)
        )
        assert floor == 2057.0
        assert measured <= floor
        q_error = max(chosen.cost / measured, measured / chosen.cost)
        assert q_error < 2.0


class TestServiceKeepsTheMachine:
    """``recalibrate(apply=True)`` hot-swaps unit weights, not the
    machine: the re-costed model still sees the store's 6-page pool."""

    def cached_join(self, service) -> EJ:
        key = service.cache.key_for(CLOSURE, service.physical)
        return fix_body_join(service.cache.entry(key).plan)

    def test_recalibrate_and_reset_keep_the_stores_capacity(self):
        service = QueryService(
            starved_db(),
            ServiceConfig(recalibrate_min_samples=4, profile_sample_every=1),
        )
        try:
            for _ in range(6):
                service.run_query(CLOSURE)
            assert service.recalibrate(apply=True)["applied"]
            assert service._cost_params is not None
            params = service._model(1).params
            assert params.buffer_pages == 6
            assert params.temp_records_per_page == 8
            wide = service._model(2).params
            assert (wide.shards, wide.buffer_pages) == (2, 6)

            service.run_query(CLOSURE)
            assert self.cached_join(service).left.entity == "Composer"

            assert service.reset_calibration() == {"reset": True}
            service.cache.invalidate_all()
            service.run_query(CLOSURE)
            assert self.cached_join(service).left.entity == "Composer"
            assert service._optimizer().cost_model.params.buffer_pages == 6
        finally:
            service.close()
