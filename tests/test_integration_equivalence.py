"""Integration + property tests: every optimizer policy, on randomized
database configurations, produces plans that compute exactly the
reference answers — the semantic backbone of the reproduction."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    cost_controlled_optimizer,
    deductive_optimizer,
    naive_optimizer,
)
from repro.engine import Engine, ReferenceEvaluator
from repro.workloads import (
    MusicConfig,
    fig2_query,
    fig3_query,
    generate_music_database,
    join_push_query,
)

configs = st.builds(
    MusicConfig,
    lineages=st.integers(min_value=1, max_value=4),
    generations=st.integers(min_value=2, max_value=7),
    works_per_composer=st.integers(min_value=1, max_value=3),
    instruments=st.integers(min_value=3, max_value=10),
    instruments_per_work=st.integers(min_value=1, max_value=3),
    selective_fraction=st.floats(min_value=0.0, max_value=1.0),
    records_per_page=st.sampled_from([4, 10, 20]),
    buffer_pages=st.sampled_from([2, 32, 256]),
    seed=st.integers(min_value=0, max_value=10_000),
)


def build(config):
    db = generate_music_database(config)
    db.build_paper_indexes()
    return db


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(configs)
def test_property_fig3_equivalence_across_policies(config):
    db = build(config)
    graph = fig3_query(min_generations=min(3, config.generations))
    want = ReferenceEvaluator(db.physical).answer_set(graph)
    for factory in (cost_controlled_optimizer, deductive_optimizer, naive_optimizer):
        result = factory(db.physical).optimize(graph)
        got = Engine(db.physical).execute(result.plan).answer_set()
        assert got == want, f"{factory.__name__} diverged on {config}"


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(configs)
def test_property_join_push_equivalence(config):
    db = build(config)
    graph = join_push_query()
    want = ReferenceEvaluator(db.physical).answer_set(graph)
    result = cost_controlled_optimizer(db.physical).optimize(graph)
    got = Engine(db.physical).execute(result.plan).answer_set()
    assert got == want


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(configs, st.sampled_from(["harpsichord", "flute", "no_such"]))
def test_property_fig2_equivalence(config, instrument):
    db = build(config)
    graph = fig2_query(instrument1=instrument)
    want = ReferenceEvaluator(db.physical).answer_set(graph)
    result = cost_controlled_optimizer(db.physical).optimize(graph)
    got = Engine(db.physical).execute(result.plan).answer_set()
    assert got == want


class TestMeasuredVsEstimated:
    """The cost model need not match measured cost absolutely, but it
    must rank plans usefully: on the paper's Figure 4 decision, model
    choice and measured choice agree."""

    def test_model_choice_agrees_with_measurement(self, larger_db):
        from repro.core import Optimizer, OptimizerConfig
        from repro.core.transform import transform_candidates
        from repro.cost import DetailedCostModel

        model = DetailedCostModel(larger_db.physical)
        base = Optimizer(
            larger_db.physical,
            model,
            OptimizerConfig(push_policy="never"),
        ).optimize(fig3_query())
        candidates = transform_candidates(base.plan)
        assert len(candidates) >= 2
        engine = Engine(larger_db.physical)
        measured = []
        estimated = []
        for _description, plan in candidates:
            result = engine.execute(plan)
            measured.append(result.metrics.measured_cost())
            estimated.append(model.cost(plan))
        model_winner = estimated.index(min(estimated))
        measured_winner = measured.index(min(measured))
        assert model_winner == measured_winner
