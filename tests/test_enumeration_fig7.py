"""Golden fig7 regression for the transformPT search.

Pins, per fig7 configuration (the serial and shards-4 cost variants
of the Figure-3 recursive query and the join-push query on
the fig7 database), the plan the optimizer's enumerator chooses — by
canonical fingerprint — and its estimated cost, against
``tests/golden/enumeration_fig7.json``.
Also asserts the paper's promise for the search: its plan costs no
more than the always-push and never-push baselines' plans, nor than
the optimum of the unpruned closure, on the same configuration.
Search regressions therefore fail loudly instead of showing up as
silent plan-quality drift.

Regenerate the golden file after an intentional optimizer change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/test_enumeration_fig7.py -q
"""

import json
import os

import pytest

from repro.core.baselines import deductive_optimizer, naive_optimizer
from repro.core.enumerate import MemoizedEnumeration
from repro.core.optimizer import Optimizer, OptimizerConfig
from repro.cost import CostParameters, DetailedCostModel
from repro.plans.canonical import canonical_fingerprint
from repro.workloads import (
    MusicConfig,
    fig3_query,
    generate_music_database,
    join_push_query,
)


def build_db():
    """The fig7 database (same recipe as bench_fig7_cost_table)."""
    db = generate_music_database(
        MusicConfig(
            lineages=8,
            generations=8,
            works_per_composer=3,
            selective_fraction=0.15,
            seed=6,
        )
    )
    db.build_paper_indexes()
    return db


GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "enumeration_fig7.json"
)

QUERIES = {
    "fig3": fig3_query,
    "join_push": join_push_query,
}

#: The fig7 cost-model configurations: the serial Fix and the
#: distributed scatter-gather variant (:mod:`repro.cost.distributed`).
CONFIGS = {
    "serial": {},
    "shards4": {"shards": 4},
}

#: The optimizers enum must match or beat: the always-push and
#: never-push baselines, and the unpruned closure (the global optimum
#: over the move graph).
OTHER_OPTIMIZERS = {
    "always": deductive_optimizer,
    "never": naive_optimizer,
    "closure": lambda physical, model: Optimizer(
        physical,
        model,
        OptimizerConfig(strategy=MemoizedEnumeration(prune_factor=None)),
    ),
}


@pytest.fixture(scope="module")
def db():
    return build_db()


def _model(db, overrides):
    params = CostParameters()
    for name, value in overrides.items():
        setattr(params, name, value)
    return DetailedCostModel(db.physical, params)


def _optimize(db, graph, model):
    return Optimizer(db.physical, model).optimize(graph)


def _current_rows(db):
    rows = {}
    for query_name, make_query in sorted(QUERIES.items()):
        for config_name, overrides in sorted(CONFIGS.items()):
            model = _model(db, overrides)
            result = _optimize(db, make_query(), model)
            rows[f"{query_name}/{config_name}"] = {
                "canonical": canonical_fingerprint(result.plan),
                "cost": round(result.cost, 4),
            }
    return rows


def test_enum_plan_and_cost_pinned(db):
    rows = _current_rows(db)
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
        with open(GOLDEN_PATH, "w") as handle:
            json.dump(rows, handle, indent=2, sort_keys=True)
            handle.write("\n")
        pytest.skip("golden file regenerated")
    with open(GOLDEN_PATH) as handle:
        golden = json.load(handle)
    assert rows == golden, (
        "the enumerator's chosen plan or cost drifted from the golden "
        "fig7 table; if the change is intentional, regenerate with "
        "REPRO_REGEN_GOLDEN=1"
    )


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("query_name", sorted(QUERIES))
def test_enum_at_least_as_good_as_randomized(db, query_name, config_name):
    model = _model(db, CONFIGS[config_name])
    enum_result = _optimize(db, QUERIES[query_name](), model)
    for name, make in OTHER_OPTIMIZERS.items():
        other = make(db.physical, model).optimize(QUERIES[query_name]())
        assert enum_result.cost <= other.cost * (1 + 1e-9), (
            f"enum cost {enum_result.cost} worse than {name} "
            f"cost {other.cost} on {query_name}/{config_name}"
        )


def test_enum_memo_engages_on_fig7(db):
    model = _model(db, {})
    result = _optimize(db, fig3_query(), model)
    stats = result.strategy_stats
    assert stats is not None
    assert stats["memo_hits"] > 0
    assert stats["subplans_memoized"] == stats["candidates_costed"]
