"""Optimality oracle for the memoized enumerator.

Property-based: hypothesis generates small query graphs (flat and
recursive, over the standard differential-harness databases), the
optimizer produces a seed plan, and the memoized branch-and-bound
enumerator must find exactly the minimal cost that the brute-force
closure (:func:`repro.core.baselines.brute_force_enumerate` — no memo,
no pruning, structural dedup only) finds over the same move graph.
Every closure also re-proves the invariant the enumerator's term-keyed
memo rests on: no two structurally distinct plans of a closure share a
canonical fingerprint (push orders never yield alpha-variants).
``derandomize=True`` keeps the generated plan spaces fixed, so CI
checks the same ≥200 spaces every run.

Set ``REPRO_ENUM_STATS`` to a path to append one JSON line of memo
statistics per enumerated plan space (CI uploads this as an artifact).
"""

import json
import os

import pytest
from hypothesis import HealthCheck, assume, given, settings

from tests.diff_harness import (
    build_music_db,
    build_parts_db,
    flat_queries,
    parts_queries,
    recursive_queries,
)
from tests.test_core_transform import make_fix, selection_pipeline

from repro.core.baselines import brute_force_enumerate
from repro.core.enumerate import MemoizedEnumeration
from repro.core.optimizer import Optimizer, OptimizerConfig
from repro.cost import CostParameters, DetailedCostModel
from repro.errors import OptimizationError
from repro.plans.canonical import canonical_fingerprint

# 100 examples per @given function x 2 query families = 200 plan
# spaces checked (REPRO_ENUM_EXAMPLES scales this up in CI).
EXAMPLES = int(os.environ.get("REPRO_ENUM_EXAMPLES", "100"))

ORACLE_SETTINGS = dict(
    max_examples=EXAMPLES,
    deadline=None,
    derandomize=True,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)

#: Feasibility bound for the brute-force closure; spaces beyond it are
#: skipped (the oracle must never silently truncate).
ORACLE_MAX_PLANS = 4_000

_STATS_PATH = os.environ.get("REPRO_ENUM_STATS")


@pytest.fixture(scope="module")
def music_db():
    return build_music_db()


@pytest.fixture(scope="module")
def parts_db():
    return build_parts_db()


def _seed_plan(db, graph):
    """The generatePT output (before transformPT reoptimization) — the
    root of the transformation space both enumerators explore."""
    optimizer = Optimizer(
        db.physical,
        config=OptimizerConfig(reoptimize=False, validate_plans=False),
    )
    captured = {}
    inner = optimizer._transform_pt

    def capture(plan):
        captured["plan"] = plan
        return inner(plan)

    optimizer._transform_pt = capture
    try:
        optimizer.optimize(graph)
    except OptimizationError:
        # Disconnected join graphs are legitimately rejected.
        return None
    return captured["plan"]


def _record_stats(family, stats, brute_plans):
    if not _STATS_PATH:
        return
    with open(_STATS_PATH, "a") as handle:
        payload = dict(stats.to_dict(), family=family, brute_plans=brute_plans)
        handle.write(json.dumps(payload, sort_keys=True) + "\n")


def _assert_enum_matches_oracle(db, graph, family, model=None):
    plan = _seed_plan(db, graph)
    if plan is None:
        assume(False)
    model = model or DetailedCostModel(db.physical)
    closure = []

    def cost_fn(candidate):
        closure.append(candidate)
        return model.cost(candidate)

    try:
        _best, oracle_cost, brute_plans = brute_force_enumerate(
            plan, cost_fn, db.physical, max_plans=ORACLE_MAX_PLANS
        )
    except RuntimeError:
        assume(False)  # space too large for the oracle; not a failure
    assert len(set(closure)) == len(closure) == brute_plans
    canonical = {canonical_fingerprint(candidate) for candidate in closure}
    assert len(canonical) == brute_plans, (
        f"{brute_plans - len(canonical)} alpha-variant pairs in a closure "
        f"of {brute_plans} plans: a term-keyed memo would cost them twice"
    )
    strategy = MemoizedEnumeration()  # shipped defaults, pruning on
    result = strategy.search(plan, model.cost, db.physical)
    stats = strategy.last_stats
    _record_stats(family, stats, brute_plans)
    assert result.cost == pytest.approx(oracle_cost), (
        f"enum found {result.cost}, brute force found {oracle_cost} "
        f"over {brute_plans} plans (memo stats: {stats})"
    )
    assert stats.subplans_memoized <= brute_plans
    assert stats.candidates_costed <= brute_plans


@settings(**ORACLE_SETTINGS)
@given(graph=flat_queries())
def test_enum_matches_oracle_flat(music_db, graph):
    _assert_enum_matches_oracle(music_db, graph, "flat")


@settings(**ORACLE_SETTINGS)
@given(graph=recursive_queries())
def test_enum_matches_oracle_recursive(music_db, graph):
    _assert_enum_matches_oracle(music_db, graph, "recursive")


@settings(**ORACLE_SETTINGS)
@given(graph=parts_queries())
def test_enum_matches_oracle_parts(parts_db, graph):
    _assert_enum_matches_oracle(parts_db, graph, "parts")


@settings(**ORACLE_SETTINGS)
@given(graph=recursive_queries())
def test_enum_matches_oracle_distributed_costs(music_db, graph):
    """The oracle agreement holds under the distributed Fix cost
    variant too — the enumerator optimizes whatever cost function it
    is handed."""
    params = CostParameters()
    params.shards = 4
    model = DetailedCostModel(music_db.physical, params)
    _assert_enum_matches_oracle(music_db, graph, "distributed", model)


def test_memo_hits_on_shared_subplans(music_db):
    """On the paper's Figure 3/4 pipeline the move DAG has commuting
    moves, so the same plan is reached along multiple orders: the memo
    table must actually engage."""
    plan = selection_pipeline(make_fix())
    model = DetailedCostModel(music_db.physical)
    strategy = MemoizedEnumeration()
    strategy.search(plan, model.cost, music_db.physical)
    stats = strategy.last_stats
    assert stats.memo_hits > 0
    assert stats.subplans_memoized > 1
    assert stats.candidates_costed == stats.subplans_memoized


def test_pruning_never_loses_the_optimum(music_db):
    """Aggressive pruning (factor 1.0: expand nothing costlier than the
    incumbent) may cost fewer plans but must still agree with the
    unpruned enumeration on this pipeline."""
    plan = selection_pipeline(make_fix())
    model = DetailedCostModel(music_db.physical)
    unpruned = MemoizedEnumeration(prune_factor=None)
    reference = unpruned.search(plan, model.cost, music_db.physical)
    pruned = MemoizedEnumeration(prune_factor=1.0)
    result = pruned.search(plan, model.cost, music_db.physical)
    assert result.cost == pytest.approx(reference.cost)
    assert (
        pruned.last_stats.candidates_costed
        <= unpruned.last_stats.candidates_costed
    )


def test_prune_factor_validation():
    with pytest.raises(ValueError):
        MemoizedEnumeration(prune_factor=0.5)
