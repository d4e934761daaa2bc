"""II and its per-candidate runner, the randomized search the
CLAIM-STRATEGY and CLAIM-ENUM benchmarks pit against the optimizer's
memoized enumerator."""

import pytest

from benchmarks.iterative_improvement import IterativeImprovement, PerCandidate
from repro.core import naive_optimizer
from repro.core.transform import transform_candidates
from repro.cost import DetailedCostModel
from repro.plans import IJ, EntityLeaf, Proj, Sel, validate_plan
from repro.querygraph.builder import const, eq, out, path
from repro.workloads import MusicConfig, fig3_query, generate_music_database


@pytest.fixture(scope="module")
def indexed_db():
    db = generate_music_database(
        MusicConfig(lineages=3, generations=7, works_per_composer=3, seed=7)
    )
    db.build_paper_indexes()
    return db


@pytest.fixture()
def cost_fn(indexed_db):
    model = DetailedCostModel(indexed_db.physical)
    return lambda plan: model.cost(plan)


def chain_plan():
    """An IJ chain over works.instruments (collapsible via path index)."""
    return Proj(
        Sel(
            IJ(
                IJ(
                    EntityLeaf("Composer", "x"),
                    EntityLeaf("Composition", "w"),
                    path("x", "works"),
                    "w",
                ),
                EntityLeaf("Instrument", "ins"),
                path("w", "instruments"),
                "ins",
            ),
            eq(path("ins", "name"), const("harpsichord")),
        ),
        out(n=path("x", "name")),
    )


def test_iterative_improvement_never_worsens(indexed_db, cost_fn):
    start = chain_plan()
    result = IterativeImprovement(seed=1).search(start, cost_fn, indexed_db.physical)
    assert result.cost <= cost_fn(start)
    assert result.plans_costed >= 1
    validate_plan(result.plan, indexed_db.physical)


def test_iterative_improvement_deterministic_per_seed(indexed_db, cost_fn):
    first = IterativeImprovement(seed=3).search(
        chain_plan(), cost_fn, indexed_db.physical
    )
    second = IterativeImprovement(seed=3).search(
        chain_plan(), cost_fn, indexed_db.physical
    )
    assert first.cost == second.cost
    assert first.plan == second.plan


def test_per_candidate_keeps_the_cheapest_run_and_sums_the_work(
    indexed_db, cost_fn
):
    start = naive_optimizer(indexed_db.physical).optimize(fig3_query()).plan
    runs = [
        IterativeImprovement(seed=1992).search(plan, cost_fn, indexed_db.physical)
        for _description, plan in transform_candidates(start)
    ]
    assert len(runs) >= 2
    result = PerCandidate(IterativeImprovement(seed=1992)).search(
        start, cost_fn, indexed_db.physical
    )
    assert result.cost == min(run.cost for run in runs)
    assert result.plans_costed == sum(run.plans_costed for run in runs)
