"""CLAIM-STRATEGY — cost-controlled optimization vs exhaustive search.

Section 4.1: exhaustive enumeration ([KZ88]) guarantees optimality
"but the optimization time may become unacceptably high"; the paper's
strategy reaches comparable plan quality while costing far fewer
plans, because it optimizes *subproblems* (one spj, one path) and only
transforms the final PT.  The cost-controlled side is the paper's own
search, [IC90] Iterative Improvement run once per transformPT candidate
(``iterative_improvement.py``).

For queries of growing join count we compare, per strategy:

* the number of plans costed (the optimizer's work currency),
* wall-clock optimization time (the pytest-benchmark timings),
* the cost of the chosen plan (quality).
"""

import pytest

from benchmarks.iterative_improvement import IterativeImprovement, PerCandidate
from repro.core import Optimizer, OptimizerConfig, exhaustive_optimizer
from repro.cost import DetailedCostModel
from repro.workloads import (
    MusicConfig,
    chain_join_query,
    fig3_query,
    generate_music_database,
)


def build_db():
    db = generate_music_database(
        MusicConfig(lineages=8, generations=8, seed=41)
    )
    db.build_paper_indexes()
    return db


@pytest.fixture(scope="module")
def db():
    return build_db()


def fresh_model(db):
    """A cost model on a new statistics epoch, so a strategy timed with
    it pays its own ``Fix`` pricing instead of reusing what the other
    strategy's run left in the epoch memo."""
    db.physical.refresh_statistics()
    return DetailedCostModel(db.physical)


def cost_controlled_optimizer(physical, model):
    """The paper's optimizer: II once per transformPT candidate."""
    return Optimizer(
        physical,
        model,
        OptimizerConfig(strategy=PerCandidate(IterativeImprovement(seed=1992))),
    )


@pytest.fixture(scope="module")
def comparison(db):
    rows = []
    for label, graph in (
        ("join-3 (dense)", chain_join_query(3, dense=True)),
        ("join-4 (dense)", chain_join_query(4, dense=True)),
        ("fig3 (recursive)", fig3_query()),
    ):
        controlled = cost_controlled_optimizer(
            db.physical, fresh_model(db)
        ).optimize(graph)
        exhaustive = exhaustive_optimizer(
            db.physical, fresh_model(db), max_plans=800
        ).optimize(graph)
        rows.append((label, controlled, exhaustive))
    return rows


def test_strategy_report(comparison, benchmark, report, table):
    def summarize():
        out_rows = []
        for label, controlled, exhaustive in comparison:
            out_rows.append(
                [
                    label,
                    controlled.plans_costed,
                    exhaustive.plans_costed,
                    f"{controlled.cost:.1f}",
                    f"{exhaustive.cost:.1f}",
                    f"{controlled.elapsed_seconds * 1000:.0f}ms",
                    f"{exhaustive.elapsed_seconds * 1000:.0f}ms",
                ]
            )
        return out_rows

    rows = benchmark(summarize)
    report(
        "claim_strategy_time",
        table(
            [
                "query",
                "plans (controlled)",
                "plans (exhaustive)",
                "cost (controlled)",
                "cost (exhaustive)",
                "time (controlled)",
                "time (exhaustive)",
            ],
            rows,
        ),
        data={
            "comparisons": [
                {
                    "query": label,
                    "controlled": {
                        "plans_costed": controlled.plans_costed,
                        "cost": round(controlled.cost, 2),
                        "elapsed_ms": round(
                            controlled.elapsed_seconds * 1000, 1
                        ),
                    },
                    "exhaustive": {
                        "plans_costed": exhaustive.plans_costed,
                        "cost": round(exhaustive.cost, 2),
                        "elapsed_ms": round(
                            exhaustive.elapsed_seconds * 1000, 1
                        ),
                    },
                }
                for label, controlled, exhaustive in comparison
            ],
        },
    )


def test_exhaustive_costs_many_more_plans(comparison, benchmark):
    """The join-order space drives the blow-up: the exhaustive
    baseline's plan count must exceed the controlled optimizer's on
    the join queries and *grow* with join count — "the optimization
    time may become unacceptably high".  (The recursive query has few
    arcs, so its transformation space alone stays small — the paper's
    complexity argument is about enumerative join optimization.)"""

    def check():
        return [
            exhaustive.plans_costed / max(1, controlled.plans_costed)
            for label, controlled, exhaustive in comparison
            if label.startswith("join")
        ]

    ratios = benchmark(check)
    assert all(ratio > 1.5 for ratio in ratios), (
        f"exhaustive search should cost substantially more plans: {ratios}"
    )
    assert ratios[-1] > ratios[0], (
        f"the blow-up should grow with join count: {ratios}"
    )


def test_controlled_quality_near_exhaustive(comparison, benchmark):
    def check():
        return [
            controlled.cost / max(exhaustive.cost, 1e-9)
            for _label, controlled, exhaustive in comparison
        ]

    ratios = benchmark(check)
    assert all(ratio <= 1.2 for ratio in ratios), (
        "the cost-controlled plan should be within 20% of the "
        f"exhaustive optimum (got {ratios})"
    )


def test_time_controlled_optimize(db, benchmark):
    model = DetailedCostModel(db.physical)
    benchmark(
        lambda: cost_controlled_optimizer(db.physical, model).optimize(
            fig3_query()
        )
    )


def test_time_exhaustive_optimize(db, benchmark):
    model = DetailedCostModel(db.physical)
    benchmark(
        lambda: exhaustive_optimizer(db.physical, model, max_plans=800).optimize(
            fig3_query()
        )
    )
