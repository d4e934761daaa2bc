"""CLAIM-ENUM — memoized enumeration vs. the randomized strategies.

The transformation-based enumerator (``--strategy enum``) explores the
same move graph as II/SA/2PO but deterministically, costing each
canonical subplan once (memo table) and pruning against the incumbent.
The claim this benchmark gates, per fig7 configuration (fig3 recursive
query and the join-push query, under the serial / shards-4 cost
variants):

  * **optimality** — the enum plan costs no more than the best plan
    any randomized strategy finds on the same configuration, and
  * **comparable optimization time** — enum's median optimization
    time is within 1.25x the median II time (both over ``REPEATS``
    interleaved runs).

Both claims are re-checked from the committed
``BENCH_enumeration.json`` by ``check_regression.py``, so a strategy
or cost-model change that silently degrades either fails the
bench-regression gate.
"""

import statistics
import time

import pytest

from repro.core.enumerate import MemoizedEnumeration
from repro.core.optimizer import Optimizer, OptimizerConfig
from repro.core.strategies import (
    IterativeImprovement,
    SimulatedAnnealing,
    TwoPhase,
)
from repro.cost import CostParameters, DetailedCostModel
from repro.workloads import (
    MusicConfig,
    fig3_query,
    generate_music_database,
    join_push_query,
)

QUERIES = {
    "fig3": fig3_query,
    "join_push": join_push_query,
}

CONFIGS = {
    "serial": {},
    "shards4": {"shards": 4},
}

#: The randomized strategies, built fresh per optimize with the seed
#: ``OptimizerConfig(strategy="ii")`` gives II.
RANDOMIZED = {
    "ii": lambda: IterativeImprovement(seed=1992),
    "sa": lambda: SimulatedAnnealing(seed=1992),
    "2po": lambda: TwoPhase(seed=1992),
}

#: Acceptance bound: enum's median optimization time must be within
#: this multiple of the median II optimization time.
REQUIRED_TIME_FACTOR = 1.25

#: Interleaved repeats per configuration: every strategy, enum
#: included, is timed this many times and reported by its median
#: (best cost for the randomized ones — they are seeded, so this only
#: steadies the timing).
REPEATS = 5


def build_db():
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


@pytest.fixture(scope="module")
def setup():
    return build_db()


def _model(db, overrides):
    params = CostParameters()
    for name, value in overrides.items():
        setattr(params, name, value)
    return DetailedCostModel(db.physical, params)


def _timed_optimize(db, make_query, make_strategy, model):
    optimizer = Optimizer(
        db.physical, model, OptimizerConfig(strategy=make_strategy())
    )
    start = time.perf_counter()
    result = optimizer.optimize(make_query())
    elapsed_ms = (time.perf_counter() - start) * 1e3
    return result, elapsed_ms


def test_enumeration_vs_randomized(setup, benchmark, report, table):
    db = setup

    measurements = []
    for query_name, make_query in sorted(QUERIES.items()):
        for config_name, overrides in sorted(CONFIGS.items()):
            model = _model(db, overrides)

            enum_times = []
            costs = {name: [] for name in RANDOMIZED}
            times = {name: [] for name in RANDOMIZED}
            for _ in range(REPEATS):
                enum_result, elapsed = _timed_optimize(
                    db, make_query, MemoizedEnumeration, model
                )
                enum_times.append(elapsed)
                for name, make_strategy in RANDOMIZED.items():
                    result, elapsed = _timed_optimize(
                        db, make_query, make_strategy, model
                    )
                    costs[name].append(result.cost)
                    times[name].append(elapsed)
            enum_ms = statistics.median(enum_times)
            stats = enum_result.strategy_stats or {}
            randomized = {
                name: {
                    "best_cost": min(costs[name]),
                    "median_ms": statistics.median(times[name]),
                }
                for name in RANDOMIZED
            }

            best_randomized = min(
                row["best_cost"] for row in randomized.values()
            )
            ii_median_ms = randomized["ii"]["median_ms"]
            time_budget_factor = (
                REQUIRED_TIME_FACTOR * ii_median_ms / enum_ms
                if enum_ms > 0
                else float("inf")
            )
            # The tentpole claims, asserted here and re-gated from the
            # committed JSON by check_regression.py.
            assert enum_result.cost <= best_randomized * (1 + 1e-9), (
                f"enum cost {enum_result.cost} worse than best "
                f"randomized {best_randomized} on "
                f"{query_name}/{config_name}"
            )
            assert time_budget_factor >= 1.0, (
                f"enum median {enum_ms:.1f}ms on {query_name}/"
                f"{config_name}, over {REQUIRED_TIME_FACTOR}x the "
                f"median II time {ii_median_ms:.1f}ms"
            )

            measurements.append(
                {
                    "query": query_name,
                    "config": config_name,
                    "enum_cost": round(enum_result.cost, 4),
                    "best_randomized_cost": round(best_randomized, 4),
                    "cost_advantage": round(
                        best_randomized / enum_result.cost, 4
                    ),
                    "enum_ms": round(enum_ms, 3),
                    "ii_median_ms": round(ii_median_ms, 3),
                    "time_budget_factor": round(time_budget_factor, 3),
                    "subplans_memoized": stats.get("subplans_memoized"),
                    "memo_hits": stats.get("memo_hits"),
                    "pruned_branches": stats.get("pruned_branches"),
                    "candidates_costed": stats.get("candidates_costed"),
                    "randomized": {
                        name: round(row["best_cost"], 4)
                        for name, row in sorted(randomized.items())
                    },
                }
            )

    # pytest-benchmark row: the enumerator's end-to-end optimization
    # time on the headline fig3/serial configuration.
    serial_model = _model(db, {})

    def optimize_enum():
        return _timed_optimize(
            db, fig3_query, MemoizedEnumeration, serial_model
        )[0]

    benchmark(optimize_enum)

    report(
        "enumeration",
        table(
            [
                "query",
                "config",
                "enum cost",
                "best II/SA/2PO",
                "enum median ms",
                "II median ms",
                "memo (size/hits)",
            ],
            [
                [
                    m["query"],
                    m["config"],
                    f"{m['enum_cost']:.4f}",
                    f"{m['best_randomized_cost']:.4f}",
                    f"{m['enum_ms']:.1f}",
                    f"{m['ii_median_ms']:.1f}",
                    f"{m['subplans_memoized']}/{m['memo_hits']}",
                ]
                for m in measurements
            ],
        ),
        data={
            "required_time_factor": REQUIRED_TIME_FACTOR,
            "repeats": REPEATS,
            "measurements": measurements,
        },
    )
