"""CLAIM-SELPUSH — pushing selection through recursion is sometimes a
win and sometimes a loss; only a cost model can tell (Sections 1, 3.1).

Sweeps the selectivity of the ``harpsichord`` predicate (the fraction
of works scored for the selective instrument).  For each point both
Figure 4 plans are executed cold and their *measured* costs compared,
alongside the detailed model's estimates:

* at very low selectivity the pushed plan shrinks every semi-naive
  delta and wins;
* as the predicate keeps more composers the pushed plan's per-iteration
  implicit joins stop paying for themselves and it loses — the
  deductive-DB heuristic ("always push") picks the wrong plan on that
  side of the crossover.

The benchmark asserts both regimes exist and that the cost-controlled
optimizer picks the measured winner at both extremes.
"""

import pytest

from repro.core import deductive_optimizer, naive_optimizer
from repro.cost import DetailedCostModel
from repro.engine import Engine
from repro.workloads import MusicConfig, fig3_query, generate_music_database

FRACTIONS = [0.02, 0.1, 0.3, 0.6, 1.0]


def build_db(fraction):
    db = generate_music_database(
        MusicConfig(
            lineages=10,
            generations=9,
            works_per_composer=3,
            instruments=20,
            selective_fraction=fraction,
            buffer_pages=4,
            seed=21,
        )
    )
    db.build_paper_indexes()
    return db


@pytest.fixture(scope="module")
def sweep():
    points = []
    for fraction in FRACTIONS:
        db = build_db(fraction)
        model = DetailedCostModel(db.physical)
        graph = fig3_query(min_generations=4)
        unpushed = naive_optimizer(db.physical, model).optimize(graph)
        pushed = deductive_optimizer(db.physical, model).optimize(graph)
        engine = Engine(db.physical)
        db.store.buffer.clear()
        run_unpushed = engine.execute(unpushed.plan)
        db.store.buffer.clear()
        run_pushed = engine.execute(pushed.plan)
        assert run_unpushed.answer_set() == run_pushed.answer_set()
        points.append(
            {
                "fraction": fraction,
                "est_unpushed": unpushed.cost,
                "est_pushed": pushed.cost,
                "meas_unpushed": run_unpushed.metrics.measured_cost(),
                "meas_pushed": run_pushed.metrics.measured_cost(),
            }
        )
    return points


def test_crossover_exists(sweep, benchmark, report, table):
    def winners():
        return [
            (
                point["fraction"],
                "push" if point["meas_pushed"] < point["meas_unpushed"] else "no-push",
                "push" if point["est_pushed"] < point["est_unpushed"] else "no-push",
            )
            for point in sweep
        ]

    verdicts = benchmark(winners)
    rows = []
    for point, (fraction, measured_winner, model_winner) in zip(sweep, verdicts):
        rows.append(
            [
                f"{fraction:.2f}",
                f"{point['est_unpushed']:.0f}",
                f"{point['est_pushed']:.0f}",
                f"{point['meas_unpushed']:.0f}",
                f"{point['meas_pushed']:.0f}",
                measured_winner,
                model_winner,
            ]
        )
    report(
        "claim_selection_crossover",
        table(
            [
                "selectivity",
                "est no-push",
                "est push",
                "meas no-push",
                "meas push",
                "measured winner",
                "model winner",
            ],
            rows,
        ),
    )
    measured_winners = [winner for _f, winner, _m in verdicts]
    assert measured_winners[0] == "push", (
        "a highly selective predicate should reward pushing"
    )
    assert measured_winners[-1] == "no-push", (
        "an unselective predicate should punish pushing"
    )


def test_model_agrees_at_extremes(sweep, benchmark):
    def extremes():
        first, last = sweep[0], sweep[-1]
        model_first = first["est_pushed"] < first["est_unpushed"]
        measured_first = first["meas_pushed"] < first["meas_unpushed"]
        model_last = last["est_pushed"] < last["est_unpushed"]
        measured_last = last["meas_pushed"] < last["meas_unpushed"]
        return (model_first == measured_first) and (model_last == measured_last)

    assert benchmark(extremes), (
        "the cost model must pick the measured winner at both extremes "
        "(that is the whole point of cost-controlled pushing)"
    )
