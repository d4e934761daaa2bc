"""ABLATE/extension — cost-model calibration quality.

The paper treats unit costs as given physical-schema parameters; a real
deployment measures them.  This benchmark fits per-event unit weights
from probe executions (`repro.cost.calibrate`) and checks:

* the fit reconstructs the probes' target costs with low residual;
* a detailed model re-based on the calibrated parameters still ranks a
  held-out plan pair (the Figure 4 push decision) the same way the
  measurements do.
"""

import pytest

from repro.core import deductive_optimizer, naive_optimizer
from repro.cost import DetailedCostModel, calibrate
from repro.plans import EJ, IJ, PIJ, EntityLeaf, Proj, Sel
from repro.querygraph.builder import const, eq, ge, out, path, var
from repro.workloads import MusicConfig, fig3_query, generate_music_database
from repro.engine import Engine


def build_db():
    db = generate_music_database(
        MusicConfig(
            lineages=8,
            generations=8,
            works_per_composer=3,
            selective_fraction=0.1,
            buffer_pages=4,
            seed=81,
        )
    )
    db.build_paper_indexes()
    return db


def probe_plans():
    return [
        ("scan+sel", Sel(EntityLeaf("Composer", "x"), ge(path("x", "birthyear"), const(1700)))),
        ("indexed", Sel(EntityLeaf("Composer", "x"), eq(path("x", "name"), const("Bach")))),
        ("ij", IJ(EntityLeaf("Composer", "x"), EntityLeaf("Composition", "w"), path("x", "works"), "w")),
        (
            "pij",
            PIJ(
                EntityLeaf("Composer", "x"),
                [EntityLeaf("Composition", "w"), EntityLeaf("Instrument", "i")],
                ["works", "instruments"],
                var("x"),
                ["w", "i"],
            ),
        ),
        (
            "ej",
            EJ(
                Sel(EntityLeaf("Composer", "a"), eq(path("a", "name"), const("Bach"))),
                EntityLeaf("Composer", "b"),
                eq(path("b", "master"), var("a")),
            ),
        ),
        ("proj", Proj(EntityLeaf("Instrument", "i"), out(n=path("i", "name")))),
        ("method", Sel(EntityLeaf("Composer", "x"), ge(path("x", "age"), const(250)))),
    ]


def test_calibration_fit_and_ranking(benchmark, report, table):
    db = build_db()

    def run():
        return calibrate(db.physical, probe_plans())

    fitted = benchmark(run)
    assert fitted.residual < 0.2, f"poor fit: residual {fitted.residual:.3f}"

    # Held-out ranking check: the push decision on Figure 3.
    params = fitted.to_parameters()
    model = DetailedCostModel(db.physical, params)
    graph = fig3_query(min_generations=4)
    unpushed = naive_optimizer(db.physical, model).optimize(graph)
    pushed = deductive_optimizer(db.physical, model).optimize(graph)
    engine = Engine(db.physical)
    db.store.buffer.clear()
    measured_unpushed = engine.execute(unpushed.plan).metrics.measured_cost()
    db.store.buffer.clear()
    measured_pushed = engine.execute(pushed.plan).metrics.measured_cost()
    model_says_push = pushed.cost < unpushed.cost
    measurement_says_push = measured_pushed < measured_unpushed
    assert model_says_push == measurement_says_push

    rows = [[name, f"{weight:.4f}"] for name, weight in fitted.weights.items()]
    rows.append(["fit residual", f"{fitted.residual:.4f}"])
    rows.append(
        [
            "held-out push decision",
            "agrees with measurement"
            if model_says_push == measurement_says_push
            else "DISAGREES",
        ]
    )
    report("calibration", table(["quantity", "value"], rows))
