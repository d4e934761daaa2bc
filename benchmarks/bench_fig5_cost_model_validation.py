"""FIG5 — validating the cost formulas against the executor.

Figure 5 gives per-operator cost formulas; our reproduction is only
usable if those formulas *track reality*.  For a corpus of plans
(selection, implicit join, path-index join, explicit join, fixpoint)
over databases of increasing size, we compare the detailed model's
estimate against the engine's measured cost (physical page reads +
index pages + weighted predicate evaluations, priced with the same unit
weights).

We do not require absolute agreement — the model is analytic — but the
*shape* must hold: Spearman rank correlation between estimated and
measured cost across the corpus must be high, and per-operator costs
must grow monotonically with database size.
"""

import pytest
from scipy import stats as scipy_stats

from repro.cost import DetailedCostModel
from repro.engine import Engine
from repro.plans import EJ, IJ, PIJ, EntityLeaf, Fix, Proj, RecLeaf, Sel, UnionOp
from repro.querygraph.builder import add, const, eq, ge, out, path, var
from repro.workloads import MusicConfig, generate_music_database

SIZES = [2, 4, 8, 12]


def build_db(lineages):
    db = generate_music_database(
        MusicConfig(
            lineages=lineages,
            generations=6,
            works_per_composer=3,
            selective_fraction=0.2,
            buffer_pages=8,
            seed=11,
        )
    )
    db.build_paper_indexes()
    return db


def corpus():
    fix_body = UnionOp(
        Proj(
            EntityLeaf("Composer", "x"),
            out(master=path("x", "master"), disciple=var("x"), gen=const(1)),
        ),
        Proj(
            EJ(
                RecLeaf("Influencer", "i"),
                EntityLeaf("Composer", "x"),
                eq(path("i", "disciple"), path("x", "master")),
            ),
            out(
                master=path("i", "master"),
                disciple=var("x"),
                gen=add(path("i", "gen"), const(1)),
            ),
        ),
    )
    return [
        (
            "Sel(scan)",
            Sel(
                EntityLeaf("Composer", "x"),
                ge(path("x", "birthyear"), const(1700)),
            ),
        ),
        (
            "Sel(indexed)",
            Sel(
                EntityLeaf("Composer", "x"),
                eq(path("x", "name"), const("Bach")),
            ),
        ),
        (
            "IJ(works)",
            IJ(
                EntityLeaf("Composer", "x"),
                EntityLeaf("Composition", "w"),
                path("x", "works"),
                "w",
            ),
        ),
        (
            "PIJ(works.instruments)",
            PIJ(
                EntityLeaf("Composer", "x"),
                [EntityLeaf("Composition", "w"), EntityLeaf("Instrument", "i")],
                ["works", "instruments"],
                var("x"),
                ["w", "i"],
            ),
        ),
        (
            "EJ(nested loop)",
            EJ(
                Sel(
                    EntityLeaf("Composer", "a"),
                    eq(path("a", "name"), const("Bach")),
                ),
                EntityLeaf("Composer", "b"),
                eq(path("b", "master"), var("a")),
            ),
        ),
        (
            "Fix(Influencer)",
            Fix("Influencer", fix_body, "i", "Composer", "master", {"master"}),
        ),
    ]


@pytest.fixture(scope="module")
def measurements():
    rows = []
    for lineages in SIZES:
        db = build_db(lineages)
        model = DetailedCostModel(db.physical)
        engine = Engine(db.physical)
        for name, plan in corpus():
            estimated = model.cost(plan)
            db.store.buffer.clear()  # cold start per measurement
            result = engine.execute(plan)
            measured = result.metrics.measured_cost()
            rows.append((name, lineages, estimated, measured))
    return rows


def test_fig5_rank_correlation(measurements, benchmark, report, table):
    estimates = [row[2] for row in measurements]
    measured = [row[3] for row in measurements]

    def correlate():
        return scipy_stats.spearmanr(estimates, measured)

    correlation = benchmark(correlate)
    rho = correlation.statistic if hasattr(correlation, "statistic") else correlation[0]
    table_rows = [
        [name, lineages, f"{est:.1f}", f"{meas:.1f}"]
        for name, lineages, est, meas in measurements
    ]
    table_rows.append(["Spearman rho", "", "", f"{rho:.3f}"])
    report(
        "fig5_cost_model_validation",
        table(["operator", "lineages", "estimated", "measured"], table_rows),
        data={
            "spearman_rho": round(float(rho), 4),
            "measurements": [
                {
                    "operator": name,
                    "lineages": lineages,
                    "estimated": round(est, 2),
                    "measured": round(meas, 2),
                }
                for name, lineages, est, meas in measurements
            ],
        },
    )
    assert rho > 0.8, f"cost model does not track measurements (rho={rho:.3f})"


def test_fig5_monotone_in_size(measurements, benchmark):
    """Per operator, estimated cost is non-decreasing in database size
    (the formulas scale with |C| and ||C||)."""

    def check():
        by_operator = {}
        for name, lineages, estimated, _measured in measurements:
            by_operator.setdefault(name, []).append((lineages, estimated))
        violations = []
        for name, series in by_operator.items():
            series.sort()
            values = [value for _size, value in series]
            if any(b < a * 0.999 for a, b in zip(values, values[1:])):
                violations.append(name)
        return violations

    violations = benchmark(check)
    assert not violations, f"non-monotone estimates for {violations}"
