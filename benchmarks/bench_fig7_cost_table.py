"""FIG7 — the comprehensive example's cost table (Section 4.6).

Regenerates Figure 7: the per-operation symbolic cost rows of the two
Figure 4 plans over the constants ``pr``, ``ev``, ``lea``, ``lev`` and
the entity sizes (``|Cpr|``, ``||Cpr||``, delta sizes ``|Inf_i|``), and
the paper's verdict:

    "The sketched costs clearly show that the PT of Figure 4.(ii) is
    more costly than that of Figure 4.(i).  Pushing selection through
    recursion in this example is not worthwhile."

The numeric evaluation uses the Section 4.6 assumptions *verbatim* —
in particular ``nbtuples(Ci, P) = ||Ci||``: no selectivity discount.
Under those assumptions a pushed plan repeats the selection pipeline
every iteration with no cardinality payoff, so it always loses — which
is the paper's point: only a richer model (selectivities, buffering)
can ever justify a push, and benchmarks CLAIM-SELPUSH/CLAIM-JOINPUSH
explore exactly that with the detailed model.
"""

import pytest

from repro.core import deductive_optimizer, naive_optimizer
from repro.cost import SimplifiedCostModel, SimplifiedParameters
from repro.workloads import MusicConfig, fig3_query, generate_music_database
from tests.diff_harness import as_nested_loop

ABBREVIATIONS = {
    "Composer": "Cpr",
    "Composition": "Cpn",
    "Instrument": "Ins",
    "Influencer": "Inf",
}


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
    db = build_db()
    graph = fig3_query()
    # The paper's setting: only path indices, no clustering, no
    # materialization — i.e. plans chosen under the simplified model
    # (under which the PIJ always beats the raw IJ chain, giving
    # exactly the Figure 4 shapes).
    model = SimplifiedCostModel(db.physical)
    unpushed = naive_optimizer(db.physical, model).optimize(graph)
    pushed = deductive_optimizer(db.physical, model).optimize(graph)
    # Priced with the paper's join method: the Fix body's equi-join is
    # a nested loop in Figure 7 (the optimizer's hash join is an
    # extension the paper does not have).
    return db, as_nested_loop(unpushed.plan), as_nested_loop(pushed.plan)


def render_rows(rows):
    lines = []
    for row in rows:
        marker = {"main": " ", "fix-base": "b", "fix-rec": "r"}[row.section]
        lines.append(f"  {row.label:>4} [{marker}]  {row.formula!r}")
        lines.append(f"          ({row.operator})")
    return "\n".join(lines) + "\n"


def test_fig7_symbolic_tables(setup, benchmark, report):
    db, unpushed, pushed = setup
    model = SimplifiedCostModel(db.physical)

    def build_tables():
        return (
            model.table(unpushed, symbolic=True, entity_abbreviations=ABBREVIATIONS),
            model.table(pushed, symbolic=True, entity_abbreviations=ABBREVIATIONS),
        )

    rows_i, rows_ii = benchmark(build_tables)

    # Structural checks against the paper's table: the unpushed plan's
    # pipeline is Fix -> Sel(gen) -> IJ(master) -> PIJ -> Sel -> IJ(disc).
    main_i = [r.operator.split("[")[0] for r in rows_i if r.section == "main"]
    assert main_i == ["Fix", "Sel", "IJ", "PIJ", "Sel", "IJ"]
    # The pushed plan repeats IJ/PIJ/Sel inside base and recursive parts
    # (the paper's T7..T13) and keeps only Sel(gen)/IJ(disc) outside.
    base_ops = [r.operator.split("[")[0] for r in rows_ii if r.section == "fix-base"]
    rec_ops = [r.operator.split("[")[0] for r in rows_ii if r.section == "fix-rec"]
    assert base_ops == ["IJ", "PIJ", "Sel"]
    assert rec_ops == ["EJ", "IJ", "PIJ", "Sel"]
    main_ii = [r.operator.split("[")[0] for r in rows_ii if r.section == "main"]
    assert main_ii == ["Fix", "Sel", "IJ"]

    # Figure 5 formula spot checks.
    fix_row_i = [r for r in rows_i if r.operator.startswith("Fix")][0]
    assert "n_1" in repr(fix_row_i.formula)
    pij_rows = [r for r in rows_i if r.operator.startswith("PIJ")]
    assert "lea/||Cpr||" in repr(pij_rows[0].formula)

    report(
        "fig7_symbolic_pt_i",
        "Figure 7 (top): cost rows of PT 4(i)\n" + render_rows(rows_i),
    )
    report(
        "fig7_symbolic_pt_ii",
        "Figure 7 (bottom): cost rows of PT 4(ii)\n" + render_rows(rows_ii),
    )


def test_fig7_numeric_verdict(setup, benchmark, report, table):
    """The paper's verdict under its own assumptions: pushing loses."""
    db, unpushed, pushed = setup
    params = SimplifiedParameters(pr=1.0, ev=0.1, lea=50.0, lev=3.0)
    # Section 4.6: nbtuples(Ci, P) = ||Ci|| — no selectivity discount,
    # i.e. identity size propagation (the paper's sketch discipline).
    model = SimplifiedCostModel(db.physical, params, identity_sizes=True)

    def totals():
        return model.cost(unpushed), model.cost(pushed)

    cost_i, cost_ii = benchmark(totals)
    # The paper's verdict: "pushing selection through recursion in this
    # example is not worthwhile."  Under identity sizes the pushed plan
    # gains nothing (the duplicated pipeline does the same total work as
    # the single post-fixpoint pipeline, plus bookkeeping): it must not
    # be meaningfully cheaper.  (A strict loss needs magnitudes the
    # sketch leaves symbolic — see EXPERIMENTS.md.)
    assert cost_ii >= cost_i * 0.98, (
        "under the Section 4.6 assumptions the push must not pay off"
    )

    # For contrast: with real selectivities the comparison can flip —
    # the reason the decision must be cost-based.
    contrast = SimplifiedCostModel(db.physical, params)
    contrast_i, contrast_ii = contrast.cost(unpushed), contrast.cost(pushed)

    report(
        "fig7_numeric_verdict",
        table(
            ["model", "PT (i) unpushed", "PT (ii) pushed", "verdict"],
            [
                [
                    "Section 4.6 (no selectivity)",
                    f"{cost_i:.1f}",
                    f"{cost_ii:.1f}",
                    "push NOT worthwhile (paper's verdict)"
                    if cost_ii >= cost_i * 0.98
                    else "push wins",
                ],
                [
                    "with estimated selectivities",
                    f"{contrast_i:.1f}",
                    f"{contrast_ii:.1f}",
                    "push NOT worthwhile"
                    if contrast_ii > contrast_i
                    else "push wins",
                ],
            ],
        ),
    )
