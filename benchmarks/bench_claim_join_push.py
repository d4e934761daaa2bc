"""CLAIM-JOINPUSH — pushing a *join* through recursion (Section 4.5).

"Our cost-based approach enables us to investigate solutions where
join is pushed through recursion, not proposed before.  A join may be
very selective, making it worth to push it through recursion. [...]
For example, a query that retrieves the composers that were influenced
by the masters of Bach."

Two variants of the join query are swept over growing databases:

* the *selective* join (``Composer.name = 'Bach'`` restricts the inner
  operand to one object) — pushing it restricts the whole fixpoint to
  Bach-master tuples and should win by a growing factor;
* an *unselective* variant (the name filter dropped, every composer
  joins) — pushing duplicates a full-extent join into every semi-naive
  iteration and should lose.

The cost-controlled optimizer must pick the winner on both variants;
the deductive heuristic pushes both and gets the second one wrong.
"""

import pytest

from repro.core import (
    cost_controlled_optimizer,
    deductive_optimizer,
    naive_optimizer,
)
from repro.cost import DetailedCostModel
from repro.engine import Engine, ReferenceEvaluator
from repro.querygraph.builder import and_, arc, const, eq, out, path, query, rule, spj
from repro.querygraph.graph import QueryGraph
from repro.workloads import MusicConfig, generate_music_database, join_push_query
from repro.workloads.queries import influencer_rules

SIZES = [4, 8, 14]


def unselective_join_query() -> QueryGraph:
    """Like the Section 4.5 query, but joining on *every* master.

    The projection avoids dereferencing ``disciple`` so the join sits
    directly above the fixpoint — the shape where pushing is possible
    (and, here, harmful)."""
    p1, p2 = influencer_rules()
    p3 = rule(
        "Answer",
        spj(
            [arc("Influencer", i="."), arc("Composer", c=".")],
            where=eq(path("i", "master"), path("c", "master")),
            select=out(disciple=path("i", "disciple"), gen=path("i", "gen")),
        ),
    )
    return query(p1, p2, p3)


def build_db(lineages):
    db = generate_music_database(
        MusicConfig(
            lineages=lineages,
            generations=8,
            works_per_composer=2,
            buffer_pages=4,
            seed=31,
        )
    )
    db.build_paper_indexes()
    return db


def run_cold(db, plan):
    db.store.buffer.clear()
    return Engine(db.physical).execute(plan)


@pytest.fixture(scope="module")
def sweep():
    points = []
    for lineages in SIZES:
        db = build_db(lineages)
        model = DetailedCostModel(db.physical)
        for variant, graph in (
            ("selective", join_push_query()),
            ("unselective", unselective_join_query()),
        ):
            unpushed = naive_optimizer(db.physical, model).optimize(graph)
            pushed = deductive_optimizer(db.physical, model).optimize(graph)
            chosen = cost_controlled_optimizer(db.physical, model).optimize(graph)
            run_unpushed = run_cold(db, unpushed.plan)
            run_pushed = run_cold(db, pushed.plan)
            run_chosen = run_cold(db, chosen.plan)
            want = ReferenceEvaluator(db.physical).answer_set(graph)
            assert run_unpushed.answer_set() == want
            assert run_pushed.answer_set() == want
            assert run_chosen.answer_set() == want
            points.append(
                {
                    "variant": variant,
                    "lineages": lineages,
                    "meas_unpushed": run_unpushed.metrics.measured_cost(),
                    "meas_pushed": run_pushed.metrics.measured_cost(),
                    "meas_chosen": run_chosen.metrics.measured_cost(),
                    "chose_push": chosen.chose_push(),
                }
            )
    return points


def test_join_push_report(sweep, benchmark, report, table):
    def summarize():
        rows = []
        for point in sweep:
            winner = (
                "push"
                if point["meas_pushed"] < point["meas_unpushed"]
                else "no-push"
            )
            rows.append(
                [
                    point["variant"],
                    point["lineages"],
                    f"{point['meas_unpushed']:.0f}",
                    f"{point['meas_pushed']:.0f}",
                    winner,
                    "push" if point["chose_push"] else "no-push",
                    f"{point['meas_chosen']:.0f}",
                ]
            )
        return rows

    rows = benchmark(summarize)
    report(
        "claim_join_push",
        table(
            [
                "variant",
                "lineages",
                "meas no-push",
                "meas push",
                "measured winner",
                "optimizer chose",
                "optimizer meas.",
            ],
            rows,
        ),
    )


def test_selective_join_push_wins_and_grows(sweep, benchmark):
    def ratios():
        return [
            point["meas_unpushed"] / max(point["meas_pushed"], 1e-9)
            for point in sweep
            if point["variant"] == "selective"
        ]

    speedups = benchmark(ratios)
    assert all(ratio > 1.0 for ratio in speedups), (
        f"the selective join push must win at every size ({speedups})"
    )
    assert speedups[-1] > speedups[0], (
        "the payoff should grow with database size"
    )


def test_unselective_join_push_loses(sweep, benchmark):
    def losses():
        return [
            point["meas_pushed"] / max(point["meas_unpushed"], 1e-9)
            for point in sweep
            if point["variant"] == "unselective"
        ]

    ratios = benchmark(losses)
    assert ratios[-1] > 1.0, "pushing an unselective join must lose at scale"


def test_optimizer_never_worse_than_either_heuristic(sweep, benchmark):
    def check():
        bad = []
        for point in sweep:
            best = min(point["meas_unpushed"], point["meas_pushed"])
            if point["meas_chosen"] > best * 1.25:
                bad.append(point)
        return bad

    offenders = benchmark(check)
    assert not offenders, f"cost-controlled choice far off best: {offenders}"
