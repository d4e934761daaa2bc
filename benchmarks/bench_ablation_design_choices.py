"""Ablations for the design choices DESIGN.md calls out.

Three knobs are switched off one at a time and their effect measured:

* **view folding** (the ``fold`` rewrite action) — without it a
  non-recursive view is materialized and the joint join space is lost;
* **multiclass clustering** ([VKC86], Section 3) — the static
  clustering of sub-objects near owners that ``access_cost(Ci, Cj)``
  models; declustered implicit joins pay a page read per dereference;
* **union-over-join distribution** (the Section 5 extension) — with
  the extended move set a randomized strategy can split a union join
  so one branch uses an index join.
"""

import pytest

from benchmarks.iterative_improvement import IterativeImprovement
from repro.core import Optimizer, OptimizerConfig, cost_controlled_optimizer
from repro.core.moves import neighbors
from repro.cost import DetailedCostModel
from repro.engine import Engine
from repro.physical import ClusterTree, apply_clustering
from repro.plans import (
    EJ,
    IJ,
    EntityLeaf,
    Materialize,
    Proj,
    Sel,
    UnionOp,
    find_all,
)
from repro.querygraph.builder import (
    arc,
    const,
    eq,
    ge,
    out,
    path,
    query,
    rule,
    spj,
    var,
)
from repro.workloads import MusicConfig, generate_music_database


def view_graph():
    view = rule(
        "Late",
        spj(
            [arc("Composer", x=".")],
            where=ge(path("x", "birthyear"), const(1700)),
            select=out(n=path("x", "name"), m=path("x", "master")),
        ),
    )
    answer = rule(
        "Answer",
        spj(
            [arc("Late", v="."), arc("Composer", c=".")],
            where=eq(path("v", "m"), var("c")),
            select=out(n=path("v", "n"), master=path("c", "name")),
        ),
    )
    return query(view, answer)


def test_ablation_fold(benchmark, report, table):
    db = generate_music_database(MusicConfig(lineages=8, generations=8, seed=71))
    db.build_paper_indexes()
    model = DetailedCostModel(db.physical)

    def run():
        with_fold = Optimizer(
            db.physical, model, OptimizerConfig()
        ).optimize(view_graph())
        without_fold = Optimizer(
            db.physical,
            model,
            OptimizerConfig(fold_nonrecursive_views=False),
        ).optimize(view_graph())
        return with_fold, without_fold

    with_fold, without_fold = benchmark(run)
    assert not find_all(with_fold.plan, Materialize)
    assert find_all(without_fold.plan, Materialize)
    assert with_fold.cost <= without_fold.cost + 1e-9
    engine = Engine(db.physical)
    assert (
        engine.execute(with_fold.plan).answer_set()
        == engine.execute(without_fold.plan).answer_set()
    )
    report(
        "ablation_fold",
        table(
            ["configuration", "est. cost", "materialized views"],
            [
                ["fold on", f"{with_fold.cost:.1f}", 0],
                [
                    "fold off",
                    f"{without_fold.cost:.1f}",
                    len(find_all(without_fold.plan, Materialize)),
                ],
            ],
        ),
    )


def _scatter_extent(store, name, seed=0):
    """Re-place an extent's records in shuffled order: the layout a
    store degrades to after updates, where an owner's sub-objects sit
    on unrelated pages."""
    import random

    from repro.physical.pages import PagedSegment

    extent = store.extent(name)
    records = list(extent.records)
    random.Random(seed).shuffle(records)
    segment = PagedSegment(f"scattered({name})", extent.records_per_page)
    for record in records:
        segment.append_record(int(record.oid))
    store.replace_segment({name: segment}, {})


def test_ablation_clustering(benchmark, report, table):
    """Clustering sub-objects near owners turns implicit-join
    dereferences into same-page accesses.  The baseline layout has
    sub-objects *scattered* (the post-update state a static clustering
    strategy exists to repair)."""

    def run():
        results = {}
        for clustered in (False, True):
            db = generate_music_database(
                MusicConfig(
                    lineages=10,
                    generations=6,
                    works_per_composer=4,
                    records_per_page=10,
                    buffer_pages=2,
                    seed=72,
                )
            )
            _scatter_extent(db.store, "Composition", seed=5)
            if clustered:
                apply_clustering(
                    db.store, ClusterTree("Composer", {"works": None})
                )
            db.physical.refresh_statistics()
            plan = Proj(
                IJ(
                    EntityLeaf("Composer", "x"),
                    EntityLeaf("Composition", "w"),
                    path("x", "works"),
                    "w",
                ),
                out(t=path("w", "title")),
            )
            db.store.buffer.clear()
            run_result = Engine(db.physical).execute(plan)
            model = DetailedCostModel(db.physical)
            results[clustered] = (
                run_result.metrics.buffer.physical_reads,
                model.cost(plan),
                db.physical.statistics.clustered_fraction("Composer", "works"),
            )
        return results

    results = benchmark(run)
    unclustered_reads, unclustered_cost, fraction_before = results[False]
    clustered_reads, clustered_cost, fraction_after = results[True]
    assert fraction_after > fraction_before
    assert clustered_reads < unclustered_reads
    assert clustered_cost < unclustered_cost  # the model sees it too
    report(
        "ablation_clustering",
        table(
            ["layout", "clustered fraction", "physical reads", "model cost"],
            [
                [
                    "declustered",
                    f"{fraction_before:.2f}",
                    unclustered_reads,
                    f"{unclustered_cost:.1f}",
                ],
                [
                    "works clustered",
                    f"{fraction_after:.2f}",
                    clustered_reads,
                    f"{clustered_cost:.1f}",
                ],
            ],
        ),
    )


def test_ablation_union_distribution(benchmark, report, table):
    """The extended move set can improve a union join by giving one
    branch its own (index-joined) plan."""
    db = generate_music_database(
        MusicConfig(lineages=10, generations=8, buffer_pages=2, seed=73)
    )
    db.build_paper_indexes()
    model = DetailedCostModel(db.physical)
    start = Proj(
        EJ(
            UnionOp(
                Proj(
                    Sel(
                        EntityLeaf("Composer", "a"),
                        ge(const(1650), path("a", "birthyear")),
                    ),
                    out(n=path("a", "name")),
                ),
                Proj(
                    Sel(
                        EntityLeaf("Composer", "b"),
                        ge(path("b", "birthyear"), const(1651)),
                    ),
                    out(n=path("b", "name")),
                ),
            ),
            EntityLeaf("Composer", "d"),
            eq(var("n"), path("d", "name")),
        ),
        out(name=path("d", "name")),
    )

    def run():
        plain = IterativeImprovement(seed=9, restarts=4)
        extended = IterativeImprovement(seed=9, restarts=4)
        extended.extended_moves = True
        return (
            plain.search(start, model.cost, db.physical),
            extended.search(start, model.cost, db.physical),
        )

    plain_result, extended_result = benchmark(run)
    assert extended_result.cost <= plain_result.cost + 1e-9
    engine = Engine(db.physical)
    assert (
        engine.execute(extended_result.plan).answer_set()
        == engine.execute(start).answer_set()
    )
    report(
        "ablation_union_distribution",
        table(
            ["move set", "plan cost", "plans costed", "moves taken"],
            [
                [
                    "standard",
                    f"{plain_result.cost:.1f}",
                    plain_result.plans_costed,
                    "; ".join(plain_result.moves_taken[:3]) or "none",
                ],
                [
                    "with union distribution",
                    f"{extended_result.cost:.1f}",
                    extended_result.plans_costed,
                    "; ".join(extended_result.moves_taken[:3]) or "none",
                ],
            ],
        ),
    )
