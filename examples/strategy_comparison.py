"""Pruned vs. exhaustive search ([KZ88], Section 4.1).

The optimizer separates its search *space* (actions/moves) from its
search.  This example runs the same queries through the optimizer's
memoized enumerator and its unpruned closure (the [KZ88] exhaustive
baseline) and tabulates plan quality against optimization effort
(plans costed, wall-clock time).

Run:  python examples/strategy_comparison.py
"""

import time

from repro import MusicConfig, Optimizer, generate_music_database
from repro.core import exhaustive_optimizer
from repro.cost import DetailedCostModel
from repro.querygraph.builder import and_, arc, const, eq, ge, out, path, query, rule, spj, var
from repro.workloads import fig3_query


def dense_join_query(joins: int):
    """A join-heavy query: the space where exhaustive enumeration
    blows up while the pruned enumerator stays cheap."""
    arcs = [arc("Composer", **{f"c{i}": "."}) for i in range(joins + 1)]
    conjuncts = [eq(path("c0", "name"), const("Bach"))]
    for i in range(1, joins + 1):
        conjuncts.append(eq(path(f"c{i}", "master"), var(f"c{i-1}")))
    for i in range(2, joins + 1):
        conjuncts.append(
            ge(path(f"c{i}", "birthyear"), path(f"c{i-2}", "birthyear"))
        )
    node = spj(
        arcs, where=and_(*conjuncts), select=out(name=path(f"c{joins}", "name"))
    )
    return query(rule("Answer", node))


def run_table(db, model, graph, title):
    optimizers = [
        ("memoized enumeration", Optimizer(db.physical, model)),
        (
            "exhaustive closure",
            exhaustive_optimizer(db.physical, model, max_plans=2000),
        ),
    ]
    print(f"\n=== {title} ===")
    print(f"{'search':>24}  {'plan cost':>10}  {'plans costed':>12}  {'time':>8}")
    print("-" * 62)
    for name, optimizer in optimizers:
        started = time.perf_counter()
        result = optimizer.optimize(graph)
        elapsed = time.perf_counter() - started
        print(
            f"{name:>24}  {result.cost:10.1f}  {result.plans_costed:12d}  "
            f"{elapsed * 1000:6.0f}ms"
        )


def main() -> None:
    db = generate_music_database(
        MusicConfig(lineages=10, generations=8, works_per_composer=3, seed=3)
    )
    db.build_paper_indexes()
    model = DetailedCostModel(db.physical)

    run_table(db, model, fig3_query(), "fig3: recursive query (small space)")
    run_table(
        db,
        model,
        dense_join_query(4),
        "dense 4-way join (large join-order space)",
    )

    print()
    print(
        "Both searches walk the same move space (join swaps, index "
        "toggles,\nPIJ collapse/expansion, selection/join pushes through "
        "recursion).  On the\njoin-heavy query the exhaustive closure "
        "costs several times more plans\nfor the same final cost — "
        "the paper's Section 4.1 trade-off."
    )


if __name__ == "__main__":
    main()
