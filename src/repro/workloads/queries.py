"""The paper's canned queries as query graphs.

* :func:`fig2_query` — Figure 2: "the title of the works of Bach
  including a harpsichord and a flute".
* :func:`influencer_rules` — Section 2.3: the recursive ``Influencer``
  view (base + recursive rule).
* :func:`fig3_query` — Figure 3: "the names of the composers influenced
  by composers for harpsichord that lived 6 generations before".
* :func:`join_push_query` — Section 4.5: "the composers that were
  influenced by the masters of Bach" (the selective-join example).
* :func:`chain_join_query` — a non-recursive chain of explicit joins
  over ``Composer`` (the join-order space exhaustive search explodes
  on, Section 4.1).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.querygraph.builder import (
    add,
    and_,
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
from repro.querygraph.graph import QueryGraph, Rule

__all__ = [
    "fig2_query",
    "influencer_rules",
    "fig3_query",
    "join_push_query",
    "chain_join_query",
    "INFLUENCER",
]

INFLUENCER = "Influencer"


def fig2_query(
    composer: str = "Bach",
    instrument1: str = "harpsichord",
    instrument2: str = "flute",
) -> QueryGraph:
    """The Figure 2 query graph.

    One predicate node over ``Composer`` whose tree label binds ``n``
    (the name), ``t`` (a work's title) and ``i1``/``i2`` (names of two
    instrument of the *same* work — two branches under one ``works``
    element, the overlapping-path factorization the paper highlights).
    """
    return query(
        rule(
            "Answer",
            spj(
                [
                    arc(
                        "Composer",
                        n="name",
                        t="works.*.title",
                        i1="works.*.instruments.*.name",
                        i2="works.*.instruments#2.*.name",
                    )
                ],
                where=and_(
                    eq(var("n"), const(composer)),
                    eq(var("i1"), const(instrument1)),
                    eq(var("i2"), const(instrument2)),
                ),
                select=out(title=var("t")),
            ),
        )
    )


def influencer_rules() -> List[Rule]:
    """The recursive ``Influencer`` view of Section 2.3::

        relation Influencer
          includes (select [master: x.master, disciple: x, gen: 1]
                    from x in Composer)
          union    (select [master: i.master, disciple: x,
                            gen: add1gen(i.gen)]
                    from i in Influencer, x in Composer
                    where i.disciple = x.master)

    The base rule only emits tuples for composers that *have* a master
    (inner-join semantics of the implicit access to ``x.master``): we
    make that explicit with ``x.master = x.master`` being unnecessary —
    instead the reference/physical evaluators drop null references
    uniformly, so no extra predicate is needed.
    """
    base = rule(
        INFLUENCER,
        spj(
            [arc("Composer", x=".")],
            select=out(
                master=path("x", "master"),
                disciple=var("x"),
                gen=const(1),
            ),
        ),
    )
    recursive = rule(
        INFLUENCER,
        spj(
            [arc(INFLUENCER, i="."), arc("Composer", x=".")],
            where=eq(path("i", "disciple"), path("x", "master")),
            select=out(
                master=path("i", "master"),
                disciple=var("x"),
                gen=add(path("i", "gen"), const(1)),
            ),
        ),
    )
    return [base, recursive]


def fig3_query(
    instrument: str = "harpsichord", min_generations: int = 6
) -> QueryGraph:
    """The Figure 3 query: predicate nodes P1/P2 define ``Influencer``
    and P3 retrieves disciples of harpsichord composers at least
    ``min_generations`` generations back."""
    p1, p2 = influencer_rules()
    p3 = rule(
        "Answer",
        spj(
            [arc(INFLUENCER, i=".")],
            where=and_(
                eq(
                    path("i", "master", "works", "instruments", "name"),
                    const(instrument),
                ),
                ge(path("i", "gen"), const(min_generations)),
            ),
            select=out(name=path("i", "disciple", "name")),
        ),
    )
    return query(p1, p2, p3)


def join_push_query(composer: str = "Bach") -> QueryGraph:
    """The Section 4.5 query: "the composers that were influenced by the
    masters of Bach" — answered by a *join* between ``Influencer`` and
    ``Composer`` (``Influencer.master = Composer.master`` with
    ``Composer.name = 'Bach'``), selective enough that pushing the join
    through the recursion pays off."""
    p1, p2 = influencer_rules()
    p3 = rule(
        "Answer",
        spj(
            [arc(INFLUENCER, i="."), arc("Composer", c=".")],
            where=and_(
                eq(path("i", "master"), path("c", "master")),
                eq(path("c", "name"), const(composer)),
            ),
            select=out(name=path("i", "disciple", "name")),
        ),
    )
    return query(p1, p2, p3)


def chain_join_query(joins: int, dense: bool = False) -> QueryGraph:
    """A master-chain query with ``joins`` explicit joins:
    c1.master = c0, c2.master = c1, ..., anchored at Bach.

    ``dense=True`` adds skip-level comparison predicates so arcs become
    pairwise joinable — a richer join-order space, which is what makes
    exhaustive enumeration blow up."""
    arcs = [arc("Composer", **{f"c{i}": "."}) for i in range(joins + 1)]
    conjuncts = [eq(path("c0", "name"), const("Bach"))]
    for i in range(1, joins + 1):
        conjuncts.append(eq(path(f"c{i}", "master"), var(f"c{i-1}")))
    if dense:
        for i in range(2, joins + 1):
            conjuncts.append(
                ge(path(f"c{i}", "birthyear"), path(f"c{i-2}", "birthyear"))
            )
    node = spj(
        arcs,
        where=and_(*conjuncts),
        select=out(name=path(f"c{joins}", "name")),
    )
    return query(rule("Answer", node))
