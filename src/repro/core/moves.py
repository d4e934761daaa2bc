"""Local plan transformations ("moves") for the search strategies.

Randomized search ([IC90], Section 4.5: II) walks a neighbourhood
graph over plans and ``enum`` closes it; these moves define the edges:

* ``swap-join`` — commute the operands of an explicit join (a scanning
  join's cost is asymmetric);
* ``algorithm`` — switch an explicit join between its scanning form
  (hash when the predicate has an equality key, else nested loop) and
  index-join (when an applicable selection index exists);
* ``collapse`` / ``expand`` — replace an IJ chain by a PIJ over an
  existing path index, and back ("once a portion of the PT has been
  shifted, use an applicable index");
* ``push-filter`` — apply one ``filter`` push (selection/join through
  recursion); the inverse direction is reached by starting from the
  unpushed candidate, so the candidate set stays closed.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.core.transform import apply_filter, find_filter_sites
from repro.physical.schema import PhysicalSchema
from repro.plans.nodes import (
    EJ,
    IJ,
    INDEX_JOIN,
    PIJ,
    EntityLeaf,
    PlanNode,
)
from repro.plans.patterns import (
    PlanPath,
    index_join_possible,
    paths_to,
    scan_join_algorithm,
)
from repro.querygraph.predicates import PathRef

__all__ = ["neighbors", "index_join_possible"]


def neighbors(
    plan: PlanNode, physical: PhysicalSchema, extended: bool = False
) -> List[Tuple[str, PlanNode]]:
    """All plans one move away from ``plan``.

    ``extended=True`` additionally explores distributing union over
    join and the inverse factorization — the Section 5 open problem
    "not typically examined because of the undesirable increase in the
    search space", which this move-based formulation makes affordable.
    """
    result: List[Tuple[str, PlanNode]] = []
    result.extend(_join_moves(plan, physical))
    result.extend(_collapse_moves(plan, physical))
    result.extend(_expand_moves(plan))
    result.extend(_filter_moves(plan))
    if extended:
        result.extend(_union_distribution_moves(plan))
    return result


def _join_moves(
    plan: PlanNode, physical: PhysicalSchema
) -> Iterator[Tuple[str, PlanNode]]:
    for site in paths_to(plan, lambda n: isinstance(n, EJ)):
        node = site.focus
        assert isinstance(node, EJ)
        swapped = EJ(
            node.right,
            node.left,
            node.predicate,
            scan_join_algorithm(
                node.predicate, node.left, node.right.output_vars()
            ),
        )
        yield ("swap-join", site.rebuild(swapped))
        left_vars = node.left.output_vars()
        if node.algorithm != INDEX_JOIN and index_join_possible(
            node.right, node.predicate, left_vars, physical
        ):
            yield (
                "index-join",
                site.rebuild(
                    EJ(node.left, node.right, node.predicate, INDEX_JOIN)
                ),
            )
        if node.algorithm == INDEX_JOIN:
            algorithm = scan_join_algorithm(
                node.predicate, node.right, left_vars
            )
            yield (
                algorithm.replace("_", "-"),
                site.rebuild(
                    EJ(node.left, node.right, node.predicate, algorithm)
                ),
            )


def _collapse_moves(
    plan: PlanNode, physical: PhysicalSchema
) -> Iterator[Tuple[str, PlanNode]]:
    """collapse: IJ_p1(IJ_p2(N1, N2), N3) | existPathIndex(p2.p1)
                 -> PIJ_{p2.p1}(N1, N2, N3)   (generalized to runs >= 2)"""
    for site in paths_to(plan, lambda n: isinstance(n, IJ)):
        outer = site.focus
        assert isinstance(outer, IJ)
        run: List[IJ] = [outer]
        current = outer.child
        while isinstance(current, IJ) and current.out_var == run[-1].source.var:
            run.append(current)
            current = current.child
        # run is outermost-first; the chain in execution order is the
        # reverse.
        chain = list(reversed(run))
        for start in range(len(chain)):
            for end in range(start + 2, len(chain) + 1):
                hops = chain[start:end]
                if any(
                    hops[k].source.var != hops[k - 1].out_var
                    for k in range(1, len(hops))
                ):
                    continue
                attrs = tuple(h.source.attrs[-1] for h in hops)
                if physical.find_path_index(attrs) is None:
                    continue
                # The PIJ head is the object the index is rooted at:
                # the variable the first collapsed hop dereferences.
                pij = PIJ(
                    hops[0].child,
                    [EntityLeaf(h.target.entity, h.target.var) for h in hops],
                    list(attrs),
                    PathRef(hops[0].source.var, hops[0].source.attrs[:-1]),
                    [h.out_var for h in hops],
                )
                rebuilt = pij
                for hop in chain[end:]:
                    rebuilt = IJ(rebuilt, hop.target, hop.source, hop.out_var)
                yield (f"collapse[{'.'.join(attrs)}]", site.rebuild(rebuilt))


def _expand_moves(plan: PlanNode) -> Iterator[Tuple[str, PlanNode]]:
    for site in paths_to(plan, lambda n: isinstance(n, PIJ)):
        node = site.focus
        assert isinstance(node, PIJ)
        rebuilt: PlanNode = node.child
        for position, (target, out_var) in enumerate(
            zip(node.targets, node.out_vars)
        ):
            if position == 0:
                source = PathRef(
                    node.source.var,
                    node.source.attrs + (node.attributes[0],),
                )
            else:
                source = PathRef(
                    node.out_vars[position - 1], (node.attributes[position],)
                )
            rebuilt = IJ(rebuilt, target, source, out_var)
        yield (f"expand[{node.path_name}]", site.rebuild(rebuilt))


def _filter_moves(plan: PlanNode) -> Iterator[Tuple[str, PlanNode]]:
    for segment in find_filter_sites(plan):
        yield (segment.describe(), apply_filter(plan, segment))


def _union_distribution_moves(
    plan: PlanNode,
) -> Iterator[Tuple[str, PlanNode]]:
    """distribute: EJ(Union(a,b), c) -> Union(EJ(a,c), EJ(b,c))
       factorize:  Union(EJ(a,c), EJ(b,c)) -> EJ(Union(a,b), c)

    Distribution lets each union branch pick its own join strategy
    (e.g. an index join on one branch, a nested loop on the other);
    factorization shares one inner scan across branches.  Which one
    wins is a cost question — exactly why the paper proposes exploring
    it with the same cost-controlled machinery (Section 5)."""
    from repro.plans.nodes import UnionOp

    for site in paths_to(plan, lambda n: isinstance(n, EJ)):
        node = site.focus
        assert isinstance(node, EJ)
        if isinstance(node.left, UnionOp):
            distributed = UnionOp(
                EJ(node.left.left, node.right, node.predicate, node.algorithm),
                EJ(node.left.right, node.right, node.predicate, node.algorithm),
            )
            yield ("distribute-union-left", site.rebuild(distributed))
        if isinstance(node.right, UnionOp):
            distributed = UnionOp(
                EJ(node.left, node.right.left, node.predicate, node.algorithm),
                EJ(node.left, node.right.right, node.predicate, node.algorithm),
            )
            yield ("distribute-union-right", site.rebuild(distributed))
    for site in paths_to(plan, lambda n: isinstance(n, UnionOp)):
        node = site.focus
        assert isinstance(node, UnionOp)
        left, right = node.left, node.right
        if not (isinstance(left, EJ) and isinstance(right, EJ)):
            continue
        if left.predicate != right.predicate:
            continue
        if left.right == right.right:
            factored = EJ(
                UnionOp(left.left, right.left),
                left.right,
                left.predicate,
                left.algorithm,
            )
            yield ("factorize-union-left", site.rebuild(factored))
        if left.left == right.left:
            factored = EJ(
                left.left,
                UnionOp(left.right, right.right),
                left.predicate,
                left.algorithm,
            )
            yield ("factorize-union-right", site.rebuild(factored))
