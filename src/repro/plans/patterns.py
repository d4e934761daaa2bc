"""Pattern-location utilities over processing trees.

Transformation actions (Section 4.1) have the form
``action: F | constraint -> G`` where ``F`` matches a *subpart* of the
granule.  Because PTs are functional terms, matching a subpart means
locating a subtree together with its context; this module provides the
zipper (:class:`PlanPath`) that actions use to splice rewritten
subtrees back into the whole plan, plus generic saturation rewriting.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    Type,
)

from repro.plans.nodes import (
    EJ,
    HASH_JOIN,
    IJ,
    NESTED_LOOP,
    PIJ,
    EntityLeaf,
    PlanNode,
    Proj,
    Sel,
)
from repro.querygraph.predicates import (
    Comparison,
    Expr,
    PathRef,
    Predicate,
    conjuncts,
)

if TYPE_CHECKING:
    from repro.physical.schema import PhysicalSchema

__all__ = [
    "PlanPath",
    "find_all",
    "paths_to",
    "rewrite_once",
    "rewrite_saturate",
    "consumed_variables",
    "equality_join_key",
    "scan_join_algorithm",
    "index_join_leaf",
    "index_join_possible",
]


class PlanPath:
    """A subtree plus the path of (ancestor, child-index) steps to it.

    ``rebuild(new_subtree)`` reconstructs the full plan with the focus
    replaced — the splice operation every transformation action needs.
    """

    def __init__(self, root: PlanNode, steps: List[Tuple[PlanNode, int]]) -> None:
        self.root = root
        self.steps = steps

    @property
    def focus(self) -> PlanNode:
        if not self.steps:
            return self.root
        parent, index = self.steps[-1]
        return parent.children[index]

    def ancestors(self) -> List[PlanNode]:
        """Nodes strictly above the focus, outermost first."""
        return [parent for parent, _index in self.steps]

    def rebuild(self, new_subtree: PlanNode) -> PlanNode:
        """The full plan with the focus replaced by ``new_subtree``."""
        current = new_subtree
        for parent, index in reversed(self.steps):
            children = list(parent.children)
            children[index] = current
            current = parent.with_children(children)
        return current

    def __repr__(self) -> str:  # pragma: no cover - convenience
        chain = " > ".join(p.label() for p in self.ancestors())
        return f"PlanPath({chain} > {self.focus.label()})"


def paths_to(
    root: PlanNode, wanted: Callable[[PlanNode], bool]
) -> Iterator[PlanPath]:
    """All paths from ``root`` to nodes satisfying ``wanted`` (pre-order)."""

    def walk(
        node: PlanNode, steps: List[Tuple[PlanNode, int]]
    ) -> Iterator[PlanPath]:
        if wanted(node):
            yield PlanPath(root, list(steps))
        for index, child in enumerate(node.children):
            steps.append((node, index))
            yield from walk(child, steps)
            steps.pop()

    yield from walk(root, [])


def find_all(root: PlanNode, node_type: Type[PlanNode]) -> List[PlanNode]:
    """All nodes of a given type in pre-order."""
    return [node for node in root.walk() if isinstance(node, node_type)]


def rewrite_once(
    root: PlanNode, fn: Callable[[PlanNode], Optional[PlanNode]]
) -> Tuple[PlanNode, bool]:
    """Apply ``fn`` at the first (pre-order) node where it fires.

    ``fn`` returns a replacement subtree or None.  Returns the new plan
    and whether a rewrite happened.
    """
    for path in paths_to(root, lambda _node: True):
        replacement = fn(path.focus)
        if replacement is not None and replacement != path.focus:
            return path.rebuild(replacement), True
    return root, False


def consumed_variables(root: PlanNode) -> Set[str]:
    """Every variable any operator in the plan actually *reads* —
    predicate variables, projection inputs, implicit-join sources.

    Used by the engine and the cost model to skip dereferencing
    path-index targets nobody consumes: a PIJ binds one variable per
    traversed class, but a query that only filters on the terminal
    never needs the intermediate objects fetched (the [MS86] payoff).
    """
    consumed: Set[str] = set()
    for node in root.walk():
        if isinstance(node, Sel):
            consumed |= node.predicate.variables()
        elif isinstance(node, Proj):
            consumed |= node.fields.variables()
        elif isinstance(node, IJ):
            consumed.add(node.source.var)
        elif isinstance(node, PIJ):
            consumed.add(node.source.var)
        elif isinstance(node, EJ):
            consumed |= node.predicate.variables()
    return consumed


def equality_join_key(
    predicate: Predicate,
    inner_var: str,
    outer_vars: Set[str],
    usable: Optional[Callable[[str], bool]] = None,
) -> Optional[Tuple[Expr, str]]:
    """``(outer_expr, attr)`` of the first conjunct of ``predicate``
    that reads ``outer_expr = inner_var.attr`` (either operand order)
    with ``outer_expr`` over ``outer_vars`` only, or None.

    ``usable(attr)`` narrows the match further — the index-join tests
    pass "the inner entity has a selection index on ``attr``".
    """
    for conjunct in conjuncts(predicate):
        if not isinstance(conjunct, Comparison) or conjunct.op != "=":
            continue
        for inner, outer in (
            (conjunct.right, conjunct.left),
            (conjunct.left, conjunct.right),
        ):
            if (
                isinstance(inner, PathRef)
                and inner.var == inner_var
                and len(inner.attrs) == 1
                and outer.variables() <= outer_vars
                and (usable is None or usable(inner.attrs[0]))
            ):
                return outer, inner.attrs[0]
    return None


def scan_join_algorithm(
    predicate: Predicate, right: PlanNode, left_vars: Set[str]
) -> str:
    """The algorithm of an ``EJ(left, right, predicate)`` that reads
    its inner by scanning it: ``HASH_JOIN`` when the predicate has an
    equality key on an inner variable, else ``NESTED_LOOP``.  The hash
    join prices the same evaluations as the nested loop and reads the
    inner once per open instead of once per outer tuple, so it is never
    the costlier of the two and is not offered beside it."""
    for inner_var in right.output_vars():
        if equality_join_key(predicate, inner_var, left_vars) is not None:
            return HASH_JOIN
    return NESTED_LOOP


def index_join_leaf(right: PlanNode) -> Optional[EntityLeaf]:
    """The entity an index join would probe: ``right`` itself or the
    child of a selection around it; None for any other inner operand."""
    if isinstance(right, EntityLeaf):
        return right
    if isinstance(right, Sel) and isinstance(right.child, EntityLeaf):
        return right.child
    return None


def index_join_possible(
    right: PlanNode,
    predicate: Predicate,
    left_vars: Set[str],
    physical: PhysicalSchema,
) -> bool:
    """Whether an EJ(left, right, predicate) admits the index-join
    algorithm: the inner is a (possibly selected) entity with a
    selection index on an equality-joined attribute."""
    leaf = index_join_leaf(right)
    if leaf is None:
        return False
    return (
        equality_join_key(
            predicate,
            leaf.var,
            left_vars,
            lambda attr: physical.has_selection_index(leaf.entity, attr),
        )
        is not None
    )


def rewrite_saturate(
    root: PlanNode,
    fn: Callable[[PlanNode], Optional[PlanNode]],
    max_steps: int = 10_000,
) -> PlanNode:
    """Apply ``fn`` up to saturation (the irrevocable strategies of
    Section 4.2 apply their actions this way)."""
    current = root
    for _step in range(max_steps):
        current, changed = rewrite_once(current, fn)
        if not changed:
            return current
    raise RuntimeError("rewrite_saturate did not converge")
