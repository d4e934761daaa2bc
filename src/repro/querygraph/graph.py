"""Query graphs (Section 2.2).

A query graph is a set ``Q = {(Name <- p)}`` of *rules*: each rule
stores the output of a predicate node ``p`` into a name node ``Name``.
A predicate node ``SPJ(In, pred, outproj)`` has incoming arcs (name
node + tree label), one Boolean predicate, and an output projection.

After the ``rewrite`` optimization step, a rule's right-hand side may
also be a :class:`UnionNode` or :class:`FixNode` — those operators are
not explicit in the original graph (Section 4.2).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.errors import QueryModelError
from repro.querygraph.predicates import (
    Expr,
    PathRef,
    Predicate,
    TruePredicate,
)
from repro.querygraph.tree_labels import TreeLabel

__all__ = [
    "Arc",
    "OutputField",
    "OutputSpec",
    "SPJNode",
    "UnionNode",
    "FixNode",
    "GraphNode",
    "Rule",
    "QueryGraph",
]


class Arc:
    """An incoming arc of a predicate node: ``(Name, tree)``."""

    __slots__ = ("name", "tree")

    def __init__(self, name: str, tree: TreeLabel) -> None:
        self.name = name
        self.tree = tree

    def variables(self) -> List[str]:
        return self.tree.variables()

    def __repr__(self) -> str:  # pragma: no cover - convenience
        return f"({self.name}, {self.tree!r})"


class OutputField:
    """One field of an output projection: ``name: expr``."""

    __slots__ = ("name", "expr")

    def __init__(self, name: str, expr: Expr) -> None:
        self.name = name
        self.expr = expr

    def __repr__(self) -> str:  # pragma: no cover - convenience
        return f"{self.name}: {self.expr!r}"


class OutputSpec:
    """The output projection of a predicate node (the outgoing-arc tree).

    We represent the outgoing arc's tree label in executable form: a
    list of named fields computed from the incoming arcs' variables.
    """

    __slots__ = ("fields",)

    def __init__(self, fields: Sequence[OutputField]) -> None:
        names = [field.name for field in fields]
        if len(set(names)) != len(names):
            raise QueryModelError(f"duplicate output fields in {names}")
        self.fields: Tuple[OutputField, ...] = tuple(fields)

    @classmethod
    def of(cls, **fields: Expr) -> "OutputSpec":
        return cls([OutputField(name, expr) for name, expr in fields.items()])

    def field(self, name: str) -> OutputField:
        for field in self.fields:
            if field.name == name:
                return field
        raise QueryModelError(f"no output field {name!r}")

    def has_field(self, name: str) -> bool:
        return any(field.name == name for field in self.fields)

    def field_names(self) -> List[str]:
        return [field.name for field in self.fields]

    def variables(self) -> Set[str]:
        result: Set[str] = set()
        for field in self.fields:
            result |= field.expr.variables()
        return result

    def __repr__(self) -> str:  # pragma: no cover - convenience
        inner = ", ".join(repr(field) for field in self.fields)
        return f"[{inner}]"


class SPJNode:
    """A predicate node: ``SPJ(In, pred, outproj)``."""

    __slots__ = ("inputs", "predicate", "output")

    def __init__(
        self,
        inputs: Sequence[Arc],
        predicate: Predicate,
        output: OutputSpec,
    ) -> None:
        if not inputs:
            raise QueryModelError("a predicate node needs at least one input arc")
        self.inputs: Tuple[Arc, ...] = tuple(inputs)
        self.predicate = predicate
        self.output = output
        self._check_variables()

    def _check_variables(self) -> None:
        bound: Set[str] = set()
        for arc in self.inputs:
            for variable in arc.variables():
                if variable in bound:
                    raise QueryModelError(
                        f"variable {variable!r} bound by two arcs"
                    )
                bound.add(variable)
        free = (self.predicate.variables() | self.output.variables()) - bound
        if free:
            raise QueryModelError(
                f"unbound variables in predicate node: {sorted(free)}"
            )

    def input_names(self) -> List[str]:
        return [arc.name for arc in self.inputs]

    def arcs_on(self, name: str) -> List[Arc]:
        return [arc for arc in self.inputs if arc.name == name]

    def binding_arc(self, variable: str) -> Arc:
        for arc in self.inputs:
            if variable in arc.variables():
                return arc
        raise QueryModelError(f"variable {variable!r} bound by no arc")

    def referenced_names(self) -> Set[str]:
        return {arc.name for arc in self.inputs}

    def __repr__(self) -> str:  # pragma: no cover - convenience
        arcs = ", ".join(repr(arc) for arc in self.inputs)
        return f"SPJ({{{arcs}}}, {self.predicate!r}, {self.output!r})"


class UnionNode:
    """Explicit union of predicate nodes feeding the same name node.

    Generated by the ``union`` rewriting action (Section 4.2)."""

    __slots__ = ("parts",)

    def __init__(self, parts: Sequence["GraphNode"]) -> None:
        if len(parts) < 2:
            raise QueryModelError("Union requires at least two parts")
        self.parts: Tuple[GraphNode, ...] = tuple(parts)

    def referenced_names(self) -> Set[str]:
        result: Set[str] = set()
        for part in self.parts:
            result |= part.referenced_names()
        return result

    def __repr__(self) -> str:  # pragma: no cover - convenience
        inner = ", ".join(repr(part) for part in self.parts)
        return f"Union({inner})"


class FixNode:
    """Explicit fixpoint: ``Fix(Name, p)``.

    Generated by the ``fixpoint`` rewriting action when
    ``fixpointRecursion(Name)`` holds (Section 4.2)."""

    __slots__ = ("name", "body")

    def __init__(self, name: str, body: "GraphNode") -> None:
        self.name = name
        self.body = body

    def referenced_names(self) -> Set[str]:
        return self.body.referenced_names() - {self.name}

    def __repr__(self) -> str:  # pragma: no cover - convenience
        return f"Fix({self.name}, {self.body!r})"


GraphNode = Union[SPJNode, UnionNode, FixNode]


class Rule:
    """One rule ``Name <- p`` of a query graph."""

    __slots__ = ("name", "node")

    def __init__(self, name: str, node: GraphNode) -> None:
        self.name = name
        self.node = node

    def __repr__(self) -> str:  # pragma: no cover - convenience
        return f"{self.name} <- {self.node!r}"


class QueryGraph:
    """A query graph ``Q = {(Name <- p)_i}`` with a distinguished answer.

    ``base_names`` (derived) are name nodes with no producing rule —
    they refer to stored classes/relations of the conceptual schema.
    """

    def __init__(self, rules: Sequence[Rule], answer: str = "Answer") -> None:
        if not rules:
            raise QueryModelError("a query graph needs at least one rule")
        self.rules: List[Rule] = list(rules)
        self.answer = answer
        if not self.producers_of(answer):
            raise QueryModelError(
                f"no rule produces the answer name node {answer!r}"
            )

    # -- structure --------------------------------------------------------------

    def producers_of(self, name: str) -> List[Rule]:
        return [rule for rule in self.rules if rule.name == name]

    def produced_names(self) -> List[str]:
        seen: Set[str] = set()
        ordered: List[str] = []
        for rule in self.rules:
            if rule.name not in seen:
                seen.add(rule.name)
                ordered.append(rule.name)
        return ordered

    def referenced_names(self) -> Set[str]:
        result: Set[str] = set()
        for rule in self.rules:
            result |= rule.node.referenced_names()
        return result

    def base_names(self) -> Set[str]:
        """Name nodes with no producing rule: stored extensions."""
        return self.referenced_names() - set(self.produced_names())

    def replace_rules(self, name: str, replacement: Rule) -> None:
        """Replace all rules producing ``name`` by one rule (used by the
        ``union`` action)."""
        self.rules = [rule for rule in self.rules if rule.name != name]
        self.rules.append(replacement)

    def replace_rule(self, old: Rule, new: Rule) -> None:
        index = self.rules.index(old)
        self.rules[index] = new

    # -- dependency analysis -------------------------------------------------------

    def depends_on(self, name: str) -> Set[str]:
        """All names reachable from ``name`` through producing rules."""
        reached: Set[str] = set()
        frontier = [name]
        while frontier:
            current = frontier.pop()
            for rule in self.producers_of(current):
                for referenced in rule.node.referenced_names():
                    if referenced not in reached:
                        reached.add(referenced)
                        frontier.append(referenced)
        return reached

    def is_recursive_name(self, name: str) -> bool:
        """True when ``name`` depends (transitively) on itself."""
        return name in self.depends_on(name)

    def recursive_names(self) -> List[str]:
        return [n for n in self.produced_names() if self.is_recursive_name(n)]

    def stratification_order(self) -> List[str]:
        """Produced names in a bottom-up evaluation order.

        Names that only depend on base names come first; mutually
        recursive names form their own stratum and appear together (in
        first-occurrence order).  Raises on nothing — recursion is
        allowed; only the relative order of *distinct* strata matters.
        """
        produced = self.produced_names()
        order: List[str] = []
        placed: Set[str] = set()
        remaining = list(produced)
        while remaining:
            progressed = False
            for name in list(remaining):
                dependencies = {
                    d
                    for d in self.depends_on(name)
                    if d in produced and d != name and name not in self.depends_on(d)
                }
                if dependencies <= placed:
                    order.append(name)
                    placed.add(name)
                    remaining.remove(name)
                    progressed = True
            if not progressed:
                # Mutually recursive residue: emit in declaration order.
                order.extend(remaining)
                break
        return order

    def __repr__(self) -> str:  # pragma: no cover - convenience
        inner = "; ".join(repr(rule) for rule in self.rules)
        return f"QueryGraph[{self.answer}]({inner})"
