"""Boolean predicates and value expressions for query graphs and plans.

Predicates appear on predicate nodes of query graphs and on ``Sel`` /
``EJ`` nodes of processing trees.  They are Boolean expressions over
*path references* rooted at variables (``x.works.instruments.name``),
constants and function applications (the paper's method calls /
computed attributes, e.g. ``add1gen(i.gen)``).

The optimizer manipulates predicates as conjunct lists: the ``sel`` and
``join`` actions of Section 4.4 "consume" conjuncts one at a time, and
pushability analysis (Section 4.5) inspects the variables and paths a
conjunct references.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import InvalidPredicateError

__all__ = [
    "Expr",
    "Const",
    "PathRef",
    "FunctionApp",
    "Arith",
    "Predicate",
    "Comparison",
    "And",
    "Or",
    "Not",
    "TruePredicate",
    "conjuncts",
    "conjoin",
    "COMPARISON_OPS",
]


# ---------------------------------------------------------------------------
# Value expressions
# ---------------------------------------------------------------------------

class Expr:
    """Abstract base of value expressions."""

    def variables(self) -> Set[str]:
        raise NotImplementedError

    def paths(self) -> List["PathRef"]:
        """All path references occurring in the expression."""
        raise NotImplementedError

    def substitute(self, mapping: Dict[str, "Expr"]) -> "Expr":
        """Replace variables by expressions (used by provenance analysis)."""
        raise NotImplementedError


class Const(Expr):
    """A literal constant."""

    __slots__ = ("value",)

    def __init__(self, value: object) -> None:
        self.value = value

    def variables(self) -> Set[str]:
        return set()

    def paths(self) -> List["PathRef"]:
        return []

    def substitute(self, mapping: Dict[str, Expr]) -> Expr:
        return self

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Const) and other.value == self.value

    def __hash__(self) -> int:
        return hash(("const", self.value))

    def __repr__(self) -> str:
        return repr(self.value)


class PathRef(Expr):
    """A path expression rooted at a variable: ``var.a1.a2...an``.

    An empty attribute tuple denotes the variable itself.
    """

    __slots__ = ("var", "attrs")

    def __init__(self, var: str, attrs: Sequence[str] = ()) -> None:
        self.var = var
        self.attrs: Tuple[str, ...] = tuple(attrs)

    def variables(self) -> Set[str]:
        return {self.var}

    def paths(self) -> List["PathRef"]:
        return [self]

    def substitute(self, mapping: Dict[str, Expr]) -> Expr:
        replacement = mapping.get(self.var)
        if replacement is None:
            return self
        if isinstance(replacement, PathRef):
            return PathRef(replacement.var, replacement.attrs + self.attrs)
        if not self.attrs:
            return replacement
        raise InvalidPredicateError(
            f"cannot apply path .{'.'.join(self.attrs)} to non-path "
            f"substitution for variable {self.var!r}"
        )

    def extend(self, *attrs: str) -> "PathRef":
        return PathRef(self.var, self.attrs + attrs)

    def dotted(self) -> str:
        return ".".join((self.var,) + self.attrs)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PathRef)
            and other.var == self.var
            and other.attrs == self.attrs
        )

    def __hash__(self) -> int:
        return hash(("path", self.var, self.attrs))

    def __repr__(self) -> str:
        return self.dotted()


class FunctionApp(Expr):
    """An application of a named function/method to argument expressions.

    ``fn`` optionally carries the Python callable so expressions are
    executable; ``eval_weight`` scales the CPU cost the cost model
    charges per invocation (methods may be expensive — the paper's core
    motivation).
    """

    __slots__ = ("name", "args", "fn", "eval_weight")

    def __init__(
        self,
        name: str,
        args: Sequence[Expr],
        fn: Optional[Callable[..., object]] = None,
        eval_weight: float = 1.0,
    ) -> None:
        self.name = name
        self.args: Tuple[Expr, ...] = tuple(args)
        self.fn = fn
        self.eval_weight = eval_weight

    def variables(self) -> Set[str]:
        result: Set[str] = set()
        for arg in self.args:
            result |= arg.variables()
        return result

    def paths(self) -> List[PathRef]:
        result: List[PathRef] = []
        for arg in self.args:
            result.extend(arg.paths())
        return result

    def substitute(self, mapping: Dict[str, Expr]) -> Expr:
        return FunctionApp(
            self.name,
            [arg.substitute(mapping) for arg in self.args],
            self.fn,
            self.eval_weight,
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FunctionApp)
            and other.name == self.name
            and other.args == self.args
        )

    def __hash__(self) -> int:
        return hash(("fn", self.name, self.args))

    def __repr__(self) -> str:
        inner = ", ".join(repr(arg) for arg in self.args)
        return f"{self.name}({inner})"


_ARITH_FNS: Dict[str, Callable[[object, object], object]] = {
    "+": lambda a, b: a + b,  # type: ignore[operator]
    "-": lambda a, b: a - b,  # type: ignore[operator]
    "*": lambda a, b: a * b,  # type: ignore[operator]
    "/": lambda a, b: a / b,  # type: ignore[operator]
}


class Arith(FunctionApp):
    """A binary arithmetic expression, e.g. ``i.gen + 1``."""

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        if op not in _ARITH_FNS:
            raise InvalidPredicateError(f"unknown arithmetic operator {op!r}")
        super().__init__(op, [left, right], _ARITH_FNS[op], eval_weight=0.0)
        self.op = op

    def __repr__(self) -> str:
        return f"({self.args[0]!r} {self.op} {self.args[1]!r})"


# ---------------------------------------------------------------------------
# Boolean predicates
# ---------------------------------------------------------------------------

COMPARISON_OPS: Dict[str, Callable[[object, object], bool]] = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,  # type: ignore[operator]
    "<=": lambda a, b: a <= b,  # type: ignore[operator]
    ">": lambda a, b: a > b,  # type: ignore[operator]
    ">=": lambda a, b: a >= b,  # type: ignore[operator]
}


class Predicate:
    """Abstract base of Boolean predicates."""

    def variables(self) -> Set[str]:
        raise NotImplementedError

    def paths(self) -> List[PathRef]:
        raise NotImplementedError

    def substitute(self, mapping: Dict[str, Expr]) -> "Predicate":
        raise NotImplementedError


class TruePredicate(Predicate):
    """The always-true predicate (an empty conjunction)."""

    def variables(self) -> Set[str]:
        return set()

    def paths(self) -> List[PathRef]:
        return []

    def substitute(self, mapping: Dict[str, Expr]) -> Predicate:
        return self

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TruePredicate)

    def __hash__(self) -> int:
        return hash("true")

    def __repr__(self) -> str:
        return "true"


class Comparison(Predicate):
    """``left op right`` where op is one of ``=,!=,<,<=,>,>=``."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        if op == "==":
            op = "="
        if op not in COMPARISON_OPS:
            raise InvalidPredicateError(f"unknown comparison operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def variables(self) -> Set[str]:
        return self.left.variables() | self.right.variables()

    def paths(self) -> List[PathRef]:
        return self.left.paths() + self.right.paths()

    def substitute(self, mapping: Dict[str, Expr]) -> Predicate:
        return Comparison(
            self.op, self.left.substitute(mapping), self.right.substitute(mapping)
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Comparison)
            and other.op == self.op
            and other.left == self.left
            and other.right == self.right
        )

    def __hash__(self) -> int:
        return hash(("cmp", self.op, self.left, self.right))

    def __repr__(self) -> str:
        return f"{self.left!r} {self.op} {self.right!r}"


class And(Predicate):
    """Conjunction of two or more predicates."""

    __slots__ = ("parts",)

    def __init__(self, *parts: Predicate) -> None:
        flattened: List[Predicate] = []
        for part in parts:
            if isinstance(part, And):
                flattened.extend(part.parts)
            elif isinstance(part, TruePredicate):
                continue
            else:
                flattened.append(part)
        if len(flattened) < 1:
            raise InvalidPredicateError("And requires at least one operand")
        self.parts: Tuple[Predicate, ...] = tuple(flattened)

    def variables(self) -> Set[str]:
        result: Set[str] = set()
        for part in self.parts:
            result |= part.variables()
        return result

    def paths(self) -> List[PathRef]:
        result: List[PathRef] = []
        for part in self.parts:
            result.extend(part.paths())
        return result

    def substitute(self, mapping: Dict[str, Expr]) -> Predicate:
        return And(*[part.substitute(mapping) for part in self.parts])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, And) and other.parts == self.parts

    def __hash__(self) -> int:
        return hash(("and", self.parts))

    def __repr__(self) -> str:
        return " and ".join(
            f"({part!r})" if isinstance(part, Or) else repr(part)
            for part in self.parts
        )


class Or(Predicate):
    """Disjunction of two or more predicates."""

    __slots__ = ("parts",)

    def __init__(self, *parts: Predicate) -> None:
        flattened: List[Predicate] = []
        for part in parts:
            if isinstance(part, Or):
                flattened.extend(part.parts)
            else:
                flattened.append(part)
        if len(flattened) < 2:
            raise InvalidPredicateError("Or requires at least two operands")
        self.parts = tuple(flattened)

    def variables(self) -> Set[str]:
        result: Set[str] = set()
        for part in self.parts:
            result |= part.variables()
        return result

    def paths(self) -> List[PathRef]:
        result: List[PathRef] = []
        for part in self.parts:
            result.extend(part.paths())
        return result

    def substitute(self, mapping: Dict[str, Expr]) -> Predicate:
        return Or(*[part.substitute(mapping) for part in self.parts])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Or) and other.parts == self.parts

    def __hash__(self) -> int:
        return hash(("or", self.parts))

    def __repr__(self) -> str:
        return " or ".join(repr(part) for part in self.parts)


class Not(Predicate):
    """Negation."""

    __slots__ = ("part",)

    def __init__(self, part: Predicate) -> None:
        self.part = part

    def variables(self) -> Set[str]:
        return self.part.variables()

    def paths(self) -> List[PathRef]:
        return self.part.paths()

    def substitute(self, mapping: Dict[str, Expr]) -> Predicate:
        return Not(self.part.substitute(mapping))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Not) and other.part == self.part

    def __hash__(self) -> int:
        return hash(("not", self.part))

    def __repr__(self) -> str:
        return f"not ({self.part!r})"


# ---------------------------------------------------------------------------
# Conjunct manipulation (the optimizer's working form)
# ---------------------------------------------------------------------------

def conjuncts(predicate: Predicate) -> List[Predicate]:
    """Split a predicate into its top-level conjuncts.

    ``TruePredicate`` yields the empty list; non-And predicates yield a
    singleton.  The ``sel``/``join`` actions of Section 4.4 consume this
    list element by element.
    """
    if isinstance(predicate, TruePredicate):
        return []
    if isinstance(predicate, And):
        return list(predicate.parts)
    return [predicate]


def conjoin(parts: Sequence[Predicate]) -> Predicate:
    """Rebuild a predicate from conjuncts (inverse of :func:`conjuncts`)."""
    remaining = [p for p in parts if not isinstance(p, TruePredicate)]
    if not remaining:
        return TruePredicate()
    if len(remaining) == 1:
        return remaining[0]
    return And(*remaining)
