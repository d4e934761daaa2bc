"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError`, so a
caller can catch one type to handle any library failure.  Sub-hierarchies
mirror the package layout: schema errors, query-model errors, physical
storage errors, planning/optimization errors, execution errors and
language (parse) errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


# ---------------------------------------------------------------------------
# Conceptual schema
# ---------------------------------------------------------------------------

class SchemaError(ReproError):
    """A conceptual schema is malformed or used inconsistently."""


class UnknownClassError(SchemaError):
    """A class or relation name is not registered in the catalog."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown class or relation: {name!r}")
        self.name = name


class UnknownAttributeError(SchemaError):
    """An attribute is not defined (directly or by inheritance) on a type."""

    def __init__(self, owner: str, attribute: str) -> None:
        super().__init__(f"type {owner!r} has no attribute {attribute!r}")
        self.owner = owner
        self.attribute = attribute


class TypeCheckError(SchemaError):
    """A value does not conform to its declared conceptual type."""


class CyclicInheritanceError(SchemaError):
    """The ``isa`` hierarchy contains a cycle."""


# ---------------------------------------------------------------------------
# Query model
# ---------------------------------------------------------------------------

class QueryModelError(ReproError):
    """A query graph or one of its parts is malformed."""


class InvalidPredicateError(QueryModelError):
    """A Boolean predicate is structurally invalid for its context."""


# ---------------------------------------------------------------------------
# Physical schema / storage
# ---------------------------------------------------------------------------

class StorageError(ReproError):
    """The simulated object store was used incorrectly."""


class UnknownEntityError(StorageError):
    """An atomic physical entity name is not in the physical schema."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown physical entity: {name!r}")
        self.name = name


class UnknownIndexError(StorageError):
    """A selection or path index is not in the physical schema."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown index: {name!r}")
        self.name = name


class OidError(StorageError):
    """An oid does not resolve to a stored object."""

    def __init__(self, oid: object) -> None:
        super().__init__(f"dangling or foreign oid: {oid!r}")
        self.oid = oid


# ---------------------------------------------------------------------------
# Plans / optimization
# ---------------------------------------------------------------------------

class PlanError(ReproError):
    """A processing tree is structurally invalid."""


class OptimizationError(ReproError):
    """The optimizer could not produce a plan for a query graph."""


class CostModelError(ReproError):
    """The cost model was asked to cost an unsupported construct."""


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

class ExecutionError(ReproError):
    """A plan failed while being evaluated against the store."""


class FixpointLimitError(ExecutionError):
    """A semi-naive fixpoint exceeded the engine's iteration cap.

    Raised instead of looping unbounded on pathological cyclic data
    (e.g. a computed field growing along a cyclic reference chain).
    """

    def __init__(self, name: str, limit: int) -> None:
        super().__init__(
            f"Fix({name}) exceeded {limit} iterations; the recursion may "
            "be divergent (e.g. a computed field growing along a cyclic "
            "reference chain). Raise Engine(max_fix_iterations=...) if the "
            "recursion is legitimately this deep."
        )
        self.name = name
        self.limit = limit


class ExecutionCancelled(ExecutionError):
    """Plan evaluation was cancelled through a cancellation token."""


class ExecutionTimeout(ExecutionCancelled):
    """Plan evaluation exceeded its per-query deadline."""


# ---------------------------------------------------------------------------
# Query service
# ---------------------------------------------------------------------------

class ServiceError(ReproError):
    """Base class for query-service failures."""


class AdmissionError(ServiceError):
    """A request was refused by admission control.

    ``reason`` is ``"over_budget"`` (estimated cost exceeds the
    configured budget) or ``"queue_full"`` (no execution slot became
    free within the queue timeout).
    """

    def __init__(self, message: str, reason: str) -> None:
        super().__init__(message)
        self.reason = reason


class ProtocolError(ServiceError):
    """A malformed request or response on the service wire protocol."""


# ---------------------------------------------------------------------------
# Query language
# ---------------------------------------------------------------------------

class LanguageError(ReproError):
    """Base class for query-language front-end errors."""


class LexError(LanguageError):
    """The query text contains an unrecognizable token."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class ParseError(LanguageError):
    """The query text is not well-formed."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class CompileError(LanguageError):
    """A parsed query cannot be compiled onto the schema."""
