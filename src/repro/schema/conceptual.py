"""Conceptual schema definitions: classes, relations, attributes, methods.

This mirrors Section 2.1 of the paper.  The conceptual model deals with
*classes* (instances are objects, carry identity) and *relations*
(instances are values).  An attribute may be declared the ``inverse`` of
another attribute (Composition.author inverse of Composer.works), and a
method is modelled as a *computed attribute* with an evaluation cost —
the key reason the paper argues selections may be expensive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import SchemaError
from repro.schema.types import (
    ClassRef,
    ListType,
    SetType,
    TupleType,
    Type,
    is_collection,
    element_type,
)

__all__ = [
    "Attribute",
    "Method",
    "ClassDef",
    "RelationDef",
    "InversePair",
]


@dataclass(frozen=True)
class InversePair:
    """Declares ``owner.attribute`` to be the inverse of ``other.other_attribute``."""

    other_class: str
    other_attribute: str


@dataclass
class Attribute:
    """A stored attribute of a class or relation.

    ``type`` is a conceptual :class:`~repro.schema.types.Type`; when it
    is a :class:`ClassRef` (or a collection of one) the attribute is a
    *reference* attribute and induces an implicit join.
    """

    name: str
    type: Type
    inverse_of: Optional[InversePair] = None

    def referenced_class(self) -> Optional[str]:
        """Name of the referenced class, or None for value attributes."""
        target = self.type
        if is_collection(target):
            target = element_type(target)
        if isinstance(target, ClassRef):
            return target.name
        return None

    def is_multivalued(self) -> bool:
        return is_collection(self.type)


@dataclass
class Method:
    """A method modelled as a *computed attribute*.

    ``compute`` receives the owning object's attribute dictionary and
    returns the computed value.  ``eval_weight`` scales the CPU cost the
    cost model charges per invocation relative to evaluating a plain
    comparison predicate: methods can be arbitrarily expensive, which is
    why heuristics that blindly push method-invoking selections through
    recursion fail.
    """

    name: str
    result_type: Type
    compute: Callable[[Dict[str, object]], object]
    eval_weight: float = 1.0


class _TypedDefinition:
    """Shared implementation for classes and relations."""

    def __init__(
        self,
        name: str,
        attributes: Iterable[Attribute],
        methods: Iterable[Method] = (),
    ) -> None:
        self.name = name
        self.attributes: Dict[str, Attribute] = {}
        for attribute in attributes:
            if attribute.name in self.attributes:
                raise SchemaError(
                    f"duplicate attribute {attribute.name!r} on {name!r}"
                )
            self.attributes[attribute.name] = attribute
        self.methods: Dict[str, Method] = {}
        for method in methods:
            if method.name in self.attributes or method.name in self.methods:
                raise SchemaError(
                    f"duplicate member {method.name!r} on {name!r}"
                )
            self.methods[method.name] = method

    def own_attribute(self, name: str) -> Optional[Attribute]:
        return self.attributes.get(name)

    def own_method(self, name: str) -> Optional[Method]:
        return self.methods.get(name)

    def tuple_type(self) -> TupleType:
        """The tuple type induced by the stored attributes."""
        return TupleType({a.name: a.type for a in self.attributes.values()})

    def __repr__(self) -> str:  # pragma: no cover - convenience
        return f"{type(self).__name__}({self.name!r})"


class ClassDef(_TypedDefinition):
    """A class of the conceptual schema.

    ``isa`` names the (single) superclass, as in
    ``class Composer isa Person``.  Attribute and method lookup through
    the hierarchy is performed by the :class:`~repro.schema.catalog.Catalog`,
    which owns the full name space.
    """

    def __init__(
        self,
        name: str,
        attributes: Iterable[Attribute],
        methods: Iterable[Method] = (),
        isa: Optional[str] = None,
    ) -> None:
        super().__init__(name, attributes, methods)
        self.isa = isa


class RelationDef(_TypedDefinition):
    """A relation of the conceptual schema (instances are values).

    Relations have no identity and no inheritance; they are the natural
    type for views such as ``Influencer`` in Section 2.3.
    """

    def __init__(
        self,
        name: str,
        attributes: Iterable[Attribute],
        methods: Iterable[Method] = (),
    ) -> None:
        super().__init__(name, attributes, methods)
