"""The schema catalog: a registry of classes and relations.

The catalog owns the conceptual name space.  It resolves attribute and
method lookups through ``isa`` hierarchies, validates ``inverse``
declarations, checks for inheritance cycles, and resolves
dot-separated *path expressions* (``Composer.works.instruments.name``)
to the sequence of classes they traverse — the backbone of the
``translate`` optimization step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import (
    CyclicInheritanceError,
    SchemaError,
    UnknownAttributeError,
    UnknownClassError,
)
from repro.schema.conceptual import Attribute, ClassDef, Method, RelationDef
from repro.schema.types import ClassRef, Type, element_type, is_collection

__all__ = ["Catalog", "PathStep", "ResolvedPath"]

Definition = Union[ClassDef, RelationDef]


@dataclass(frozen=True)
class PathStep:
    """One hop of a resolved path expression.

    ``owner`` is the class/relation name the attribute is looked up on,
    ``attribute`` the attribute object, and ``target`` the name of the
    referenced class when the hop is an implicit join (None for the
    final atomic hop).
    """

    owner: str
    attribute: Attribute
    target: Optional[str]

    @property
    def multivalued(self) -> bool:
        return self.attribute.is_multivalued()


@dataclass(frozen=True)
class ResolvedPath:
    """A fully resolved path expression.

    ``steps`` contains one :class:`PathStep` per attribute in the path.
    ``result_type`` is the conceptual type of the path's value.
    ``classes`` lists the class names traversed, starting with the root
    class — this is the sequence a path index must span (Section 3,
    [MS86]).
    """

    root: str
    steps: Tuple[PathStep, ...]
    result_type: Type

    @property
    def classes(self) -> Tuple[str, ...]:
        names: List[str] = [self.root]
        for step in self.steps:
            if step.target is not None:
                names.append(step.target)
        return tuple(names)

    @property
    def attribute_names(self) -> Tuple[str, ...]:
        return tuple(step.attribute.name for step in self.steps)

    def dotted(self) -> str:
        return ".".join((self.root,) + self.attribute_names)

    def reference_hops(self) -> int:
        """Number of implicit joins needed to traverse the path."""
        return sum(1 for step in self.steps if step.target is not None)


class Catalog:
    """A validated registry of conceptual classes and relations."""

    def __init__(self) -> None:
        self._definitions: Dict[str, Definition] = {}

    # -- registration -----------------------------------------------------

    def add_class(self, class_def: ClassDef) -> ClassDef:
        self._register(class_def)
        return class_def

    def add_relation(self, relation_def: RelationDef) -> RelationDef:
        self._register(relation_def)
        return relation_def

    def _register(self, definition: Definition) -> None:
        if definition.name in self._definitions:
            raise SchemaError(f"duplicate definition of {definition.name!r}")
        self._definitions[definition.name] = definition

    # -- lookup -----------------------------------------------------------

    def get(self, name: str) -> Definition:
        try:
            return self._definitions[name]
        except KeyError:
            raise UnknownClassError(name) from None

    def __contains__(self, name: str) -> bool:
        return name in self._definitions

    def names(self) -> Iterator[str]:
        return iter(self._definitions)

    def classes(self) -> Iterator[ClassDef]:
        return (d for d in self._definitions.values() if isinstance(d, ClassDef))

    def relations(self) -> Iterator[RelationDef]:
        return (d for d in self._definitions.values() if isinstance(d, RelationDef))

    def is_class(self, name: str) -> bool:
        return isinstance(self._definitions.get(name), ClassDef)

    # -- inheritance ------------------------------------------------------

    def ancestry(self, name: str) -> List[str]:
        """Names from ``name`` up to the root of its ``isa`` chain."""
        chain: List[str] = []
        seen = set()
        current: Optional[str] = name
        while current is not None:
            if current in seen:
                raise CyclicInheritanceError(
                    f"isa cycle through {current!r}"
                )
            seen.add(current)
            definition = self.get(current)
            chain.append(current)
            current = definition.isa if isinstance(definition, ClassDef) else None
        return chain

    def is_subclass(self, name: str, ancestor: str) -> bool:
        return ancestor in self.ancestry(name)

    def subclasses(self, name: str) -> List[str]:
        """All registered classes with ``name`` in their ancestry."""
        return [
            class_def.name
            for class_def in self.classes()
            if name in self.ancestry(class_def.name)
        ]

    # -- attribute / method resolution -------------------------------------

    def attribute(self, owner: str, name: str) -> Attribute:
        """Resolve ``owner.name`` walking up the ``isa`` chain."""
        for ancestor in self.ancestry(owner):
            attribute = self.get(ancestor).own_attribute(name)
            if attribute is not None:
                return attribute
        raise UnknownAttributeError(owner, name)

    def method(self, owner: str, name: str) -> Optional[Method]:
        for ancestor in self.ancestry(owner):
            method = self.get(ancestor).own_method(name)
            if method is not None:
                return method
        return None

    def has_member(self, owner: str, name: str) -> bool:
        try:
            self.attribute(owner, name)
            return True
        except UnknownAttributeError:
            return self.method(owner, name) is not None

    def all_attributes(self, owner: str) -> Dict[str, Attribute]:
        """Own + inherited attributes; subclass definitions win."""
        merged: Dict[str, Attribute] = {}
        for ancestor in reversed(self.ancestry(owner)):
            merged.update(self.get(ancestor).attributes)
        return merged

    # -- path expressions ---------------------------------------------------

    def resolve_path(self, root: str, attributes: Sequence[str]) -> ResolvedPath:
        """Resolve a path expression ``root.a1.a2...an``.

        Each non-final attribute must be a reference attribute (possibly
        multivalued); the final attribute may be atomic, a method or a
        reference.  Methods may only appear as the final hop.
        """
        if not attributes:
            raise SchemaError("empty path expression")
        steps: List[PathStep] = []
        current = root
        result_type: Type
        for position, attribute_name in enumerate(attributes):
            is_last = position == len(attributes) - 1
            method = self.method(current, attribute_name)
            if method is not None:
                if not is_last:
                    raise SchemaError(
                        f"method {attribute_name!r} may only terminate a path"
                    )
                synthetic = Attribute(attribute_name, method.result_type)
                steps.append(PathStep(current, synthetic, None))
                result_type = method.result_type
                break
            attribute = self.attribute(current, attribute_name)
            target = attribute.referenced_class()
            if target is not None and target not in self._definitions:
                raise UnknownClassError(target)
            steps.append(PathStep(current, attribute, target))
            result_type = attribute.type
            if not is_last:
                if target is None:
                    raise SchemaError(
                        f"attribute {current}.{attribute_name} is atomic; "
                        f"cannot continue path with "
                        f"{'.'.join(attributes[position + 1:])!r}"
                    )
                current = target
        return ResolvedPath(root, tuple(steps), result_type)

    # -- validation ----------------------------------------------------------

    def validate(self) -> None:
        """Check referential integrity of the whole catalog.

        Verifies that every class reference resolves, that ``isa``
        chains are acyclic and point at classes, and that ``inverse``
        declarations are mutually consistent.
        """
        for definition in self._definitions.values():
            if isinstance(definition, ClassDef) and definition.isa is not None:
                parent = self.get(definition.isa)
                if not isinstance(parent, ClassDef):
                    raise SchemaError(
                        f"{definition.name!r} isa non-class {definition.isa!r}"
                    )
                self.ancestry(definition.name)  # raises on cycles
            for attribute in definition.attributes.values():
                referenced = attribute.referenced_class()
                if referenced is not None:
                    self.get(referenced)
                if attribute.inverse_of is not None:
                    self._check_inverse(definition, attribute)

    def _check_inverse(self, definition: Definition, attribute: Attribute) -> None:
        declared = attribute.inverse_of
        assert declared is not None
        other = self.attribute(declared.other_class, declared.other_attribute)
        other_target = other.referenced_class()
        if other_target is None or not self._compatible(
            other_target, definition.name
        ):
            raise SchemaError(
                f"inverse mismatch: {declared.other_class}."
                f"{declared.other_attribute} does not reference "
                f"{definition.name!r}"
            )

    def _compatible(self, name: str, other: str) -> bool:
        """True when one of the two classes is an ancestor of the other."""
        return self.is_subclass(name, other) or self.is_subclass(other, name)
