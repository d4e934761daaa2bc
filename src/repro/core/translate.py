"""The ``translate`` optimization step (Section 4.3).

Maps a (rewritten) query graph onto the physical schema: conceptual
name nodes become atomic entities, and path expressions become
sequences of implicit-join *hops* that ``generatePT`` later turns into
``IJ`` nodes (or ``PIJ`` nodes via the ``collapse`` action).

The unit of work is one predicate node: its arcs' tree labels, its
Boolean predicate and its output projection all contain paths; shared
prefixes are factorized into a single hop chain (a trie keyed by
(variable, attribute)) — this is the paper's "simultaneously optimize
overlapping paths without any additional rewriting".

Hop-expansion policy: a reference attribute is crossed by a hop only
when something *beyond* it is accessed; a path ending at a reference
attribute compares/projects the oid directly (object identity needs no
dereference).  Multivalued crossings expand bindings existentially —
set semantics of answers are preserved (duplicates may differ, as in
the paper's own plans).  Predicates under negation are **not**
expanded (existential expansion does not commute with ``not``); they
stay whole-path selections the engine evaluates existentially.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import OptimizationError, UnknownAttributeError, UnknownEntityError
from repro.physical.schema import PhysicalSchema
from repro.querygraph.graph import Arc, OutputField, OutputSpec, SPJNode
from repro.querygraph.predicates import (
    And,
    Comparison,
    Const,
    Expr,
    FunctionApp,
    Not,
    Or,
    PathRef,
    Predicate,
    TruePredicate,
    conjoin,
    conjuncts,
)
from repro.querygraph.tree_labels import TreeLabel
from repro.schema.catalog import Catalog

__all__ = [
    "Hop",
    "TranslatedArc",
    "TranslatedNode",
    "Translator",
    "produced_shape",
]


@dataclass
class Hop:
    """One implicit join: dereference ``source`` into ``target_entity``,
    binding ``out_var``.  ``multivalued`` records whether the crossed
    attribute is set/list-valued (the hop expands bindings)."""

    source: PathRef
    target_class: str
    target_entity: str
    out_var: str
    multivalued: bool

    def __repr__(self) -> str:  # pragma: no cover - convenience
        return f"Hop({self.source.dotted()} -> {self.out_var}:{self.target_entity})"


@dataclass
class TranslatedArc:
    """One translated incoming arc.

    ``root_var`` is bound to each instance of the arc's source;
    ``hops`` is the factorized hop chain (in dependency order — a hop's
    source variable is either the root or an earlier hop's out_var).
    """

    name: str
    root_var: str
    entity: Optional[str]  # physical entity for base names; None if produced
    hops: List[Hop] = field(default_factory=list)

    def hop_vars(self) -> Set[str]:
        """Variables introduced by this arc's hops."""
        return {hop.out_var for hop in self.hops}

    def all_vars(self) -> Set[str]:
        """Root variable plus every hop variable of this arc."""
        return {self.root_var} | self.hop_vars()


@dataclass
class TranslatedNode:
    """A predicate node translated onto the physical schema."""

    spj: SPJNode
    arcs: List[TranslatedArc]
    predicate: Predicate
    output: OutputSpec


class Translator:
    """Translates predicate nodes onto the physical schema.

    ``shapes`` maps produced name nodes (views, recursions) to their
    output-field classes, so paths over view tuples resolve too.
    """

    def __init__(
        self,
        physical: PhysicalSchema,
        shapes: Optional[Dict[str, Dict[str, Optional[str]]]] = None,
    ) -> None:
        self.physical = physical
        if physical.catalog is None:
            raise OptimizationError("translation requires a conceptual catalog")
        self.catalog: Catalog = physical.catalog
        self.shapes = shapes or {}
        self._fresh = 0

    # -- variable naming ------------------------------------------------------

    def fresh_var(self, hint: str) -> str:
        """A new variable name unique within this translator."""
        self._fresh += 1
        return f"_{hint}{self._fresh}"

    # -- entry point --------------------------------------------------------------

    def translate_node(self, spj: SPJNode) -> TranslatedNode:
        """Translate one predicate node onto the physical schema:
        arcs become hop chains, predicate and output are rewritten over
        the new variables."""
        arcs: List[TranslatedArc] = []
        substitution: Dict[str, PathRef] = {}
        arc_of_var: Dict[str, TranslatedArc] = {}
        for arc in spj.inputs:
            translated = self._translate_arc(arc, substitution, arc_of_var)
            arcs.append(translated)
        predicate = self._translate_predicate(
            spj.predicate, substitution, arc_of_var
        )
        output = OutputSpec(
            [
                OutputField(
                    f.name,
                    self._translate_expr(f.expr, substitution, arc_of_var),
                )
                for f in spj.output.fields
            ]
        )
        return TranslatedNode(spj, arcs, predicate, output)

    # -- arc translation --------------------------------------------------------------

    def _translate_arc(
        self,
        arc: Arc,
        substitution: Dict[str, PathRef],
        arc_of_var: Dict[str, TranslatedArc],
    ) -> TranslatedArc:
        root_binding = [b for b in arc.tree.bindings() if not b.path]
        if root_binding:
            root_var = root_binding[0].variable
        else:
            root_var = self.fresh_var(arc.name[:3].lower())
        entity: Optional[str] = None
        if arc.name not in self.shapes:
            entity = self.physical.primary_entity(arc.name).name
        translated = TranslatedArc(arc.name, root_var, entity)
        arc_of_var[root_var] = translated
        substitution[root_var] = PathRef(root_var)
        # Walk the tree label *structurally*: two sibling branches on
        # the same attribute (Figure 2's i1/i2) must get *distinct*
        # hops, while a shared prefix gets one hop (the factorization
        # the paper highlights).  Dotted paths alone cannot express
        # that, so hops are created per tree branch here; paths that
        # only appear in the predicate/output still get demand-driven
        # hops in expand_path.
        self._walk_tree_label(
            arc.tree, translated, root_var, (), substitution, arc_of_var
        )
        return translated

    def _walk_tree_label(
        self,
        tree: TreeLabel,
        arc: TranslatedArc,
        current_var: str,
        pending: Tuple[str, ...],
        substitution: Dict[str, PathRef],
        arc_of_var: Dict[str, TranslatedArc],
    ) -> None:
        for attr, child in tree.children:
            if attr is None:
                # Element node: the (multivalued) hop that brought us
                # here already expands elements.
                if child.variable is not None:
                    substitution[child.variable] = PathRef(
                        current_var, pending
                    )
                self._walk_tree_label(
                    child, arc, current_var, pending, substitution, arc_of_var
                )
                continue
            if not child.children:
                # Leaf: bind the value (atomic, method, or oid) directly.
                if child.variable is not None:
                    substitution[child.variable] = PathRef(
                        current_var, pending + (attr,)
                    )
                continue
            target_class, multivalued = self._reference_target_from(
                arc, current_var, pending, attr
            )
            if target_class is None:
                # Non-reference with structure below: bind variables to
                # dotted paths (evaluated in place).
                if child.variable is not None:
                    substitution[child.variable] = PathRef(
                        current_var, pending + (attr,)
                    )
                self._walk_tree_label(
                    child,
                    arc,
                    current_var,
                    pending + (attr,),
                    substitution,
                    arc_of_var,
                )
                continue
            hop = self._new_hop(
                arc, current_var, pending + (attr,), target_class, multivalued
            )
            if hop is None:
                continue
            arc_of_var[hop.out_var] = arc
            if child.variable is not None:
                substitution[child.variable] = PathRef(hop.out_var)
            self._walk_tree_label(
                child, arc, hop.out_var, (), substitution, arc_of_var
            )

    def _reference_target_from(
        self,
        arc: TranslatedArc,
        var: str,
        pending: Tuple[str, ...],
        attr: str,
    ) -> Tuple[Optional[str], bool]:
        """Target class of ``var.pending.attr`` (walking classes)."""
        owner_class = self._class_of_var(var, arc)
        if owner_class is None and var == arc.root_var and arc.entity is None:
            # Tuple-shaped source: only direct fields resolve.
            if pending:
                return None, False
            return self._field_class(arc.name, attr), False
        current = owner_class
        for step in pending:
            if current is None or current not in self.catalog:
                return None, False
            try:
                attribute = self.catalog.attribute(current, step)
            except UnknownAttributeError:
                return None, False
            current = attribute.referenced_class()
        if current is None or current not in self.catalog:
            return None, False
        try:
            attribute = self.catalog.attribute(current, attr)
        except UnknownAttributeError:
            return None, False
        return attribute.referenced_class(), attribute.is_multivalued()

    def _new_hop(
        self,
        arc: TranslatedArc,
        var: str,
        source_attrs: Tuple[str, ...],
        target_class: str,
        multivalued: bool,
    ) -> Optional[Hop]:
        try:
            target_entity = self.physical.primary_entity(target_class).name
        except UnknownEntityError:
            return None
        out_var = self.fresh_var(source_attrs[-1][:4])
        hop = Hop(
            PathRef(var, source_attrs),
            target_class,
            target_entity,
            out_var,
            multivalued,
        )
        arc.hops.append(hop)
        return hop

    # -- path expansion (hop trie) -----------------------------------------------------

    def _class_of_var(self, var: str, arc: TranslatedArc) -> Optional[str]:
        """Conceptual class a variable's records belong to."""
        if var == arc.root_var:
            if arc.entity is not None:
                return self.physical.entity(arc.entity).conceptual_name
            return None
        for hop in arc.hops:
            if hop.out_var == var:
                return hop.target_class
        return None

    def _field_class(self, name: str, field_name: str) -> Optional[str]:
        shape = self.shapes.get(name)
        if shape is None:
            return None
        return shape.get(field_name)

    def expand_path(
        self, path: PathRef, arc_of_var: Dict[str, TranslatedArc]
    ) -> PathRef:
        """Expand a path into hops on its arc; return the residual path.

        The residual references the deepest hop's out_var with at most
        one final attribute (atomic value, method, or reference-as-oid).
        """
        arc = arc_of_var.get(path.var)
        if arc is None or not path.attrs:
            return path
        current_var = path.var
        attrs = list(path.attrs)
        while len(attrs) > 1:
            attr = attrs[0]
            hop = self._find_or_create_hop(arc, current_var, attr)
            if hop is None:
                # Not a reference attribute (or unresolvable): leave
                # the rest of the path as-is.
                break
            current_var = hop.out_var
            arc_of_var[current_var] = arc
            attrs = attrs[1:]
        return PathRef(current_var, tuple(attrs))

    def _find_or_create_hop(
        self, arc: TranslatedArc, var: str, attr: str
    ) -> Optional[Hop]:
        for hop in arc.hops:
            if hop.source.var == var and hop.source.attrs == (attr,):
                return hop
        target_class, multivalued = self._reference_target(arc, var, attr)
        if target_class is None:
            return None
        try:
            target_entity = self.physical.primary_entity(target_class).name
        except UnknownEntityError:
            return None
        out_var = self.fresh_var(attr[:4])
        hop = Hop(PathRef(var, (attr,)), target_class, target_entity, out_var, multivalued)
        arc.hops.append(hop)
        return hop

    def _reference_target(
        self, arc: TranslatedArc, var: str, attr: str
    ) -> Tuple[Optional[str], bool]:
        owner_class = self._class_of_var(var, arc)
        if owner_class is not None and owner_class in self.catalog:
            try:
                attribute = self.catalog.attribute(owner_class, attr)
            except UnknownAttributeError:
                return None, False
            return attribute.referenced_class(), attribute.is_multivalued()
        # Tuple-shaped source (a produced name): field classes come
        # from the registered shape.
        if var == arc.root_var and arc.entity is None:
            return self._field_class(arc.name, attr), False
        return None, False

    # -- predicate / expression rewriting --------------------------------------------------

    def _translate_predicate(
        self,
        predicate: Predicate,
        substitution: Dict[str, PathRef],
        arc_of_var: Dict[str, TranslatedArc],
    ) -> Predicate:
        if isinstance(predicate, TruePredicate):
            return predicate
        if isinstance(predicate, And):
            return And(
                *[
                    self._translate_predicate(p, substitution, arc_of_var)
                    for p in predicate.parts
                ]
            )
        if isinstance(predicate, Or):
            return Or(
                *[
                    self._translate_predicate(p, substitution, arc_of_var)
                    for p in predicate.parts
                ]
            )
        if isinstance(predicate, Not):
            # No hop expansion under negation: substitute variables only.
            inner = predicate.part.substitute(
                {v: p for v, p in substitution.items()}
            )
            return Not(inner)
        if isinstance(predicate, Comparison):
            return Comparison(
                predicate.op,
                self._translate_expr(predicate.left, substitution, arc_of_var),
                self._translate_expr(predicate.right, substitution, arc_of_var),
            )
        return predicate

    def _translate_expr(
        self,
        expr: Expr,
        substitution: Dict[str, PathRef],
        arc_of_var: Dict[str, TranslatedArc],
    ) -> Expr:
        if isinstance(expr, Const):
            return expr
        if isinstance(expr, PathRef):
            resolved = expr.substitute(
                {v: p for v, p in substitution.items()}
            )
            if isinstance(resolved, PathRef):
                return self.expand_path(resolved, arc_of_var)
            return resolved
        if isinstance(expr, FunctionApp):
            return FunctionApp(
                expr.name,
                [
                    self._translate_expr(a, substitution, arc_of_var)
                    for a in expr.args
                ],
                expr.fn,
                expr.eval_weight,
            )
        return expr


def produced_shape(
    output: OutputSpec,
    catalog: Catalog,
    arc_classes: Dict[str, Optional[str]],
    shapes: Dict[str, Dict[str, Optional[str]]],
) -> Dict[str, Optional[str]]:
    """Field -> class mapping of a produced name's output.

    ``arc_classes`` maps the producing node's variables to their
    classes (root variables of base arcs resolve via the catalog;
    variables over other produced names resolve via ``shapes``)."""
    result: Dict[str, Optional[str]] = {}
    for output_field in output.fields:
        result[output_field.name] = _expr_class(
            output_field.expr, catalog, arc_classes, shapes
        )
    return result


def _expr_class(
    expr: Expr,
    catalog: Catalog,
    arc_classes: Dict[str, Optional[str]],
    shapes: Dict[str, Dict[str, Optional[str]]],
) -> Optional[str]:
    if not isinstance(expr, PathRef):
        return None
    current = arc_classes.get(expr.var)
    for position, attr in enumerate(expr.attrs):
        if current is None:
            return None
        if current in catalog:
            try:
                attribute = catalog.attribute(current, attr)
            except UnknownAttributeError:
                return None
            current = attribute.referenced_class()
        elif current in shapes:
            current = shapes[current].get(attr)
        else:
            return None
    return current
