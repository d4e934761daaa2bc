"""Processing-Tree (PT) node algebra (Section 3.1).

"PTs can be considered as an algebra for specifying the query
execution: the interior nodes are operators (e.g., join, union) and the
leaf nodes are atomic entities of the physical schema referenced in the
query."

Nodes are treated as *functional terms*: they are immutable after
construction, compare structurally, and support generic reconstruction
(:meth:`PlanNode.with_children`), which is what lets optimizer actions
be written as term rewrites (Section 4).

Execution semantics (consumed by :mod:`repro.engine`): every node
produces a stream of *bindings* — dictionaries mapping variable names
to stored records, temp tuples or atomic values.

* :class:`EntityLeaf` — an atomic entity; as a plan input it scans its
  extent binding ``var`` to each record; as the right child of an
  ``IJ``/``PIJ`` it is the dereference target (not scanned).
* :class:`TempLeaf` — a temporary file of tuples (k=0 case).
* :class:`RecLeaf` — the recursion placeholder inside a ``Fix`` body;
  at runtime it yields the semi-naive *delta* of the named recursion.
* :class:`Sel` — filters bindings by a predicate.
* :class:`Proj` — computes named output fields; its output bindings
  are keyed by the field names.
* :class:`IJ` — implicit join: dereference ``source`` (an attribute
  path on an already-bound variable) into the target entity, binding
  ``out_var``; multivalued references expand.
* :class:`PIJ` — implicit join over ≥2 hops implemented by a path
  index.
* :class:`EJ` — explicit join with a join predicate (nested-loop,
  hash or index algorithm).
* :class:`UnionOp` — bag union of two compatible streams.
* :class:`Fix` — fixpoint of its body (a union of base and recursive
  parts), materialized into a temporary; binds ``out_var`` downstream.
"""

from __future__ import annotations

from typing import FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import PlanError
from repro.querygraph.graph import OutputSpec
from repro.querygraph.predicates import PathRef, Predicate

__all__ = [
    "PlanNode",
    "EntityLeaf",
    "TempLeaf",
    "RecLeaf",
    "Sel",
    "Proj",
    "IJ",
    "PIJ",
    "EJ",
    "UnionOp",
    "Fix",
    "Materialize",
    "NESTED_LOOP",
    "HASH_JOIN",
    "INDEX_JOIN",
]

NESTED_LOOP = "nested_loop"
HASH_JOIN = "hash_join"
INDEX_JOIN = "index_join"

#: What :meth:`PlanNode.memo_traits` returns.
MemoTraits = Tuple[FrozenSet[str], Tuple[str, ...], bool, bool]

#: Traits of a subtree with no free RecLeaf, no PIJ, no Fix and no
#: TempLeaf.
_PLAIN_TRAITS: MemoTraits = (frozenset(), (), False, False)


class PlanNode:
    """Abstract base of PT nodes."""

    # Lazily filled caches of derived, construction-time-fixed facts
    # (nodes are immutable terms): the structural key, its hash, and
    # the memo traits.
    __slots__ = ("_key_cache", "_hash_cache", "_traits_cache")

    @property
    def children(self) -> Tuple["PlanNode", ...]:
        raise NotImplementedError

    def with_children(self, children: Sequence["PlanNode"]) -> "PlanNode":
        """Rebuild this node with new children, keeping other fields."""
        raise NotImplementedError

    def output_vars(self) -> Set[str]:
        """Variables bound in the bindings this node produces."""
        raise NotImplementedError

    def label(self) -> str:
        """Short operator label used by the plan printer."""
        raise NotImplementedError

    # -- generic term utilities ----------------------------------------------

    def walk(self) -> Iterator["PlanNode"]:
        """Pre-order traversal of the subtree rooted here."""
        yield self
        for child in self.children:
            yield from child.walk()

    def substitute(self, old: "PlanNode", new: "PlanNode") -> "PlanNode":
        """Return a copy with every occurrence of ``old`` replaced."""
        if self == old:
            return new
        children = self.children
        if not children:
            return self
        rebuilt = tuple(child.substitute(old, new) for child in children)
        if rebuilt == children:
            return self
        return self.with_children(rebuilt)

    def contains(self, other: "PlanNode") -> bool:
        return any(node == other for node in self.walk())

    def leaf_entities(self) -> List[str]:
        """Names of all atomic entities referenced in the subtree."""
        return [
            node.entity
            for node in self.walk()
            if isinstance(node, (EntityLeaf, TempLeaf))
        ]

    def size(self) -> int:
        return sum(1 for _node in self.walk())

    def _build_key(self) -> object:
        """This node's structural identity: a tuple of its tag, its
        fields and its child *nodes* (not their keys), so hashing and
        comparing a key reuse each child's cached hash and stop at the
        first shared (identical) subtree."""
        raise NotImplementedError

    def _key(self) -> object:
        try:
            return self._key_cache
        except AttributeError:
            key = self._key_cache = self._build_key()
            return key

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, PlanNode)
            and hash(other) == hash(self)
            and other._key() == self._key()
        )

    def __hash__(self) -> int:
        try:
            return self._hash_cache
        except AttributeError:
            value = self._hash_cache = hash(self._key())
            return value

    # -- memo traits -----------------------------------------------------------

    def memo_traits(self) -> MemoTraits:
        """What a per-subtree memo must look at beyond the term itself:

        * the names of the recursions whose :class:`RecLeaf` deltas the
          subtree reads *from outside* (a ``Fix`` binds its own name) —
          the only entries of a ``delta_env`` that can change what the
          subtree estimates or costs to;
        * the ``out_vars`` of every :class:`PIJ` in it, whose fetch cost
          depends on whether the *whole plan* consumes them;
        * whether it contains a :class:`Fix`;
        * whether it reads a :class:`TempLeaf`, whose statistics belong
          to one execution.
        """
        try:
            return self._traits_cache
        except AttributeError:
            pass
        traits = self._compute_traits()
        if traits == _PLAIN_TRAITS:
            traits = _PLAIN_TRAITS  # most nodes: share one tuple
        self._traits_cache = traits
        return traits

    def _compute_traits(self) -> MemoTraits:
        """The union of the children's traits; the four node kinds
        that contribute (``RecLeaf``, ``PIJ``, ``Fix``, ``TempLeaf``)
        override."""
        recursions, pij_vars, has_fix, has_temp = _PLAIN_TRAITS
        for child in self.children:
            child_recursions, child_pij_vars, child_has_fix, child_has_temp = (
                child.memo_traits()
            )
            # Reuse the child's set when nothing is added to it.
            recursions = (
                recursions | child_recursions if recursions else child_recursions
            )
            pij_vars = pij_vars + child_pij_vars
            has_fix = has_fix or child_has_fix
            has_temp = has_temp or child_has_temp
        return recursions, pij_vars, has_fix, has_temp

    def __repr__(self) -> str:
        from repro.plans.display import render_functional

        return render_functional(self)


# ---------------------------------------------------------------------------
# Leaves (k = 0)
# ---------------------------------------------------------------------------

class EntityLeaf(PlanNode):
    """An atomic entity of the physical schema, binding ``var``."""

    __slots__ = ("entity", "var")

    def __init__(self, entity: str, var: str) -> None:
        self.entity = entity
        self.var = var

    @property
    def children(self) -> Tuple[PlanNode, ...]:
        return ()

    def with_children(self, children: Sequence[PlanNode]) -> PlanNode:
        if children:
            raise PlanError("EntityLeaf takes no children")
        return self

    def output_vars(self) -> Set[str]:
        return {self.var}

    def label(self) -> str:
        return self.entity

    def _build_key(self) -> object:
        return ("entity", self.entity, self.var)


class TempLeaf(PlanNode):
    """A temporary file of tuples, binding ``var`` to each tuple."""

    __slots__ = ("entity", "var")

    def __init__(self, entity: str, var: str) -> None:
        self.entity = entity
        self.var = var

    @property
    def children(self) -> Tuple[PlanNode, ...]:
        return ()

    def with_children(self, children: Sequence[PlanNode]) -> PlanNode:
        if children:
            raise PlanError("TempLeaf takes no children")
        return self

    def output_vars(self) -> Set[str]:
        return {self.var}

    def label(self) -> str:
        return self.entity

    def _build_key(self) -> object:
        return ("temp", self.entity, self.var)

    def _compute_traits(self) -> MemoTraits:
        return frozenset(), (), False, True


class RecLeaf(PlanNode):
    """The recursion placeholder inside a Fix body (the delta stream)."""

    __slots__ = ("name", "var")

    def __init__(self, name: str, var: str) -> None:
        self.name = name
        self.var = var

    @property
    def children(self) -> Tuple[PlanNode, ...]:
        return ()

    def with_children(self, children: Sequence[PlanNode]) -> PlanNode:
        if children:
            raise PlanError("RecLeaf takes no children")
        return self

    def output_vars(self) -> Set[str]:
        return {self.var}

    def label(self) -> str:
        return f"Δ{self.name}"

    def _build_key(self) -> object:
        return ("rec", self.name, self.var)

    def _compute_traits(self) -> MemoTraits:
        return frozenset((self.name,)), (), False, False


# ---------------------------------------------------------------------------
# Unary operators (k = 1)
# ---------------------------------------------------------------------------

class Sel(PlanNode):
    """Selection ``Sel_pred(child)``."""

    __slots__ = ("child", "predicate")

    def __init__(self, child: PlanNode, predicate: Predicate) -> None:
        self.child = child
        self.predicate = predicate

    @property
    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[PlanNode]) -> PlanNode:
        (child,) = children
        return Sel(child, self.predicate)

    def output_vars(self) -> Set[str]:
        return self.child.output_vars()

    def label(self) -> str:
        return f"Sel[{self.predicate!r}]"

    def _build_key(self) -> object:
        return ("sel", self.child, self.predicate)


class Proj(PlanNode):
    """Projection ``Proj(child)`` computing named output fields."""

    __slots__ = ("child", "fields")

    def __init__(self, child: PlanNode, fields: OutputSpec) -> None:
        self.child = child
        self.fields = fields

    @property
    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[PlanNode]) -> PlanNode:
        (child,) = children
        return Proj(child, self.fields)

    def output_vars(self) -> Set[str]:
        return set(self.fields.field_names())

    def label(self) -> str:
        return f"Proj[{self.fields!r}]"

    def _build_key(self) -> object:
        return (
            "proj",
            self.child,
            tuple((f.name, f.expr) for f in self.fields.fields),
        )


# ---------------------------------------------------------------------------
# Binary operators (k = 2)
# ---------------------------------------------------------------------------

class IJ(PlanNode):
    """Implicit join ``IJ_attr(child, target)``.

    For each input binding, dereference the oid(s) found at ``source``
    (a path on a bound variable — usually a single attribute) into the
    ``target`` entity, binding ``out_var`` to the fetched record.
    Multivalued references expand to one output binding per element;
    bindings whose reference is null produce nothing (inner-join
    semantics, like the paper's IJ).
    """

    __slots__ = ("child", "target", "source", "out_var")

    def __init__(
        self, child: PlanNode, target: EntityLeaf, source: PathRef, out_var: str
    ) -> None:
        if not isinstance(target, EntityLeaf):
            raise PlanError("the right child of IJ must be an atomic entity")
        if not source.attrs:
            raise PlanError("IJ needs an attribute path to dereference")
        self.child = child
        self.target = target
        self.source = source
        self.out_var = out_var

    @property
    def attr_name(self) -> str:
        """The ``attrName`` subscript of the paper's IJ node."""
        return self.source.attrs[-1]

    @property
    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child, self.target)

    def with_children(self, children: Sequence[PlanNode]) -> PlanNode:
        child, target = children
        if not isinstance(target, EntityLeaf):
            raise PlanError("the right child of IJ must be an atomic entity")
        return IJ(child, target, self.source, self.out_var)

    def output_vars(self) -> Set[str]:
        return self.child.output_vars() | {self.out_var}

    def label(self) -> str:
        return f"IJ[{self.source.dotted()}]"

    def _build_key(self) -> object:
        return (
            "ij",
            self.child,
            self.target,
            self.source,
            self.out_var,
        )


class EJ(PlanNode):
    """Explicit join ``EJ_pred(left, right)``.

    ``algorithm`` selects the implementation: ``nested_loop`` re-opens
    (and re-charges the I/O of) the right subtree for every left
    binding and judges every pair, as Figure 5 prices it;
    ``hash_join`` (an extension beyond the paper's two methods) drains
    the right subtree once per open, when the first left binding
    arrives (an empty left never opens it), and probes each left
    binding through a key index of the drained batches — what the
    optimizer picks for any predicate with an
    equality key; ``index_join`` requires an equality conjunct whose
    right side is a direct attribute of a right entity leaf carrying a
    selection index.
    """

    __slots__ = ("left", "right", "predicate", "algorithm")

    def __init__(
        self,
        left: PlanNode,
        right: PlanNode,
        predicate: Predicate,
        algorithm: str = NESTED_LOOP,
    ) -> None:
        if algorithm not in (NESTED_LOOP, HASH_JOIN, INDEX_JOIN):
            raise PlanError(f"unknown join algorithm {algorithm!r}")
        self.left = left
        self.right = right
        self.predicate = predicate
        self.algorithm = algorithm

    @property
    def children(self) -> Tuple[PlanNode, ...]:
        return (self.left, self.right)

    def with_children(self, children: Sequence[PlanNode]) -> PlanNode:
        left, right = children
        return EJ(left, right, self.predicate, self.algorithm)

    def output_vars(self) -> Set[str]:
        return self.left.output_vars() | self.right.output_vars()

    def label(self) -> str:
        """``EJ[pred]`` for the paper's nested loop; the other methods
        name themselves (``EJ[hash: pred]``, ``EJ[index: pred]``)."""
        if self.algorithm == NESTED_LOOP:
            return f"EJ[{self.predicate!r}]"
        method = "hash" if self.algorithm == HASH_JOIN else "index"
        return f"EJ[{method}: {self.predicate!r}]"

    def _build_key(self) -> object:
        return (
            "ej",
            self.left,
            self.right,
            self.predicate,
            self.algorithm,
        )


class UnionOp(PlanNode):
    """Bag union ``Union(left, right)`` of compatible streams."""

    __slots__ = ("left", "right")

    def __init__(self, left: PlanNode, right: PlanNode) -> None:
        self.left = left
        self.right = right

    @property
    def children(self) -> Tuple[PlanNode, ...]:
        return (self.left, self.right)

    def with_children(self, children: Sequence[PlanNode]) -> PlanNode:
        left, right = children
        return UnionOp(left, right)

    def output_vars(self) -> Set[str]:
        return self.left.output_vars() & self.right.output_vars()

    def label(self) -> str:
        return "Union"

    def _build_key(self) -> object:
        return ("union", self.left, self.right)


class Fix(PlanNode):
    """Fixpoint ``Fix(T, P)`` — "a paradigm for recursive queries".

    ``name`` identifies the recursion's temporary file ``T``; ``body``
    is the fixpoint equation ``P`` (a union of base and recursive
    parts, the recursive parts referencing :class:`RecLeaf` leaves with
    the same name).  The engine evaluates it semi-naively and
    materializes the result; downstream operators see bindings of
    ``out_var`` to the accumulated tuples.

    ``recursion_entity``/``recursion_attribute`` are optimizer hints
    (set by ``translate``) naming the stored reference attribute the
    recursion advances along — the cardinality model estimates the
    semi-naive iteration count ``n`` of Figure 5 from its chain-depth
    statistics.  ``invariant_fields`` carries the provenance analysis
    used by the ``canPush`` constraint of the ``filter`` action.
    """

    __slots__ = (
        "name",
        "body",
        "out_var",
        "recursion_entity",
        "recursion_attribute",
        "invariant_fields",
    )

    def __init__(
        self,
        name: str,
        body: PlanNode,
        out_var: str,
        recursion_entity: Optional[str] = None,
        recursion_attribute: Optional[str] = None,
        invariant_fields: Optional[Set[str]] = None,
    ) -> None:
        self.name = name
        self.body = body
        self.out_var = out_var
        self.recursion_entity = recursion_entity
        self.recursion_attribute = recursion_attribute
        self.invariant_fields = (
            frozenset(invariant_fields) if invariant_fields is not None else frozenset()
        )

    @property
    def children(self) -> Tuple[PlanNode, ...]:
        return (self.body,)

    def with_children(self, children: Sequence[PlanNode]) -> PlanNode:
        (body,) = children
        return Fix(
            self.name,
            body,
            self.out_var,
            self.recursion_entity,
            self.recursion_attribute,
            set(self.invariant_fields),
        )

    def rec_leaves(self) -> List[RecLeaf]:
        return [
            node
            for node in self.body.walk()
            if isinstance(node, RecLeaf) and node.name == self.name
        ]

    def output_vars(self) -> Set[str]:
        return {self.out_var}

    def label(self) -> str:
        return f"Fix[{self.name}]"

    def _build_key(self) -> object:
        return (
            "fix",
            self.name,
            self.body,
            self.out_var,
            self.invariant_fields,
            # The cardinality model reads the iteration schedule off
            # these, so two Fix terms that differ here cost differently.
            self.recursion_entity,
            self.recursion_attribute,
        )

    def _compute_traits(self) -> MemoTraits:
        recursions, pij_vars, _has_fix, has_temp = super()._compute_traits()
        return recursions - {self.name}, pij_vars, True, has_temp


class Materialize(PlanNode):
    """Materialize a tuple stream into a temporary file.

    The child must produce field-keyed bindings (i.e. end in ``Proj``
    or a union of projections); downstream operators see bindings of
    ``out_var`` to the stored tuples — the same consumption interface
    as ``Fix``.  Used for non-recursive union views, which cannot be
    folded into their consumers.
    """

    __slots__ = ("name", "child", "out_var")

    def __init__(self, name: str, child: PlanNode, out_var: str) -> None:
        self.name = name
        self.child = child
        self.out_var = out_var

    @property
    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[PlanNode]) -> PlanNode:
        (child,) = children
        return Materialize(self.name, child, self.out_var)

    def output_vars(self) -> Set[str]:
        return {self.out_var}

    def label(self) -> str:
        return f"Materialize[{self.name}]"

    def _build_key(self) -> object:
        return ("mat", self.name, self.child, self.out_var)


class PIJ(PlanNode):
    """Path-index implicit join ``PIJ_pathIndex(child, C2, ..., Cn)``.

    Replaces a chain of IJ nodes when a path index on
    ``attributes`` exists (the ``collapse`` action, Section 4.3).  For
    each input binding, the head oid found at ``source`` keys a forward
    index lookup; each resulting oid tuple binds ``out_vars`` (one per
    target, parallel to ``targets``) to the fetched records.
    """

    __slots__ = ("child", "targets", "attributes", "source", "out_vars")

    def __init__(
        self,
        child: PlanNode,
        targets: Sequence[EntityLeaf],
        attributes: Sequence[str],
        source: PathRef,
        out_vars: Sequence[str],
    ) -> None:
        if len(targets) < 2:
            raise PlanError("PIJ spans at least two hops (k >= 2 children)")
        if len(targets) != len(attributes) or len(targets) != len(out_vars):
            raise PlanError("PIJ targets/attributes/out_vars must align")
        for target in targets:
            if not isinstance(target, EntityLeaf):
                raise PlanError("PIJ targets must be atomic entities")
        self.child = child
        self.targets: Tuple[EntityLeaf, ...] = tuple(targets)
        self.attributes: Tuple[str, ...] = tuple(attributes)
        self.source = source
        self.out_vars: Tuple[str, ...] = tuple(out_vars)

    @property
    def path_name(self) -> str:
        """The ``pathIndex`` subscript, e.g. ``works.instruments``."""
        return ".".join(self.attributes)

    @property
    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,) + self.targets

    def with_children(self, children: Sequence[PlanNode]) -> PlanNode:
        child = children[0]
        targets = children[1:]
        for target in targets:
            if not isinstance(target, EntityLeaf):
                raise PlanError("PIJ targets must be atomic entities")
        return PIJ(child, targets, self.attributes, self.source, self.out_vars)  # type: ignore[arg-type]

    def output_vars(self) -> Set[str]:
        return self.child.output_vars() | set(self.out_vars)

    def label(self) -> str:
        return f"PIJ[{self.path_name}]"

    def _build_key(self) -> object:
        return (
            "pij",
            self.child,
            self.targets,
            self.attributes,
            self.source,
            self.out_vars,
        )

    def _compute_traits(self) -> MemoTraits:
        recursions, pij_vars, has_fix, has_temp = super()._compute_traits()
        return recursions, self.out_vars + pij_vars, has_fix, has_temp
