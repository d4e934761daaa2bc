"""Canonical plan fingerprints: the plan id that leaves the process.

Inside one process a plan is named by the term itself: ``PlanNode``'s
cached structural hash and equality key the enumerator's memo, the
transformPT candidate dedupe and the cost memo.  Wherever a plan id
crosses a process boundary — the telemetry store and its JSONL, the
``history`` op, ``plan_change``/``plan_regression`` events, plan-cache
entries, flight-recorder bundles and their replay, the ``diagnose``
response, the fig7 golden — it is :func:`canonical_fingerprint`.

Variables are renamed to their first-appearance index in a
deterministic pre-order walk (``§0``, ``§1``, ...), and the renamed
term is hashed over *every* cost-relevant field — operator kind,
entities, attribute paths, predicates, join algorithm, invariant
fields — so the EJ algorithms, for instance, get different ids.
Two plans share a canonical fingerprint iff they are identical up to
a bijective variable renaming, and the digest is stable across
processes (no reliance on ``hash()`` or set iteration order).

The renaming makes the id independent of how upstream steps happened
to name variables; it does not merge anything within a search.  Push
orders do not yield alpha-variants: the push renamer's ``_p{part}``
suffix depends on the union part, not on the order of pushes, so two
structurally distinct plans of one transformation closure never share
a fingerprint (``tests/test_enumeration_oracle.py`` asserts this over
every brute-force closure it builds).
"""

from __future__ import annotations

import hashlib
from typing import Dict, List

from repro.errors import PlanError
from repro.plans.nodes import (
    EJ,
    IJ,
    PIJ,
    EntityLeaf,
    Fix,
    Materialize,
    PlanNode,
    Proj,
    RecLeaf,
    Sel,
    TempLeaf,
    UnionOp,
)
from repro.querygraph.graph import OutputField, OutputSpec
from repro.querygraph.predicates import Expr, PathRef, Predicate

__all__ = ["alpha_rename", "canonical_fingerprint"]


def _node_vars(node: PlanNode) -> List[str]:
    """The variable names a node mentions, in a deterministic order
    (definition sites and reference sites alike — only the *order* of
    first appearance matters for canonical naming)."""
    if isinstance(node, (EntityLeaf, TempLeaf, RecLeaf)):
        return [node.var]
    if isinstance(node, Sel):
        return [p.var for p in node.predicate.paths()]
    if isinstance(node, Proj):
        return [
            p.var
            for output_field in node.fields.fields
            for p in output_field.expr.paths()
        ]
    if isinstance(node, IJ):
        return [node.source.var, node.out_var]
    if isinstance(node, PIJ):
        return [node.source.var, *node.out_vars]
    if isinstance(node, EJ):
        return [p.var for p in node.predicate.paths()]
    if isinstance(node, (Fix, Materialize)):
        return [node.out_var]
    if isinstance(node, UnionOp):
        return []
    raise PlanError(f"cannot canonicalize node {node.label()}")


def _canonical_names(plan: PlanNode) -> Dict[str, str]:
    """First-appearance canonical names over a pre-order walk."""
    mapping: Dict[str, str] = {}
    for node in plan.walk():
        for name in _node_vars(node):
            if name not in mapping:
                mapping[name] = f"§{len(mapping)}"
    return mapping


def alpha_rename(plan: PlanNode, mapping: Dict[str, str]) -> PlanNode:
    """Rebuild ``plan`` with every variable renamed through ``mapping``
    (names absent from the mapping are kept)."""

    def var(name: str) -> str:
        return mapping.get(name, name)

    def ref(path: PathRef) -> PathRef:
        return PathRef(var(path.var), path.attrs)

    def expr(e: Expr) -> Expr:
        subst = {
            name: PathRef(var(name))
            for name in e.variables()
            if name in mapping
        }
        return e.substitute(subst) if subst else e

    def pred(p: Predicate) -> Predicate:
        subst = {
            name: PathRef(var(name))
            for name in p.variables()
            if name in mapping
        }
        return p.substitute(subst) if subst else p

    def rebuild(node: PlanNode) -> PlanNode:
        if isinstance(node, EntityLeaf):
            return EntityLeaf(node.entity, var(node.var))
        if isinstance(node, TempLeaf):
            return TempLeaf(node.entity, var(node.var))
        if isinstance(node, RecLeaf):
            return RecLeaf(node.name, var(node.var))
        if isinstance(node, Sel):
            return Sel(rebuild(node.child), pred(node.predicate))
        if isinstance(node, Proj):
            return Proj(
                rebuild(node.child),
                OutputSpec(
                    [
                        OutputField(f.name, expr(f.expr))
                        for f in node.fields.fields
                    ]
                ),
            )
        if isinstance(node, IJ):
            return IJ(
                rebuild(node.child),
                EntityLeaf(node.target.entity, var(node.target.var)),
                ref(node.source),
                var(node.out_var),
            )
        if isinstance(node, PIJ):
            return PIJ(
                rebuild(node.child),
                [EntityLeaf(t.entity, var(t.var)) for t in node.targets],
                node.attributes,
                ref(node.source),
                [var(v) for v in node.out_vars],
            )
        if isinstance(node, EJ):
            return EJ(
                rebuild(node.left),
                rebuild(node.right),
                pred(node.predicate),
                node.algorithm,
            )
        if isinstance(node, UnionOp):
            return UnionOp(rebuild(node.left), rebuild(node.right))
        if isinstance(node, Fix):
            return Fix(
                node.name,
                rebuild(node.body),
                var(node.out_var),
                node.recursion_entity,
                node.recursion_attribute,
                set(node.invariant_fields),
            )
        if isinstance(node, Materialize):
            return Materialize(node.name, rebuild(node.child), var(node.out_var))
        raise PlanError(f"cannot rename node {node.label()}")

    return rebuild(plan)


def _serialize(node: PlanNode, out: List[str]) -> None:
    """Append a stable, cost-complete token stream for ``node`` (whose
    variables are already canonical) to ``out``."""
    if isinstance(node, EntityLeaf):
        out.append(f"entity({node.entity},{node.var})")
    elif isinstance(node, TempLeaf):
        out.append(f"temp({node.entity},{node.var})")
    elif isinstance(node, RecLeaf):
        out.append(f"rec({node.name},{node.var})")
    elif isinstance(node, Sel):
        out.append(f"sel({node.predicate!r})")
    elif isinstance(node, Proj):
        fields = ";".join(
            f"{f.name}={f.expr!r}" for f in node.fields.fields
        )
        out.append(f"proj({fields})")
    elif isinstance(node, IJ):
        out.append(f"ij({node.source.dotted()},{node.out_var})")
    elif isinstance(node, PIJ):
        out.append(
            "pij({},{},{})".format(
                ".".join(node.attributes),
                node.source.dotted(),
                ",".join(node.out_vars),
            )
        )
    elif isinstance(node, EJ):
        out.append(f"ej({node.predicate!r},{node.algorithm})")
    elif isinstance(node, UnionOp):
        out.append("union")
    elif isinstance(node, Fix):
        invariant = ",".join(sorted(node.invariant_fields))
        out.append(f"fix({node.name},{node.out_var},[{invariant}])")
    elif isinstance(node, Materialize):
        out.append(f"mat({node.name},{node.out_var})")
    else:
        raise PlanError(f"cannot serialize node {node.label()}")
    out.append("(")
    for child in node.children:
        _serialize(child, out)
    out.append(")")


def canonical_fingerprint(plan: PlanNode) -> str:
    """A 16-hex-digit SHA-256 digest of the plan's alpha-renamed,
    cost-complete token stream."""
    renamed = alpha_rename(plan, _canonical_names(plan))
    tokens: List[str] = []
    _serialize(renamed, tokens)
    digest = hashlib.sha256("\x1f".join(tokens).encode("utf-8"))
    return digest.hexdigest()[:16]
