"""The ``transformPT`` optimization step (Sections 4.5, 4.6).

After ``generatePT`` has produced a complete, costed PT, the position
of *selective operations* relative to recursion is decided:

* the ``filter`` action pushes a pipeline segment ending in a selection
  through a ``Fix`` node, following [KL86]::

      filter: Sel_pred(pt(Fix(Rec, Union(Base, pt'(Rec)))))
              | canPush(pred, Rec)
              -> Fix(Rec, Union(Sel_pred(pt(Base)),
                                pt'(Sel_pred(pt(Rec)))))

  Unlike deductive DBs, "implicit joins may come between the selection
  and the fixpoint and the rule must be more general": the pushed
  segment may contain ``IJ``/``PIJ`` hops that materialize the path the
  selection applies to;

* the ``joinfilter`` action pushes an *explicit join* through
  recursion — "not proposed before" (Section 4.5) — when the join
  predicate touches the recursion only through invariant fields and no
  downstream operator needs the inner operand's bindings (a semijoin
  push);

* the pushes are moves of the transformPT search
  (:mod:`repro.core.enumerate`), so pushed and unpushed plans are
  **compared by cost**; pushing happens only when it wins.
  This is the paper's core departure from the deductive-DB heuristic.

``canPush`` uses the provenance analysis attached to the Fix node: a
predicate path rooted at the recursion's output must start with an
*invariant* field (one the recursive rule copies unchanged, like
``master``); paths rooted at fields like ``gen`` (computed) or
``disciple`` (rebound) block the push of that predicate — but not of
independent segments, which commute past it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import OptimizationError
from repro.core.actions import Action, Application
from repro.engine.fixpoint import flatten_union
from repro.plans.nodes import (
    EJ,
    IJ,
    INDEX_JOIN,
    PIJ,
    EntityLeaf,
    Fix,
    PlanNode,
    Proj,
    RecLeaf,
    Sel,
    TempLeaf,
    UnionOp,
)
from repro.plans.patterns import PlanPath, paths_to, scan_join_algorithm
from repro.querygraph.graph import OutputField, OutputSpec
from repro.querygraph.predicates import (
    Const,
    Expr,
    FunctionApp,
    PathRef,
    Predicate,
)

__all__ = [
    "PushableSegment",
    "find_filter_sites",
    "apply_filter",
    "filter_action",
    "transform_candidates",
]


@dataclass
class PushableSegment:
    """A maximal pushable pipeline segment above one Fix node.

    ``pushed`` lists the relocatable nodes bottom-up (closest to the
    Fix first); ``kept`` lists skippable selections (predicates on
    non-invariant recursion fields) that stay above the Fix; ``path``
    locates the *topmost* segment node in the plan, so the rebuilt
    remainder can be spliced back.
    """

    fix: Fix
    pushed: List[PlanNode]
    kept: List[PlanNode]
    path: PlanPath

    @property
    def has_join(self) -> bool:
        """Whether the segment pushes an explicit join (Section 4.5)."""
        return any(isinstance(node, EJ) for node in self.pushed)

    def describe(self) -> str:
        """Human-readable description of the push."""
        ops = ", ".join(node.label() for node in self.pushed)
        return f"push [{ops}] through Fix[{self.fix.name}]"


def _consumed_vars(node: PlanNode) -> Set[str]:
    """Variables a node *reads* from its input bindings."""
    if isinstance(node, Sel):
        return node.predicate.variables()
    if isinstance(node, Proj):
        return node.fields.variables()
    if isinstance(node, IJ):
        return {node.source.var}
    if isinstance(node, PIJ):
        return {node.source.var}
    if isinstance(node, EJ):
        return node.predicate.variables()
    return set()


def _introduced_vars(node: PlanNode) -> Set[str]:
    if isinstance(node, IJ):
        return {node.out_var}
    if isinstance(node, PIJ):
        return set(node.out_vars)
    if isinstance(node, EJ):
        return node.right.output_vars()
    return set()


def find_filter_sites(plan: PlanNode, allow_join: bool = True) -> List[PushableSegment]:
    """All maximal pushable segments above Fix nodes in ``plan``."""
    segments: List[PushableSegment] = []
    for fix_path in paths_to(plan, lambda n: isinstance(n, Fix)):
        fix = fix_path.focus
        assert isinstance(fix, Fix)
        segment = _extract_segment(plan, fix_path, fix, allow_join)
        if segment is not None:
            segments.append(segment)
    return segments


def _extract_segment(
    plan: PlanNode, fix_path: PlanPath, fix: Fix, allow_join: bool
) -> Optional[PushableSegment]:
    invariant = set(fix.invariant_fields)
    if not invariant:
        return None
    ancestors = fix_path.ancestors()  # outermost first
    chain = list(reversed(ancestors))  # innermost (just above Fix) first
    steps = fix_path.steps
    pushed_with_pos: List[Tuple[int, PlanNode]] = []
    kept_with_pos: List[Tuple[int, PlanNode]] = []
    segment_vars: Set[str] = set()
    fix_var = fix.out_var
    for position, node in enumerate(chain):
        # The recursion pipeline must flow through the node's first
        # child (the data input).  An explicit join is commutative, so
        # a Fix arriving on the *right* side of an EJ is normalized by
        # swapping the operands; any other off-pipeline position (an
        # IJ's target side, a Union branch) ends the segment.
        parent_step = steps[len(steps) - 1 - position]
        if parent_step[1] != 0:
            if isinstance(node, EJ) and parent_step[1] == 1 and allow_join:
                node = EJ(node.right, node.left, node.predicate)
            else:
                break
        if isinstance(node, Sel):
            if _pushable_predicate(node.predicate, fix_var, invariant, segment_vars):
                pushed_with_pos.append((position, node))
            elif _skippable_predicate(node.predicate, fix_var, segment_vars):
                kept_with_pos.append((position, node))
            else:
                break
            continue
        if isinstance(node, (IJ, PIJ)):
            source = node.source
            if _pushable_path(source, fix_var, invariant, segment_vars):
                pushed_with_pos.append((position, node))
                segment_vars |= _introduced_vars(node)
            else:
                break
            continue
        if isinstance(node, EJ) and allow_join:
            if _pushable_join(node, fix, fix_var, invariant, segment_vars):
                pushed_with_pos.append((position, node))
                segment_vars |= _introduced_vars(node)
            else:
                break
            continue
        break
    # Trim to the maximal prefix ending at a selective node: pushing
    # trailing bare hops inside the recursion only adds work.
    while pushed_with_pos and not isinstance(
        pushed_with_pos[-1][1], (Sel, EJ)
    ):
        _position, dropped = pushed_with_pos.pop()
        segment_vars -= _introduced_vars(dropped)
    if not pushed_with_pos:
        return None
    pushed = [node for _position, node in pushed_with_pos]
    top_index = max(position for position, _node in pushed_with_pos)
    # Skippable selections above the topmost pushed node stay in the
    # untouched remainder of the plan; only those *inside* the replaced
    # subtree need to be re-attached over the new Fix.
    kept = [node for position, node in kept_with_pos if position < top_index]
    # Everything above the segment must not read variables the pushed
    # segment introduced (they disappear from the main pipeline).
    for above in chain[top_index + 1:]:
        if _consumed_vars(above) & segment_vars:
            return None
    for kept_node in kept:
        if _consumed_vars(kept_node) & segment_vars:
            return None
    top_steps = steps[: len(steps) - 1 - top_index]
    top_path = PlanPath(plan, list(top_steps))
    return PushableSegment(fix, pushed, kept, top_path)


def _pushable_predicate(
    predicate: Predicate,
    fix_var: str,
    invariant: Set[str],
    segment_vars: Set[str],
) -> bool:
    for path in predicate.paths():
        if path.var == fix_var:
            if not path.attrs or path.attrs[0] not in invariant:
                return False
        elif path.var not in segment_vars:
            return False
    return True


def _skippable_predicate(
    predicate: Predicate, fix_var: str, segment_vars: Set[str]
) -> bool:
    """A non-pushable selection commutes past the segment when it only
    reads the recursion's own output (never segment-introduced vars)."""
    variables = predicate.variables()
    return fix_var in variables and not (variables & segment_vars)


def _pushable_path(
    source: PathRef, fix_var: str, invariant: Set[str], segment_vars: Set[str]
) -> bool:
    if source.var == fix_var:
        return bool(source.attrs) and source.attrs[0] in invariant
    return source.var in segment_vars


def _pushable_join(
    node: EJ,
    fix: Fix,
    fix_var: str,
    invariant: Set[str],
    segment_vars: Set[str],
) -> bool:
    # The join predicate must touch the recursion only through
    # invariant fields (or segment/inner vars); the inner operand must
    # be independent of the recursion.
    if any(
        isinstance(n, RecLeaf) and n.name == fix.name
        for n in node.right.walk()
    ):
        return False
    inner_vars = node.right.output_vars()
    return _pushable_predicate(
        node.predicate, fix_var, invariant, segment_vars | inner_vars
    )


# ---------------------------------------------------------------------------
# Applying the push
# ---------------------------------------------------------------------------

class _Renamer:
    """Renames segment-internal variables per union part.

    ``aliases`` maps a segment variable to a part variable when the
    pushed hop that introduced it collapsed away (its dereference
    target is already bound inside the part — e.g. pushing
    ``IJ[k.assembly]`` into the base part, where ``assembly`` *is* the
    part's own range variable)."""

    def __init__(self, suffix: str, internal: Set[str]) -> None:
        self.suffix = suffix
        self.internal = internal
        self.aliases: Dict[str, str] = {}

    def var(self, name: str) -> str:
        if name in self.aliases:
            return self.aliases[name]
        if name in self.internal:
            return f"{name}{self.suffix}"
        return name

    def path(self, path: PathRef) -> PathRef:
        return PathRef(self.var(path.var), path.attrs)

    def expr(self, expr: Expr) -> Expr:
        if isinstance(expr, PathRef):
            return self.path(expr)
        if isinstance(expr, FunctionApp):
            return FunctionApp(
                expr.name,
                [self.expr(a) for a in expr.args],
                expr.fn,
                expr.eval_weight,
            )
        return expr

    def predicate(self, predicate: Predicate) -> Predicate:
        mapping = {
            name: PathRef(self.var(name))
            for name in predicate.variables()
            if name in self.internal
        }
        return predicate.substitute(mapping) if mapping else predicate


def apply_filter(plan: PlanNode, segment: PushableSegment) -> PlanNode:
    """Apply the ``filter`` action for one segment; returns the new plan."""
    fix = segment.fix
    new_parts: List[PlanNode] = []
    for part_index, part in enumerate(flatten_union(fix.body)):
        new_parts.append(
            _push_into_part(part, segment, part_index)
        )
    new_body = new_parts[0]
    for part in new_parts[1:]:
        new_body = UnionOp(new_body, part)
    new_fix = Fix(
        fix.name,
        new_body,
        fix.out_var,
        fix.recursion_entity,
        fix.recursion_attribute,
        set(fix.invariant_fields),
    )
    # Rebuild the pipeline above: Fix, then the kept selections, then
    # whatever was above the segment.
    replacement: PlanNode = new_fix
    for kept in segment.kept:
        assert isinstance(kept, Sel)
        replacement = Sel(replacement, kept.predicate)
    return segment.path.rebuild(replacement)


def _push_into_part(
    part: PlanNode, segment: PushableSegment, part_index: int
) -> PlanNode:
    """Insert the (renamed, source-substituted) segment below the
    part's output projection."""
    if not isinstance(part, Proj):
        raise OptimizationError(
            "filter expects fixpoint parts shaped Proj(...); got "
            f"{part.label()}"
        )
    fields: Dict[str, Expr] = {
        output_field.name: output_field.expr
        for output_field in part.fields.fields
    }
    internal: Set[str] = set()
    for node in segment.pushed:
        internal |= _introduced_vars(node)
    renamer = _Renamer(f"_p{part_index}", internal)
    inner = part.child
    for node in segment.pushed:
        inner = _clone_pushed_node(node, inner, segment.fix.out_var, fields, renamer)
    return Proj(inner, part.fields)


def _substitute_source(
    path: PathRef, fix_var: str, fields: Dict[str, Expr], renamer: _Renamer
) -> PathRef:
    """Rewrite a segment path for use inside a part.

    ``fix_var.f.rest`` becomes the part's expression for field ``f``
    extended by ``rest``; segment-internal variables are renamed."""
    if path.var == fix_var:
        if not path.attrs:
            raise OptimizationError("cannot push a whole-tuple reference")
        field_name, rest = path.attrs[0], path.attrs[1:]
        expr = fields.get(field_name)
        if not isinstance(expr, PathRef):
            raise OptimizationError(
                f"field {field_name!r} is not a path in the part output; "
                "cannot push through it"
            )
        return PathRef(expr.var, expr.attrs + rest)
    return renamer.path(path)


def _rewrite_predicate(
    predicate: Predicate,
    fix_var: str,
    fields: Dict[str, Expr],
    renamer: _Renamer,
) -> Predicate:
    from repro.querygraph.predicates import And, Comparison, Not, Or, TruePredicate

    if isinstance(predicate, TruePredicate):
        return predicate
    if isinstance(predicate, And):
        return And(
            *[_rewrite_predicate(p, fix_var, fields, renamer) for p in predicate.parts]
        )
    if isinstance(predicate, Or):
        return Or(
            *[_rewrite_predicate(p, fix_var, fields, renamer) for p in predicate.parts]
        )
    if isinstance(predicate, Not):
        return Not(_rewrite_predicate(predicate.part, fix_var, fields, renamer))
    if isinstance(predicate, Comparison):
        return Comparison(
            predicate.op,
            _rewrite_expr(predicate.left, fix_var, fields, renamer),
            _rewrite_expr(predicate.right, fix_var, fields, renamer),
        )
    return predicate


def _rewrite_expr(
    expr: Expr, fix_var: str, fields: Dict[str, Expr], renamer: _Renamer
) -> Expr:
    if isinstance(expr, PathRef):
        if expr.var == fix_var:
            return _substitute_source(expr, fix_var, fields, renamer)
        return renamer.path(expr)
    if isinstance(expr, FunctionApp):
        return FunctionApp(
            expr.name,
            [_rewrite_expr(a, fix_var, fields, renamer) for a in expr.args],
            expr.fn,
            expr.eval_weight,
        )
    return expr


def _clone_pushed_node(
    node: PlanNode,
    inner: PlanNode,
    fix_var: str,
    fields: Dict[str, Expr],
    renamer: _Renamer,
) -> PlanNode:
    if isinstance(node, Sel):
        return Sel(
            inner, _rewrite_predicate(node.predicate, fix_var, fields, renamer)
        )
    if isinstance(node, IJ):
        new_source = _substitute_source(node.source, fix_var, fields, renamer)
        if not new_source.attrs:
            # The dereference target is already a bound record inside
            # the part: the hop collapses and its output variable
            # aliases the part variable.
            renamer.aliases[node.out_var] = new_source.var
            return inner
        return IJ(
            inner,
            EntityLeaf(node.target.entity, renamer.var(node.target.var)),
            new_source,
            renamer.var(node.out_var),
        )
    if isinstance(node, PIJ):
        return PIJ(
            inner,
            [
                EntityLeaf(t.entity, renamer.var(t.var))
                for t in node.targets
            ],
            node.attributes,
            _substitute_source(node.source, fix_var, fields, renamer),
            [renamer.var(v) for v in node.out_vars],
        )
    if isinstance(node, EJ):
        right = _rename_subtree(node.right, renamer)
        predicate = _rewrite_predicate(node.predicate, fix_var, fields, renamer)
        algorithm = node.algorithm
        if algorithm != INDEX_JOIN:
            # The part's variables replace the Fix's, and a join
            # swapped to put the Fix outer arrives as a plain nested
            # loop: whether the predicate has an equality key is asked
            # anew.
            algorithm = scan_join_algorithm(
                predicate, right, inner.output_vars()
            )
        return EJ(inner, right, predicate, algorithm)
    raise OptimizationError(f"cannot push node {node.label()}")


def _rename_subtree(node: PlanNode, renamer: _Renamer) -> PlanNode:
    """Deep-rename an EJ inner operand's variables for one part copy."""
    if isinstance(node, EntityLeaf):
        return EntityLeaf(node.entity, renamer.var(node.var))
    if isinstance(node, TempLeaf):
        return TempLeaf(node.entity, renamer.var(node.var))
    if isinstance(node, Sel):
        return Sel(
            _rename_subtree(node.child, renamer),
            renamer.predicate(node.predicate),
        )
    if isinstance(node, Proj):
        return Proj(
            _rename_subtree(node.child, renamer),
            OutputSpec(
                [
                    OutputField(f.name, renamer.expr(f.expr))
                    for f in node.fields.fields
                ]
            ),
        )
    if isinstance(node, IJ):
        return IJ(
            _rename_subtree(node.child, renamer),
            EntityLeaf(node.target.entity, renamer.var(node.target.var)),
            renamer.path(node.source),
            renamer.var(node.out_var),
        )
    if isinstance(node, PIJ):
        return PIJ(
            _rename_subtree(node.child, renamer),
            [EntityLeaf(t.entity, renamer.var(t.var)) for t in node.targets],
            node.attributes,
            renamer.path(node.source),
            [renamer.var(v) for v in node.out_vars],
        )
    if isinstance(node, EJ):
        return EJ(
            _rename_subtree(node.left, renamer),
            _rename_subtree(node.right, renamer),
            renamer.predicate(node.predicate),
            node.algorithm,
        )
    if isinstance(node, UnionOp):
        return UnionOp(
            _rename_subtree(node.left, renamer),
            _rename_subtree(node.right, renamer),
        )
    raise OptimizationError(
        f"cannot rename subtree containing {node.label()}"
    )


# ---------------------------------------------------------------------------
# The action and the candidate set
# ---------------------------------------------------------------------------

def _filter_applications(plan: PlanNode) -> Iterator[Application[PlanNode]]:
    for segment in find_filter_sites(plan):
        yield Application(
            filter_action,
            segment.describe(),
            lambda segment=segment: apply_filter(plan, segment),
        )


filter_action: Action[PlanNode] = Action("filter", _filter_applications)


def transform_candidates(plan: PlanNode) -> List[Tuple[str, PlanNode]]:
    """The original plan plus every plan reachable by applying filter
    pushes up to saturation: the candidates transformPT costs when it
    runs no search, and the set the always/never-push baselines pick
    their plan from.

    (Each application may expose further applicable segments on the
    transformed plan — e.g. a selection behind a join — so we close
    transitively, bounded by a small depth.  Dedup is on the plan term:
    pushing independent segments in either order builds the same term,
    because the renamer's ``_pN`` suffix names the union part, not the
    push order, so each distinct candidate is costed once.)"""
    seen: Dict[PlanNode, str] = {plan: "original"}
    frontier: List[PlanNode] = [plan]
    for _depth in range(4):
        next_frontier: List[PlanNode] = []
        for candidate in frontier:
            for application in _filter_applications(candidate):
                transformed = application.apply()
                if transformed not in seen:
                    seen[transformed] = application.description
                    next_frontier.append(transformed)
        if not next_frontier:
            break
        frontier = next_frontier
    return [(description, plan) for plan, description in seen.items()]
