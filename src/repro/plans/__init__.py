"""Processing-tree plan algebra (Section 3.1 of the paper)."""

from repro.plans.display import render_functional, render_tree
from repro.plans.nodes import (
    EJ,
    HASH_JOIN,
    IJ,
    INDEX_JOIN,
    NESTED_LOOP,
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
from repro.plans.patterns import (
    PlanPath,
    find_all,
    paths_to,
    rewrite_once,
    rewrite_saturate,
)
from repro.plans.validate import validate_plan

__all__ = [
    "EJ",
    "HASH_JOIN",
    "IJ",
    "INDEX_JOIN",
    "NESTED_LOOP",
    "PIJ",
    "EntityLeaf",
    "Fix",
    "Materialize",
    "PlanNode",
    "Proj",
    "RecLeaf",
    "Sel",
    "TempLeaf",
    "UnionOp",
    "PlanPath",
    "find_all",
    "paths_to",
    "rewrite_once",
    "rewrite_saturate",
    "validate_plan",
    "render_functional",
    "render_tree",
]
