"""The cost-controlled optimizer (Section 4 of the paper)."""

from repro.core.actions import Action, Application, saturate
from repro.core.baselines import (
    brute_force_enumerate,
    cost_controlled_optimizer,
    deductive_optimizer,
    exhaustive_optimizer,
    naive_optimizer,
)
from repro.core.enumerate import (
    EnumerationStats,
    MemoizedEnumeration,
    SearchResult,
    SearchStrategy,
)
from repro.core.fold import fold_action, fold_views
from repro.core.generate import GeneratedPlan, SPJGenerator
from repro.core.moves import neighbors
from repro.core.optimizer import OptimizationResult, Optimizer, OptimizerConfig
from repro.core.rewrite import fixpoint_action, rewrite, union_action
from repro.core.transform import (
    PushableSegment,
    apply_filter,
    filter_action,
    find_filter_sites,
    transform_candidates,
)
from repro.core.translate import Hop, TranslatedArc, TranslatedNode, Translator

__all__ = [
    "Action",
    "Application",
    "saturate",
    "brute_force_enumerate",
    "cost_controlled_optimizer",
    "deductive_optimizer",
    "exhaustive_optimizer",
    "naive_optimizer",
    "EnumerationStats",
    "MemoizedEnumeration",
    "fold_action",
    "fold_views",
    "GeneratedPlan",
    "SPJGenerator",
    "neighbors",
    "OptimizationResult",
    "Optimizer",
    "OptimizerConfig",
    "fixpoint_action",
    "rewrite",
    "union_action",
    "SearchResult",
    "SearchStrategy",
    "PushableSegment",
    "apply_filter",
    "filter_action",
    "find_filter_sites",
    "transform_candidates",
    "Hop",
    "TranslatedArc",
    "TranslatedNode",
    "Translator",
]
