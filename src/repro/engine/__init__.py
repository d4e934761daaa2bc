"""Execution engine: plan evaluator, semi-naive fixpoint, reference
(ground-truth) evaluator and runtime metrics."""

from repro.engine.batch import Batch, DEFAULT_BATCH_SIZE, default_batch_size
from repro.engine.cancel import CancellationToken
from repro.engine.context import ExecutionContext
from repro.engine.eval_expr import (
    Binding,
    ExpressionEvaluator,
    canonical_row,
    normalize_value,
)
from repro.engine.evaluator import Engine, ExecutionResult
from repro.engine.fixpoint import flatten_union, partition_parts
from repro.engine.metrics import RuntimeMetrics
from repro.engine.reference import ReferenceEvaluator

__all__ = [
    "Batch",
    "DEFAULT_BATCH_SIZE",
    "default_batch_size",
    "Binding",
    "CancellationToken",
    "ExecutionContext",
    "ExpressionEvaluator",
    "canonical_row",
    "normalize_value",
    "Engine",
    "ExecutionResult",
    "flatten_union",
    "partition_parts",
    "RuntimeMetrics",
    "ReferenceEvaluator",
]
