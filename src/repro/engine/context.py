"""Per-execution settings for the engine.

:class:`ExecutionContext` bundles everything that varies per run of a
plan — the cancellation token, the optional profiler and the
``batch_size`` / ``shards`` knobs — so callers (CLI, service, tests)
thread one object instead of a growing keyword list.
``Engine.execute`` still accepts the individual keywords for
convenience; an explicit context wins over them.

All integer knobs are validated in one place
(:func:`validate_knob`, called from ``__post_init__``), so every
entry point — the context, the engine constructor, the service's
protocol fields — rejects a bad value with the same message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.engine.cancel import CancellationToken
from repro.obs.profile import PlanProfiler

__all__ = ["ExecutionContext", "validate_choice", "validate_knob"]


def validate_knob(name: str, value: Optional[int], minimum: int = 1) -> None:
    """Validate one integer execution knob; ``None`` is always allowed
    (it means "use the configured default").  Raises :class:`ValueError`
    with the shared ``"<name> must be >= <minimum>"`` message."""
    if value is None:
        return
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer >= {minimum}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")


def validate_choice(
    name: str, value: Optional[str], choices: Sequence[str]
) -> None:
    """Validate one enumerated knob (e.g. the per-request optimizer
    ``strategy``); ``None`` is always allowed.  Raises
    :class:`ValueError` listing the accepted values."""
    if value is None:
        return
    if not isinstance(value, str) or value not in choices:
        accepted = ", ".join(choices)
        raise ValueError(f"{name} must be one of: {accepted}")


@dataclass
class ExecutionContext:
    """Knobs for one ``Engine.execute`` call."""

    #: Cooperative cancellation/timeout token, polled at safe points.
    cancel: Optional[CancellationToken] = None
    #: Per-node runtime profiler (EXPLAIN ANALYZE); None = no metering.
    profiler: Optional[PlanProfiler] = None
    #: Bindings per batch exchanged between operators; None keeps the
    #: engine's configured size, 1 pins the exact tuple-at-a-time
    #: compatibility semantics.
    batch_size: Optional[int] = None
    #: Shard workers a fixpoint may scatter delta partitions across;
    #: 1 = single-store evaluation, >1 = the distributed scatter-gather
    #: rounds of :mod:`repro.dist` (requires a cluster on the engine).
    shards: int = 1

    def __post_init__(self) -> None:
        validate_knob("batch_size", self.batch_size)
        validate_knob("shards", self.shards)
