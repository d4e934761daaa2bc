"""Shared validation for the engine's execution knobs.

All integer knobs (``batch_size``, ``shards``) are validated in one
place (:func:`validate_knob`) and enumerated ones (the optimizer's
``push_policy``) in another (:func:`validate_choice`), so every entry
point — the engine constructor, the service config, the protocol
fields, the optimizer config — rejects a bad value with the same
message.
"""

from __future__ import annotations

from typing import Optional, Sequence

__all__ = ["validate_choice", "validate_knob"]


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
    """Validate one enumerated knob (e.g. the optimizer's
    ``push_policy``); ``None`` is always allowed.  Raises
    :class:`ValueError` listing the accepted values."""
    if value is None:
        return
    if not isinstance(value, str) or value not in choices:
        accepted = ", ".join(choices)
        raise ValueError(f"{name} must be one of: {accepted}")
