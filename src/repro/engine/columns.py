"""Column-store helpers for the engine's batches.

A :class:`~repro.engine.batch.Batch` carries a dict of column name →
value list.  This module holds the small shared vocabulary the column
kernels need: cheap whole-column type classification (one C-level pass
with ``set(map(type, column))`` instead of per-value ``isinstance``
chains) and index-list gathering.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

__all__ = [
    "column_kinds",
    "is_plain_kinds",
    "has_structured_kinds",
    "gather",
    "gather_columns",
]

#: Value types the vectorized comparison kernels accept: plain atoms
#: whose comparisons cannot dereference, charge or recurse.
_PLAIN_KINDS = frozenset({int, float, str, bool})
_STRUCTURED_KINDS = frozenset({list, tuple, dict, set, frozenset})


def column_kinds(column: Sequence[object]) -> frozenset:
    """The set of concrete value types in a column (one C-level pass)."""
    return frozenset(map(type, column))


def is_plain_kinds(kinds: frozenset) -> bool:
    """Whether every value of a column with these kinds is a plain atom
    (no records, oids, collections or None — nothing a comparison could
    dereference or that the row-at-a-time fast path would reject)."""
    return kinds <= _PLAIN_KINDS


def has_structured_kinds(kinds: frozenset) -> bool:
    """Whether a column with these kinds holds any collection values
    (multivalued emission — column projections bail to row order so the
    multivalued-output error keeps its row-major raise point)."""
    return bool(kinds & _STRUCTURED_KINDS)


def gather(column: Sequence[object], indices: Sequence[int]) -> List[object]:
    """The values of one column at ``indices`` (order-preserving)."""
    return [column[i] for i in indices]


def gather_columns(
    columns: Dict[str, Sequence[object]],
    indices: Sequence[int],
    length: Optional[int] = None,
) -> Dict[str, List[object]]:
    """All columns gathered at ``indices``.  When ``indices`` selects
    every position of a column store of known ``length`` the input
    lists are reused unchanged — batches are immutable after emission,
    so a non-selective filter forwards its input columns for free."""
    if length is not None and len(indices) == length:
        return dict(columns)
    return {name: [col[i] for i in indices] for name, col in columns.items()}
