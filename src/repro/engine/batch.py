"""The batch abstraction of the vectorized execution engine.

The engine's operators exchange :class:`Batch` objects instead of
single bindings.  One generator resumption, one cancellation poll and
one metering probe then cover ``batch_size`` tuples, so the Python
dispatch overhead that tuple-at-a-time pipelines pay per binding is
amortized across the whole batch (the batch-at-a-time runtime substrate
transformation-based recursive optimizers assume; see
``docs/architecture.md`` for the operator ABI).

A batch holds its bindings as uniform-schema columns — a dict of
column name → value list (:meth:`Batch.from_columns`) — which is what
scans, filters, projections and the implicit/path-index joins emit and
what the column kernels of :mod:`repro.engine.eval_expr` read.  The
binding dicts are materialized lazily (and cached) the first time a
consumer touches ``.rows``.  Operators that build their output one
merged binding at a time (the explicit joins, index-assisted
selections) construct the batch from those dicts instead
(``Batch(rows, node_id)``); such a batch has no native column store, so
a kernel handed one declines and the operator evaluates it through the
per-row closure — same truth values, same counters, same charge order.

``batch_size=1`` degenerates to the exact tuple-at-a-time semantics:
every batch carries one binding, and all per-batch bookkeeping happens
per tuple — the compatibility path CI pins with ``REPRO_BATCH_SIZE=1``.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from repro.obs.log import get_logger
from repro.units import DEFAULT_BATCH_SIZE

__all__ = [
    "Batch",
    "DEFAULT_BATCH_SIZE",
    "default_batch_size",
]

_LOG = get_logger("engine")


def default_batch_size() -> int:
    """The engine-wide default batch size.

    ``REPRO_BATCH_SIZE`` overrides the built-in default so an entire
    test run can be pinned to the tuple-at-a-time compatibility path
    (``REPRO_BATCH_SIZE=1``) without touching any call site.  A
    malformed or out-of-range value falls back to the default — with a
    structured warning, so a typo'd environment cannot silently run a
    whole suite at the wrong batch size.
    """
    raw = os.environ.get("REPRO_BATCH_SIZE")
    if not raw:
        return DEFAULT_BATCH_SIZE
    try:
        size = int(raw)
    except ValueError:
        _LOG.warning(
            "ignoring malformed REPRO_BATCH_SIZE",
            extra={"value": raw, "default": DEFAULT_BATCH_SIZE},
        )
        return DEFAULT_BATCH_SIZE
    if size < 1:
        _LOG.warning(
            "ignoring out-of-range REPRO_BATCH_SIZE",
            extra={"value": raw, "default": DEFAULT_BATCH_SIZE},
        )
        return DEFAULT_BATCH_SIZE
    return size


class Batch:
    """One unit of exchange between plan operators.

    ``node_id`` identifies the plan node that produced the batch (the
    same stable pre-order id that keys per-node tuple counters and
    profiler records).  Operators never emit empty batches; a consumer
    may therefore treat every received batch as carrying at least one
    binding.

    Batches built by :meth:`from_columns` hold their bindings as
    uniform-schema columns; ``.rows`` materializes (and caches) the
    binding dicts on first touch, preserving binding order and the
    column-insertion field order.  Batches built from binding dicts
    (``Batch(rows)``) answer ``.columns`` by transposing on demand but
    are not :attr:`is_columnar` — the column kernels decline them.
    """

    __slots__ = ("_rows", "_columns", "_length", "node_id")

    def __init__(self, rows: List[dict], node_id: Optional[str] = None) -> None:
        self._rows = rows
        self._columns: Optional[Dict[str, list]] = None
        self._length = len(rows)
        self.node_id = node_id

    @classmethod
    def from_columns(
        cls,
        columns: Dict[str, list],
        node_id: Optional[str] = None,
        length: Optional[int] = None,
    ) -> "Batch":
        """A columnar batch over ``columns`` (column name → value list,
        all the same length; the dict's insertion order is the field
        order of the materialized bindings)."""
        batch = cls.__new__(cls)
        batch._rows = None
        batch._columns = columns
        if length is None:
            length = len(next(iter(columns.values()))) if columns else 0
        batch._length = length
        batch.node_id = node_id
        return batch

    @property
    def is_columnar(self) -> bool:
        """Whether this batch natively carries columns (materialized
        rows, if any, are a cache — the columns stay authoritative)."""
        return self._columns is not None

    @property
    def columns(self) -> Dict[str, list]:
        """The column store (column name → value list).

        Columnar batches return their native store; row batches build
        one on the fly from the first row's field order (the rows of
        one batch share a schema — every operator emits uniform
        bindings).  Callers must not mutate the returned lists.
        """
        if self._columns is not None:
            return self._columns
        rows = self._rows
        if not rows:
            return {}
        return {name: [row[name] for row in rows] for name in rows[0]}

    @property
    def rows(self) -> List[dict]:
        """The binding dicts (lazily materialized for columnar batches,
        then cached — repeated consumers pay the build once)."""
        rows = self._rows
        if rows is None:
            rows = self._materialize()
            self._rows = rows
        return rows

    def _materialize(self) -> List[dict]:
        columns = self._columns
        names = list(columns)
        # Dict-literal comprehensions for the dominant narrow schemas;
        # they beat dict(zip(...)) by a constant factor that matters at
        # scan speed.
        if len(names) == 1:
            name = names[0]
            return [{name: value} for value in columns[name]]
        if len(names) == 2:
            first, second = names
            return [
                {first: a, second: b}
                for a, b in zip(columns[first], columns[second])
            ]
        if not names:
            return [{} for _ in range(self._length)]
        return [dict(zip(names, values)) for values in zip(*columns.values())]

    def __len__(self) -> int:
        return self._length

    def __iter__(self):
        return iter(self.rows)

    def __bool__(self) -> bool:
        return self._length > 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        layout = "columnar" if self._columns is not None else "row"
        return (
            f"Batch({self._length} rows, {layout}, node_id={self.node_id!r})"
        )

