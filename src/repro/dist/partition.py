"""Partitioning: how tuples and extents map onto shards.

Two placement kinds, mirroring the classical distributed-query split:

* **replicated** — every shard holds the extent in full.  The cluster
  replicates all *base* extents (zero-copy: shard stores share the
  immutable records and page placement, each behind its own buffer
  pool), because object-oriented plans dereference oids freely — a
  pointer join against a partitioned base extent would need remote
  fetches mid-operator.
* **partitioned** — tuples are divided across shards by a hash (or
  range) of a key.  The recursion's tuple space is partitioned this
  way at runtime: each semi-naive round hashes the delta on the
  recursion-binding columns (:func:`partition_delta`), so each shard
  owns a disjoint slice of new-tuple discovery.  Only parts where that
  split keeps per-node tuple counts additive over the slices are
  partitioned (:func:`partitionable`); the rest take the whole delta.

:class:`ShardMap` records these placements; the distributed-Fix cost
terms (:mod:`repro.cost.distributed`) price a round's delta kept in
place (shard-local) or re-hashed (repartitioned).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

from repro.physical.storage import StoredRecord
from repro.plans.nodes import (
    EJ,
    IJ,
    PIJ,
    Fix,
    Materialize,
    PlanNode,
    Proj,
    RecLeaf,
    Sel,
)

__all__ = [
    "hash_shard",
    "range_shard",
    "ShardMap",
    "parallel_safe",
    "partitionable",
    "partition_delta",
]

REPLICATED = "replicated"
PARTITIONED = "partitioned"


def hash_shard(key: Tuple[object, ...], shards: int) -> int:
    """Deterministic shard index of a partition-key tuple (an
    unhashable field value falls back to hashing the key's repr)."""
    try:
        return hash(key) % shards
    except TypeError:  # an unhashable field value; rare but legal
        return hash(repr(key)) % shards


def range_shard(value, boundaries: Sequence[object]) -> int:
    """Shard index of ``value`` under range partitioning: ``boundaries``
    is the sorted list of split points; values below the first boundary
    go to shard 0, between boundary ``i-1`` and ``i`` to shard ``i``."""
    return bisect_right(list(boundaries), value)


def parallel_safe(fix: Fix) -> bool:
    """Whether a Fix body may be evaluated by concurrent workers.

    A nested ``Fix`` or ``Materialize`` inside a part registers
    temporaries and consults the per-execution fix cache — shared
    mutable state whose dedup-by-caching makes tuple counts depend on
    evaluation order.  Such bodies take the serial path.
    """
    return not any(
        isinstance(node, (Fix, Materialize)) for node in fix.body.walk()
    )


def partitionable(part: PlanNode, name: str) -> bool:
    """Whether hash-partitioning the delta preserves ``part``'s
    semantics and per-node tuple counts.

    True when the part contains exactly one recursion reference and it
    sits on the driving (outer) chain — ``Sel``/``Proj``/``IJ``/``PIJ``
    descend to their child, ``EJ`` to its left operand.  Every other
    operator's work is then a function of the delta tuples flowing
    past it, so counts are additive over disjoint slices.  A recursion
    reference on an inner (re-scanned) side would instead be rescanned
    per slice, multiplying the outer side's work.
    """
    references = [
        node
        for node in part.walk()
        if isinstance(node, RecLeaf) and node.name == name
    ]
    if len(references) != 1:
        return False
    node = part
    while True:
        if isinstance(node, RecLeaf):
            return node.name == name
        if isinstance(node, (Sel, Proj, IJ, PIJ)):
            node = node.child
        elif isinstance(node, EJ):
            node = node.left
        else:
            return False


def _rebinding_fields(fix: Fix, delta: Sequence[StoredRecord]) -> List[str]:
    """The recursion-binding columns: the tuple fields rewritten from
    one iteration to the next (everything but the invariant fields).
    Falls back to the full field set when all fields are invariant."""
    if not delta:
        return []
    fields = sorted(delta[0].values)
    rebinding = [f for f in fields if f not in fix.invariant_fields]
    return rebinding or fields


def partition_delta(
    delta: Sequence[StoredRecord],
    workers: int,
    fields: Sequence[str],
) -> List[List[StoredRecord]]:
    """Hash-partition delta records on their recursion-binding columns
    into ``workers`` (possibly empty) disjoint slices; deterministic
    for a given delta content."""
    slices: List[List[StoredRecord]] = [[] for _ in range(workers)]
    for record in delta:
        values = record.values
        key = tuple(values.get(field) for field in fields)
        slices[hash_shard(key, workers)].append(record)
    return slices


class ShardMap:
    """Placement metadata for one cluster.

    Every extent starts implicitly replicated (base data).  A
    distributed fixpoint registers its recursion as partitioned on its
    rebinding columns when it first runs, so observability and the
    cost model can see which keys route where.
    """

    def __init__(self, shards: int) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.shards = shards
        self._placements: Dict[str, str] = {}
        self._partition_keys: Dict[str, Tuple[str, ...]] = {}
        self._range_boundaries: Dict[str, Tuple[object, ...]] = {}

    def place_replicated(self, name: str) -> None:
        self._placements[name] = REPLICATED
        self._partition_keys.pop(name, None)
        self._range_boundaries.pop(name, None)

    def place_partitioned(
        self,
        name: str,
        key_fields: Sequence[str],
        range_boundaries: Optional[Sequence[object]] = None,
    ) -> None:
        """Mark ``name`` hash-partitioned on ``key_fields`` (or
        range-partitioned on the single key field when ``range_boundaries``
        is given, one fewer boundary than shards)."""
        if range_boundaries is not None:
            if len(key_fields) != 1:
                raise ValueError("range partitioning takes exactly one key field")
            if len(range_boundaries) != self.shards - 1:
                raise ValueError(
                    f"range partitioning over {self.shards} shards needs "
                    f"{self.shards - 1} boundaries"
                )
            self._range_boundaries[name] = tuple(range_boundaries)
        else:
            self._range_boundaries.pop(name, None)
        self._placements[name] = PARTITIONED
        self._partition_keys[name] = tuple(key_fields)

    def placement(self, name: str) -> str:
        return self._placements.get(name, REPLICATED)

    def is_partitioned(self, name: str) -> bool:
        return self.placement(name) == PARTITIONED

    def partition_key(self, name: str) -> Tuple[str, ...]:
        return self._partition_keys.get(name, ())

    def shard_of(self, name: str, values: Dict[str, object]) -> Optional[int]:
        """The shard owning a tuple of a partitioned extent (None for
        replicated extents — any shard can serve them)."""
        if not self.is_partitioned(name):
            return None
        key_fields = self._partition_keys[name]
        boundaries = self._range_boundaries.get(name)
        if boundaries is not None:
            return range_shard(values.get(key_fields[0]), boundaries)
        return hash_shard(
            tuple(values.get(field) for field in key_fields), self.shards
        )

    def to_dict(self) -> dict:
        """JSON-friendly summary (shown by telemetry and docs tooling)."""
        return {
            "shards": self.shards,
            "placements": {
                name: {
                    "kind": kind,
                    "key": list(self._partition_keys.get(name, ())),
                    "scheme": (
                        "range" if name in self._range_boundaries else "hash"
                    )
                    if kind == PARTITIONED
                    else None,
                }
                for name, kind in sorted(self._placements.items())
            },
        }
