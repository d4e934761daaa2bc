"""Shard workers and per-request shard sessions.

A :class:`ShardWorker` is one shard of the cluster: a replica of the
coordinator's physical schema over the shard's **own buffer pool**
(its private LRU residency and simulated device latency are what make
shard-local I/O overlap, and therefore what the distributed fixpoint's
speedup comes from).  Workers are shared-nothing by construction —
they never read through the coordinator's buffer, and nothing a shard
stages is visible to any other shard — so the design is
process-shaped; the in-process implementation runs them on pool
threads, with the scatter/gather legs crossing the real line-JSON
framing so byte volumes are honest.

A :class:`ShardSession` is one request's private view of a worker:
its own counting buffer view (shared residency, private counters —
see :class:`repro.physical.buffer.BufferView`), its own store/schema
replica for delta staging, and its own engine view with thread-confined
metrics.  Sessions are what make per-shard work attributable to the
owning request even when shard workers serve several coordinators
concurrently: nothing a session counts is shared with any other
session.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.engine.fixpoint import normalize_binding, normalized_columns
from repro.physical.buffer import BufferPool
from repro.physical.schema import PhysicalSchema
from repro.physical.storage import StoredRecord

__all__ = ["ShardWorker", "ShardSession"]

#: Oid-range stride separating each shard's allocator band from the
#: coordinator's (and each session's sub-band within the shard).  A
#: staged oid leaking into another store then fails loudly as an
#: ``OidError`` instead of silently resolving to an unrelated record.
OID_STRIDE = 1_000_000_000
SESSION_STRIDE = 1_000_000


class ShardWorker:
    """One shard: a zero-copy schema replica behind a private buffer."""

    def __init__(
        self,
        index: int,
        source: PhysicalSchema,
        buffer_capacity: Optional[int] = None,
        io_latency: Optional[float] = None,
    ) -> None:
        self.index = index
        source_buffer = source.store.buffer
        self.buffer = BufferPool(
            source_buffer.capacity if buffer_capacity is None else buffer_capacity,
            source_buffer.io_latency if io_latency is None else io_latency,
        )
        store = source.store.replica_view(
            self.buffer, oid_offset=OID_STRIDE * (index + 1)
        )
        self.schema = source.shard_view(store)
        self._session_count = 0

    def open_session(self, coordinator_engine) -> "ShardSession":
        """A fresh per-request session (coordinator thread only)."""
        self._session_count += 1
        return ShardSession(self, coordinator_engine, self._session_count)


class ShardSession:
    """One request's private evaluation context on one shard."""

    def __init__(self, worker: ShardWorker, coordinator_engine, seq: int) -> None:
        self.worker = worker
        self.shard = worker.index
        #: Counting view: residency stays with the shard's pool, the
        #: logical/physical counters are ours alone.
        self.io = worker.buffer.view()
        store = worker.schema.store.replica_view(
            self.io, oid_offset=SESSION_STRIDE * (seq % 900)
        )
        self.schema = worker.schema.shard_view(store)
        self.engine = coordinator_engine.shard_view(self.schema)
        self._staging: Dict[str, str] = {}

    def stage_delta(
        self, fix_name: str, tuples: List[Dict[str, object]]
    ) -> List[StoredRecord]:
        """Materialize a received delta partition into this session's
        staging extent.  Staged records get page ids of their own, so
        the recursive parts' ``RecLeaf`` scans charge page touches to
        this shard's buffer — the delta genuinely lives here for the
        round."""
        name = self._staging.get(fix_name)
        if name is None:
            info = self.schema.register_temp(f"shard{self.shard}_{fix_name}")
            name = info.name
            self._staging[fix_name] = name
        store = self.engine.store
        insert = store.insert
        peek = store.peek
        return [peek(insert(name, values)) for values in tuples]

    def evaluate(self, part, env) -> List[Dict[str, object]]:
        """Run one union part shard-locally — the session engine
        streams PR 5's batch pipeline against the shard replica — and
        return the produced bindings, normalized for the wire."""
        produced: List[Dict[str, object]] = []
        engine = self.engine
        for batch in engine.iterate_batches(part, env):
            engine.check_cancelled()
            if batch.is_columnar:
                # Normalize column-wise; bindings are assembled in the
                # batch's field order, matching what the row path's
                # per-binding ``normalize_binding`` would produce.
                names, cols, _, _ = normalized_columns(batch.columns)
                produced.extend(
                    {name: col[index] for name, col in zip(names, cols)}
                    for index in range(len(batch))
                )
            else:
                produced.extend(
                    normalize_binding(binding) for binding in batch.rows
                )
        return produced

    def close(self) -> int:
        """Drop the session's staging extents (session-private; the
        coordinator's temp cleanup never sees them).  Returns how many
        extents were dropped so cleanup is traceable per shard."""
        dropped = 0
        for name in self._staging.values():
            if self.schema.has_entity(name):
                self.schema.drop_temp(name)
                dropped += 1
        self._staging.clear()
        self.engine.drop_replays()
        return dropped
