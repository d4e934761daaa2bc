"""Live fixpoint introspection: per-round progress of running queries.

``EXPLAIN ANALYZE`` is post-mortem — it reports after the query
finished.  A long recursive query on a sharded store deserves a live
view: which semi-naive round it is on, how fast the frontier is
shrinking, which shard is the straggler.  This module provides the
plumbing: the engine exposes a ``progress`` attribute (``None`` by
default, zero hot-path cost) that the semi-naive loop hands each
round's :class:`~repro.obs.profile.FixIterationProfile` — the record
the profiler keeps too; the service points it at a
:class:`QueryProgress` handle minted from the shared
:class:`ProgressTracker`, whose :meth:`snapshot` the ``progress``
service op serializes for ``repro top``.

Thread safety: ``record_fix_iteration`` is called from the
coordinating thread of one query while ``snapshot`` is called from
service threads; both sides take the tracker/handle lock, and each
round record is an immutable dict once appended.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Dict, List, Optional

from repro.obs.profile import FixIterationProfile

__all__ = ["QueryProgress", "ProgressTracker", "ROUND_RING_SIZE"]

#: Rounds retained per query (a bounded ring: deep recursions keep the
#: most recent rounds; the totals keep counting past the ring).
ROUND_RING_SIZE = 32


class QueryProgress:
    """Live per-round state of one running query.

    The semi-naive loop calls :meth:`record_fix_iteration` once per
    completed round; ``repro top`` reads :meth:`snapshot`.  Sharded
    rounds' records also carry the per-shard delta, skew, exchange
    volume and barrier wait.  ``on_round(entry, shards)`` sees every
    record with this query's shard width.
    """

    def __init__(
        self,
        request_id: str,
        query: str = "",
        shards: int = 1,
        on_round: Optional[Callable[[FixIterationProfile, int], None]] = None,
    ) -> None:
        self.request_id = request_id
        self.query = query
        self.shards = shards
        self.started = time.time()
        self._lock = threading.Lock()
        self._rounds: deque = deque(maxlen=ROUND_RING_SIZE)
        self._round_count = 0
        self._total_delta = 0
        self._on_round = on_round
        self.finished: Optional[float] = None

    def record_fix_iteration(self, fix: str, entry: FixIterationProfile) -> None:
        """Append one round record of the ``fix`` loop (the object the
        profiler also keeps) as the ``progress`` payload's round dict."""
        seconds = entry.seconds
        record: Dict[str, object] = {
            "fix": fix,
            "round": entry.iteration,
            "delta": entry.new_tuples,
            "ms": round(seconds * 1000, 3),
        }
        if entry.per_shard is not None:
            record["delta_by_shard"] = {
                str(shard): count
                for shard, count in sorted(entry.per_shard.items())
            }
        if entry.skew is not None:
            record["skew"] = round(entry.skew, 4)
        if entry.exchange_tuples is not None:
            record["exchange_tuples"] = entry.exchange_tuples
            # Exchange throughput: wire tuples over the round's wall
            # time (tuples/s, 0 when the round was too fast to time).
            if seconds > 0:
                record["exchange_tuples_per_s"] = round(
                    entry.exchange_tuples / seconds, 1
                )
        if entry.exchange_bytes is not None:
            record["exchange_bytes"] = entry.exchange_bytes
        if entry.barrier_wait_s is not None:
            record["barrier_wait_ms"] = round(entry.barrier_wait_s * 1000, 3)
        with self._lock:
            self._rounds.append(record)
            self._round_count += 1
            self._total_delta += max(0, entry.new_tuples)
        if self._on_round is not None:
            self._on_round(entry, self.shards)

    def snapshot(self) -> dict:
        """A JSON-safe view of the query's live state."""
        with self._lock:
            rounds = list(self._rounds)
            round_count = self._round_count
            total_delta = self._total_delta
        last = rounds[-1] if rounds else None
        payload: Dict[str, object] = {
            "request": self.request_id,
            "query": self.query,
            "shards": self.shards,
            "elapsed_s": round(
                (self.finished or time.time()) - self.started, 3
            ),
            "rounds": round_count,
            "total_delta": total_delta,
            "recent_rounds": rounds,
        }
        if last is not None:
            payload["last_round"] = last
        return payload


class ProgressTracker:
    """Registry of in-flight queries, shared by the service's worker
    threads; ``begin`` mints a handle, ``finish`` retires it."""

    def __init__(
        self, on_round: Optional[Callable[[FixIterationProfile, int], None]] = None
    ) -> None:
        self._lock = threading.Lock()
        self._active: Dict[str, QueryProgress] = {}
        #: Recently finished queries (kept for one `top` refresh cycle
        #: so short queries are visible at all).
        self._recent: deque = deque(maxlen=8)
        self._on_round = on_round

    def begin(
        self, request_id: str, query: str = "", shards: int = 1
    ) -> QueryProgress:
        handle = QueryProgress(
            request_id, query=query, shards=shards, on_round=self._on_round
        )
        with self._lock:
            self._active[request_id] = handle
        return handle

    def finish(self, handle: QueryProgress) -> None:
        handle.finished = time.time()
        with self._lock:
            self._active.pop(handle.request_id, None)
            self._recent.append(handle)

    def snapshot(self) -> dict:
        """All in-flight queries plus the recently finished tail."""
        with self._lock:
            active = list(self._active.values())
            recent = list(self._recent)
        return {
            "active": [handle.snapshot() for handle in active],
            "recent": [handle.snapshot() for handle in recent],
        }
