"""LRU buffer pool with I/O accounting.

The paper's ``access_cost`` footnote says the model "takes into account
the fact that some of the needed data are already in main memory and
need not be fetched from disk".  The buffer pool is the component that
makes this true in the simulator: every page touch is a *logical* read;
only misses are *physical* reads.  The engine reports both so cost-model
validation benchmarks can compare estimated page I/O against measured
physical reads.

``touch_run(pages)`` is ``touch`` over a run of pages in one call: it
returns the number of misses, and its effect on the statistics, the
evictions and the resident LRU order is exactly that of calling
``touch`` on each page in order.  Without simulated latency the run
takes the pool's lock once; with ``io_latency > 0`` it is that very
loop of ``touch`` calls, so each miss still sleeps on its own, outside
the lock, before the next page is looked at.  ``BufferView`` offers the
same method and counts the run into its private statistics.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.physical.pages import PageId

__all__ = ["BufferStats", "BufferPool", "BufferView"]


@dataclass
class BufferStats:
    """Counters maintained by the buffer pool."""

    logical_reads: int = 0
    physical_reads: int = 0
    evictions: int = 0

    @property
    def hits(self) -> int:
        return self.logical_reads - self.physical_reads

    @property
    def hit_ratio(self) -> float:
        if self.logical_reads == 0:
            return 0.0
        return self.hits / self.logical_reads

    def snapshot(self) -> "BufferStats":
        return BufferStats(self.logical_reads, self.physical_reads, self.evictions)

    def delta_since(self, earlier: "BufferStats") -> "BufferStats":
        return BufferStats(
            self.logical_reads - earlier.logical_reads,
            self.physical_reads - earlier.physical_reads,
            self.evictions - earlier.evictions,
        )


class BufferPool:
    """A fixed-capacity LRU page cache.

    ``capacity`` is measured in pages.  A capacity of 0 disables
    caching entirely (every logical read is physical) — convenient for
    benchmarks that want the raw analytic page counts of the paper's
    simplified cost model.
    """

    def __init__(self, capacity: int = 256, io_latency: float = 0.0) -> None:
        if capacity < 0:
            raise ValueError("buffer capacity must be >= 0")
        self.capacity = capacity
        self.stats = BufferStats()
        #: Simulated device latency per physical read, in seconds.  0.0
        #: (the default) keeps the simulator purely analytic; I/O-bound
        #: benchmarks set it, and shard threads overlap their waits
        #: (the sleep happens outside the pool lock).
        self.io_latency = io_latency
        self._resident: "OrderedDict[PageId, None]" = OrderedDict()
        #: Residency and counters are shared by every thread reading
        #: through this pool; one lock keeps the LRU bookkeeping consistent.
        self._lock = threading.Lock()

    def touch(self, page_id: PageId) -> bool:
        """Access a page; return True on a buffer hit."""
        with self._lock:
            self.stats.logical_reads += 1
            if self.capacity == 0:
                self.stats.physical_reads += 1
                hit = False
            elif page_id in self._resident:
                self._resident.move_to_end(page_id)
                hit = True
            else:
                self.stats.physical_reads += 1
                self._resident[page_id] = None
                if len(self._resident) > self.capacity:
                    self._resident.popitem(last=False)
                    self.stats.evictions += 1
                hit = False
        if not hit and self.io_latency > 0.0:
            time.sleep(self.io_latency)
        return hit

    def touch_run(self, pages: Sequence[PageId]) -> int:
        """Access ``pages`` in order, as ``touch`` on each would; return
        the number of misses (see the module docstring)."""
        if self.io_latency > 0.0:
            return sum(not self.touch(page_id) for page_id in pages)
        if not pages:
            return 0
        stats = self.stats
        with self._lock:
            stats.logical_reads += len(pages)
            if self.capacity == 0:
                stats.physical_reads += len(pages)
                return len(pages)
            resident = self._resident
            capacity = self.capacity
            misses = 0
            for page_id in pages:
                if page_id in resident:
                    resident.move_to_end(page_id)
                    continue
                misses += 1
                resident[page_id] = None
                if len(resident) > capacity:
                    resident.popitem(last=False)
                    stats.evictions += 1
            stats.physical_reads += misses
        return misses

    def contains(self, page_id: PageId) -> bool:
        return page_id in self._resident

    def resident_count(self) -> int:
        return len(self._resident)

    def clear(self) -> None:
        """Drop all resident pages (counters are preserved)."""
        self._resident.clear()

    def reset_stats(self) -> None:
        self.stats = BufferStats()

    def view(self) -> "BufferView":
        """A private counting view over this pool (see
        :class:`BufferView`)."""
        return BufferView(self)


class BufferView:
    """A counting view over a shared :class:`BufferPool`.

    Residency — which pages are cached, the LRU order and the simulated
    miss latency — stays with the parent pool, so concurrent users of
    the same shard genuinely share its cache.  The *counters* accrue
    privately: each view has its own :class:`BufferStats`, which is what
    lets the service attribute a shard's page reads to the one request
    that caused them even when shard workers serve several coordinators
    at once.  Hit/miss classification is taken from the parent's
    verdict, so a view's physical reads reflect the true shared
    residency at the time of the touch.
    """

    def __init__(self, parent: BufferPool) -> None:
        self.parent = parent
        self.stats = BufferStats()

    @property
    def capacity(self) -> int:
        return self.parent.capacity

    @property
    def io_latency(self) -> float:
        return self.parent.io_latency

    def touch(self, page_id: PageId) -> bool:
        hit = self.parent.touch(page_id)
        self.stats.logical_reads += 1
        if not hit:
            self.stats.physical_reads += 1
        return hit

    def touch_run(self, pages: Sequence[PageId]) -> int:
        misses = self.parent.touch_run(pages)
        self.stats.logical_reads += len(pages)
        self.stats.physical_reads += misses
        return misses

    def contains(self, page_id: PageId) -> bool:
        return self.parent.contains(page_id)

    def resident_count(self) -> int:
        return self.parent.resident_count()

    def reset_stats(self) -> None:
        self.stats = BufferStats()
