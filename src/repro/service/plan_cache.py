"""Stats-aware LRU plan cache.

The paper's optimization pipeline (rewrite → translate → generatePT →
transformPT) is the expensive part of serving a query; this cache
amortizes it across repeated requests while keeping reuse
*cost-controlled* in the paper's spirit: a cached PT is only trusted
while the statistics it was costed against still hold.

Keying
    ``(canonical query text, structural schema fingerprint)``.  The
    canonical text (:mod:`repro.lang.canonical`) erases whitespace and
    alias variations; the structural fingerprint covers the entity and
    index inventory, so building or dropping an index — which changes
    the plan space itself — can never serve a stale plan.

Invalidation
    Each entry remembers the *statistics fingerprint* and estimated
    cost at plan time.  On lookup, if the statistics changed, the PT is
    re-costed under the fresh statistics (:func:`repro.cost.recost_plan`
    — one bottom-up pass, no re-search).  If the new estimate stays
    within ``drift_ratio`` of the old one the plan is revalidated in
    place; beyond it the entry is evicted and the caller re-optimizes.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.cost.recost import recost_plan
from repro.errors import ReproError
from repro.lang.ast import ProgramNode
from repro.lang.canonical import canonical_program
from repro.lang.parser import parse
from repro.physical.schema import PhysicalSchema
from repro.plans.nodes import PlanNode

__all__ = [
    "CacheKey",
    "CacheStats",
    "CachedPlan",
    "LookupResult",
    "PlanCache",
    "schema_fingerprint",
    "stats_fingerprint",
]

#: Lookup statuses.
HIT = "hit"
REVALIDATED = "revalidated"
DRIFTED = "drifted"
MISS = "miss"

#: Invalidation reasons (recorded in :class:`CacheStats`).
COST_DRIFT = "cost_drift"
STATS_FINGERPRINT = "stats_fingerprint"
RECALIBRATION = "recalibration"
EXPLICIT = "explicit"

CacheKey = Tuple[str, str]


def _digest(parts) -> str:
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(repr(part).encode("utf-8"))
        hasher.update(b"\x00")
    return hasher.hexdigest()[:16]


def schema_fingerprint(physical: PhysicalSchema) -> str:
    """Fingerprint of the plan-relevant *structure*: which durable
    entities exist (temps are per-execution noise) and which selection
    and path indices are built."""
    entities = sorted(
        (info.name, info.kind, info.conceptual_name)
        for info in physical.entities()
        if info.kind != "temp"
    )
    selection = sorted(
        (index.entity, index.attribute)
        for index in physical.selection_indices()
    )
    paths = sorted(
        (index.root_entity, tuple(index.attributes))
        for index in physical.path_indices()
    )
    return _digest([entities, selection, paths])


def stats_fingerprint(physical: PhysicalSchema) -> str:
    """Fingerprint of the statistics the cost model reads: ``|C|``,
    ``||C||`` and per-attribute distinct/non-null counts and fan-outs
    for every durable entity."""
    stats = physical.statistics
    parts = []
    for info in sorted(physical.entities(), key=lambda info: info.name):
        if info.kind == "temp":
            continue
        entity = stats.entity(info.name)
        parts.append(
            (
                info.name,
                entity.pages,
                entity.instances,
                sorted(entity.distinct.items()),
                sorted(entity.non_null.items()),
                sorted(entity.fanout.items()),
            )
        )
    return _digest(parts)


@dataclass
class CachedPlan:
    """One cache entry: a PT plus the evidence it was costed on."""

    plan: PlanNode
    cost: float
    stats_fp: str
    hits: int = 0
    revalidations: int = 0
    #: A pinned plan survives drift checks (its cost is still refreshed
    #: for observability, but the entry is never drift-evicted) — the
    #: regression detector's "revert to the prior plan" lever.
    pinned: bool = False
    #: Canonical plan fingerprint
    #: (:func:`repro.plans.canonical.canonical_fingerprint`), filled in
    #: by the service so telemetry lookups skip a tree walk.
    fingerprint: Optional[str] = None


@dataclass
class LookupResult:
    """Outcome of one cache probe."""

    status: str  # hit | revalidated | drifted | miss
    entry: Optional[CachedPlan] = None
    #: Fresh estimate computed during a revalidation/drift check.
    recost: Optional[float] = None
    #: Why an entry was invalidated (``cost_drift`` /
    #: ``stats_fingerprint``), when ``status`` is ``drifted``.
    reason: Optional[str] = None
    #: The invalidated entry itself, so the caller (the regression
    #: detector) can compare the old plan against its replacement.
    evicted: Optional[CachedPlan] = None


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    revalidations: int = 0
    invalidations: int = 0
    evictions: int = 0
    #: Invalidations broken down by why the entry was dropped.
    invalidations_by_reason: Dict[str, int] = field(default_factory=dict)
    #: Bounded ring of recent invalidation events: which key, why, and
    #: the cost evidence — the regression detector's audit trail.
    recent_invalidations: Deque[dict] = field(
        default_factory=lambda: deque(maxlen=32)
    )

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def record_invalidation(
        self,
        key: CacheKey,
        reason: str,
        old_cost: Optional[float] = None,
        new_cost: Optional[float] = None,
    ) -> None:
        self.invalidations += 1
        self.invalidations_by_reason[reason] = (
            self.invalidations_by_reason.get(reason, 0) + 1
        )
        entry: Dict[str, object] = {
            "query": key[0],
            "schema_fp": key[1],
            "reason": reason,
        }
        if old_cost is not None:
            entry["old_cost"] = round(old_cost, 2)
        if new_cost is not None:
            entry["new_cost"] = round(new_cost, 2)
        self.recent_invalidations.append(entry)

    def snapshot(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "revalidations": self.revalidations,
            "invalidations": self.invalidations,
            "invalidations_by_reason": dict(self.invalidations_by_reason),
            "recent_invalidations": list(self.recent_invalidations),
            "evictions": self.evictions,
            "hit_ratio": round(self.hit_ratio, 4),
        }


class PlanCache:
    """LRU cache of optimized processing trees with drift invalidation.

    ``capacity`` bounds the number of entries; ``drift_ratio`` is the
    tolerated relative change of the estimated cost under fresh
    statistics (0.5 = a cached plan survives until its estimate moves
    by more than 50% in either direction).
    """

    def __init__(self, capacity: int = 64, drift_ratio: float = 0.5) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        if drift_ratio < 0:
            raise ValueError("drift ratio must be >= 0")
        self.capacity = capacity
        self.drift_ratio = drift_ratio
        self.stats = CacheStats()
        self._entries: "OrderedDict[CacheKey, CachedPlan]" = OrderedDict()
        self._lock = threading.Lock()

    # -- keys ---------------------------------------------------------------

    def key_for(self, text: str, physical: PhysicalSchema) -> CacheKey:
        """The cache key of a query text against a physical schema."""
        return self.key_for_program(parse(text), physical)

    def key_for_program(
        self, program: ProgramNode, physical: PhysicalSchema
    ) -> CacheKey:
        """The cache key of an already parsed text, so a caller that
        compiles the text on a miss parses it once."""
        return (canonical_program(program), schema_fingerprint(physical))

    # -- probe / store ------------------------------------------------------

    def lookup(
        self, key: CacheKey, physical: PhysicalSchema, cost_model=None
    ) -> LookupResult:
        """Probe the cache, applying cost-drift invalidation.

        Returns a :class:`LookupResult` whose ``status`` is ``hit``
        (statistics unchanged), ``revalidated`` (statistics changed but
        the re-costed estimate stayed within the drift ratio; the entry
        was updated in place), ``drifted`` (estimate moved too far; the
        entry was evicted — re-optimize) or ``miss``.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return LookupResult(MISS)
            current_fp = stats_fingerprint(physical)
            if current_fp == entry.stats_fp:
                self._entries.move_to_end(key)
                entry.hits += 1
                self.stats.hits += 1
                return LookupResult(HIT, entry)
            try:
                fresh_cost = recost_plan(entry.plan, physical, cost_model)
            except ReproError:
                # The statistics moved under the plan in a way the model
                # can no longer cost (an entity or index the plan relies
                # on lost its statistics): the fingerprint itself is the
                # invalidation reason.
                if not entry.pinned:
                    del self._entries[key]
                    self.stats.misses += 1
                    self.stats.record_invalidation(
                        key, STATS_FINGERPRINT, old_cost=entry.cost
                    )
                    return LookupResult(
                        DRIFTED, reason=STATS_FINGERPRINT, evicted=entry
                    )
                fresh_cost = entry.cost
            if entry.pinned or self._within_drift(entry.cost, fresh_cost):
                entry.cost = fresh_cost
                entry.stats_fp = current_fp
                entry.revalidations += 1
                self._entries.move_to_end(key)
                entry.hits += 1
                self.stats.hits += 1
                self.stats.revalidations += 1
                return LookupResult(REVALIDATED, entry, recost=fresh_cost)
            del self._entries[key]
            self.stats.misses += 1
            self.stats.record_invalidation(
                key, COST_DRIFT, old_cost=entry.cost, new_cost=fresh_cost
            )
            return LookupResult(
                DRIFTED, recost=fresh_cost, reason=COST_DRIFT, evicted=entry
            )

    def store(
        self,
        key: CacheKey,
        plan: PlanNode,
        cost: float,
        physical: PhysicalSchema,
        pinned: bool = False,
    ) -> CachedPlan:
        """Insert (or replace) the entry for ``key``, evicting LRU
        entries beyond capacity."""
        entry = CachedPlan(plan, cost, stats_fingerprint(physical), pinned=pinned)
        with self._lock:
            if key in self._entries:
                del self._entries[key]
            self._entries[key] = entry
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
        return entry

    def _within_drift(self, old: float, new: float) -> bool:
        baseline = max(abs(old), 1e-9)
        return abs(new - old) / baseline <= self.drift_ratio

    # -- pinning ------------------------------------------------------------

    def entry(self, key: CacheKey) -> Optional[CachedPlan]:
        """Peek at an entry without counting a lookup."""
        with self._lock:
            return self._entries.get(key)

    def pin(self, key: CacheKey, pinned: bool = True) -> bool:
        """Mark an entry as pinned (exempt from drift eviction) or
        release it; returns whether the key was present."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return False
            entry.pinned = pinned
            return True

    def pinned_keys(self):
        with self._lock:
            return [
                key for key, entry in self._entries.items() if entry.pinned
            ]

    # -- maintenance --------------------------------------------------------

    def invalidate_all(self, reason: str = EXPLICIT) -> int:
        """Drop every entry (e.g. after a schema change); returns the
        number of entries dropped."""
        with self._lock:
            dropped = len(self._entries)
            for key, entry in self._entries.items():
                self.stats.record_invalidation(key, reason, old_cost=entry.cost)
            self._entries.clear()
        return dropped

    def recost_all(
        self, physical: PhysicalSchema, cost_model=None
    ) -> List[Tuple[CacheKey, CachedPlan, Optional[float]]]:
        """Re-cost every entry under a (typically recalibrated) cost
        model, evicting the ones whose estimate drifted beyond the
        ratio.  Returns the evicted ``(key, old_entry, fresh_cost)``
        triples so the caller can watch their replacements for
        regressions.  Pinned entries are refreshed but never evicted.
        """
        evicted: List[Tuple[CacheKey, CachedPlan, Optional[float]]] = []
        with self._lock:
            for key in list(self._entries.keys()):
                entry = self._entries[key]
                try:
                    fresh = recost_plan(entry.plan, physical, cost_model)
                except ReproError:
                    fresh = None
                if fresh is not None and (
                    entry.pinned or self._within_drift(entry.cost, fresh)
                ):
                    entry.cost = fresh
                    entry.revalidations += 1
                    self.stats.revalidations += 1
                    continue
                if entry.pinned:
                    continue
                del self._entries[key]
                self.stats.record_invalidation(
                    key, RECALIBRATION, old_cost=entry.cost, new_cost=fresh
                )
                evicted.append((key, entry, fresh))
        return evicted

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self):
        with self._lock:
            return list(self._entries.keys())

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "drift_ratio": self.drift_ratio,
                **self.stats.snapshot(),
            }
