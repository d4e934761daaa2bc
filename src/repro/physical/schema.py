"""The physical schema: atomic entities, indices and statistics.

Glues together the storage substrate: which atomic entities exist
(non-decomposed extensions, fragments, temporaries), which selection
and path indices are available, and the statistics the cost model
reads.  The ``translate`` optimization step consults this object to map
conceptual names onto physical entities and to find applicable path
indices for the ``collapse`` action.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import StorageError, UnknownEntityError, UnknownIndexError
from repro.physical.buffer import BufferPool
from repro.physical.fragments import FragmentInfo
from repro.physical.path_index import (
    PathIndex,
    SelectionIndex,
    build_path_index,
    build_selection_index,
)
from repro.physical.stats import Statistics
from repro.physical.storage import ObjectStore
from repro.schema.catalog import Catalog

__all__ = ["EPOCH_MEMO_BOUND", "EntityInfo", "EpochMemo", "PhysicalSchema"]

#: Entries one :class:`EpochMemo` keeps; beyond it the oldest entry is
#: evicted.  A fixed bound, not a knob: the working set is one price and
#: one estimate per recursive view and push variant.
EPOCH_MEMO_BOUND = 512


@dataclass
class EntityInfo:
    """Descriptor of one atomic physical entity.

    ``kind`` is one of ``extent`` (a non-decomposed extension),
    ``fragment`` (horizontal/vertical decomposition product) or
    ``temp`` (an intermediate-result file such as the materialized
    ``Influencer``).  ``conceptual_name`` is the class/relation this
    entity implements (fragments and temps point at their origin).
    """

    name: str
    kind: str
    conceptual_name: Optional[str] = None
    fragment: Optional[FragmentInfo] = None


class EpochMemo:
    """What the cost model keeps across optimizations for one
    statistics epoch: the prices and estimates of recursive views
    (``Fix`` terms), keyed by the model.  Bounded — beyond
    :data:`EPOCH_MEMO_BOUND` entries the oldest is evicted — and
    thread-safe.  A hit does not reorder entries: that would compare
    the (structural) key a second time.

    :class:`PhysicalSchema` owns it and drops it whenever what the
    model reads can change: refreshed statistics, a new durable entity,
    a new selection or path index."""

    def __init__(self) -> None:
        self._entries: Dict[object, object] = {}
        self._lock = threading.Lock()

    def get(self, key: object) -> Optional[object]:
        return self._entries.get(key)

    def put(self, key: object, value: object) -> None:
        with self._lock:
            self._entries[key] = value
            if len(self._entries) > EPOCH_MEMO_BOUND:
                del self._entries[next(iter(self._entries))]

    def __len__(self) -> int:
        return len(self._entries)


class PhysicalSchema:
    """Registry of atomic entities, indices and statistics."""

    def __init__(self, store: ObjectStore, catalog: Optional[Catalog] = None) -> None:
        self.store = store
        self.catalog = catalog
        self._entities: Dict[str, EntityInfo] = {}
        self._implements: Dict[str, List[str]] = {}
        self._selection_indices: Dict[Tuple[str, str], SelectionIndex] = {}
        self._path_indices: Dict[Tuple[str, Tuple[str, ...]], PathIndex] = {}
        self._statistics: Optional[Statistics] = None
        self._epoch_memo: Optional[EpochMemo] = None
        self._temp_counter = 0

    # -- entity registration ------------------------------------------------

    def register_extent(
        self,
        name: str,
        conceptual_name: Optional[str] = None,
        records_per_page: Optional[int] = None,
    ) -> EntityInfo:
        """Create and register the extent implementing a class/relation."""
        if not self.store.has_extent(name):
            self.store.create_extent(name, records_per_page)
        info = EntityInfo(name, "extent", conceptual_name or name)
        self._register(info)
        return info

    def register_fragment(self, fragment: FragmentInfo) -> EntityInfo:
        """Register an already-materialized fragment as an atomic entity."""
        base = self.entity(fragment.base_entity)
        info = EntityInfo(
            fragment.name, "fragment", base.conceptual_name, fragment
        )
        self._register(info)
        return info

    def register_temp(self, conceptual_name: str, records_per_page: Optional[int] = None) -> EntityInfo:
        """Create a fresh temporary entity (intermediate-result file)."""
        self._temp_counter += 1
        name = f"__temp{self._temp_counter}_{conceptual_name}"
        self.store.create_extent(name, records_per_page)
        info = EntityInfo(name, "temp", conceptual_name)
        self._register(info)
        return info

    def _register(self, info: EntityInfo) -> None:
        if info.name in self._entities:
            raise StorageError(f"entity {info.name!r} already registered")
        self._entities[info.name] = info
        if info.conceptual_name is not None:
            self._implements.setdefault(info.conceptual_name, []).append(info.name)
        if info.kind != "temp":
            # A temporary cannot change what is known about durable
            # entities; its own statistics are collected lazily.
            self._new_epoch(None)

    def drop_temp(self, name: str) -> None:
        info = self.entity(name)
        if info.kind != "temp":
            raise StorageError(f"{name!r} is not a temporary entity")
        self.store.drop_extent(name)
        del self._entities[name]
        if info.conceptual_name is not None:
            self._implements[info.conceptual_name].remove(name)
        if self._statistics is not None:
            self._statistics.forget(name)

    # -- lookup ---------------------------------------------------------------

    def entity(self, name: str) -> EntityInfo:
        try:
            return self._entities[name]
        except KeyError:
            raise UnknownEntityError(name) from None

    def has_entity(self, name: str) -> bool:
        return name in self._entities

    def entities(self) -> Iterator[EntityInfo]:
        return iter(self._entities.values())

    def implementations_of(self, conceptual_name: str) -> List[EntityInfo]:
        """Atomic entities implementing a conceptual class/relation.

        The primary (non-decomposed) extent comes first when present.
        """
        names = self._implements.get(conceptual_name, [])
        infos = [self._entities[name] for name in names]
        infos.sort(key=lambda info: 0 if info.kind == "extent" else 1)
        return infos

    def primary_entity(self, conceptual_name: str) -> EntityInfo:
        """The non-decomposed extent for a conceptual name."""
        for info in self.implementations_of(conceptual_name):
            if info.kind == "extent":
                return info
        raise UnknownEntityError(conceptual_name)

    # -- indices -----------------------------------------------------------------

    def build_selection_index(self, entity: str, attribute: str) -> SelectionIndex:
        self.entity(entity)
        index = build_selection_index(self.store, entity, attribute)
        self._selection_indices[(entity, attribute)] = index
        self._epoch_memo = None  # an index can change what a view costs
        return index

    def selection_index(self, entity: str, attribute: str) -> Optional[SelectionIndex]:
        return self._selection_indices.get((entity, attribute))

    def has_selection_index(self, entity: str, attribute: str) -> bool:
        return (entity, attribute) in self._selection_indices

    def selection_indices(self) -> Iterator[SelectionIndex]:
        return iter(self._selection_indices.values())

    def build_path_index(
        self,
        root_entity: str,
        attributes: Sequence[str],
        entities: Sequence[str],
        terminal_attribute: Optional[str] = None,
    ) -> PathIndex:
        self.entity(root_entity)
        index = build_path_index(
            self.store, root_entity, attributes, entities, terminal_attribute
        )
        self._path_indices[(root_entity, tuple(attributes))] = index
        self._epoch_memo = None  # an index can change what a view costs
        return index

    def path_index(
        self, root_entity: str, attributes: Sequence[str]
    ) -> Optional[PathIndex]:
        return self._path_indices.get((root_entity, tuple(attributes)))

    def find_path_index(self, attributes: Sequence[str]) -> Optional[PathIndex]:
        """Find a path index by attribute sequence alone.

        The paper's ``collapse`` action checks ``existPathIndex(p2.p1)``
        by attribute path (e.g. ``works.instruments``) — the root entity
        is implied by the pattern being collapsed.
        """
        wanted = tuple(attributes)
        for (_root, path), index in self._path_indices.items():
            if path == wanted:
                return index
        return None

    def path_indices(self) -> Iterator[PathIndex]:
        return iter(self._path_indices.values())

    # -- shard / session views -------------------------------------------------------

    def shard_view(self, store: ObjectStore) -> "PhysicalSchema":
        """A schema view over a replica ``store`` (see
        :meth:`ObjectStore.replica_view`), for shard workers and
        per-request shard sessions.

        The view shares the catalog and all built indices (index
        payloads are oids, valid in every replica since records are
        shared), but owns shallow copies of the entity namespaces so
        temporaries registered through the view — delta staging extents
        — stay private to it and never race with the source schema.
        """
        view = PhysicalSchema.__new__(PhysicalSchema)
        view.store = store
        view.catalog = self.catalog
        view._entities = dict(self._entities)
        view._implements = {
            name: list(entities) for name, entities in self._implements.items()
        }
        view._selection_indices = dict(self._selection_indices)
        view._path_indices = dict(self._path_indices)
        view._statistics = None
        view._epoch_memo = None
        view._temp_counter = self._temp_counter
        return view

    # -- statistics ------------------------------------------------------------------

    @property
    def statistics(self) -> Statistics:
        if self._statistics is None:
            self._new_epoch(Statistics(self.store))
        return self._statistics

    def refresh_statistics(self) -> Statistics:
        self._new_epoch(Statistics(self.store))
        return self._statistics

    def _new_epoch(self, statistics: Optional[Statistics]) -> None:
        """Install ``statistics`` (``None``: collect on next use) and
        drop everything the cost model derived from the old ones."""
        self._statistics = statistics
        self._epoch_memo = None

    def epoch_memo(self, statistics: Statistics) -> Optional[EpochMemo]:
        """The :class:`EpochMemo` of the current statistics epoch, for a
        cost model reading ``statistics``; ``None`` when they are no
        longer current (the model was built before a refresh), so
        nothing it derives is kept."""
        if statistics is not self._statistics:
            return None
        if self._epoch_memo is None:
            self._epoch_memo = EpochMemo()
        return self._epoch_memo
