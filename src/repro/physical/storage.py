"""The simulated direct-storage object store.

Implements the physical model of Section 3 ([VKC86]): objects are
records holding atomic values and the *oids* of their sub-objects
(direct storage).  Records live on simulated pages grouped into
segments; every record access goes through the buffer pool so that
page-grain I/O is observable.

The store is deliberately in-memory — the paper's evaluation is
analytic and all of its comparisons are expressed in page touches and
predicate evaluations, which the simulator counts exactly.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from repro.errors import OidError, StorageError, UnknownEntityError
from repro.physical.buffer import BufferPool
from repro.physical.pages import DEFAULT_RECORDS_PER_PAGE, PageId, PagedSegment

__all__ = ["Oid", "StoredRecord", "Extent", "ObjectStore"]

#: A scan cut into batches: one ``(pages to touch, chunk)`` step per
#: batch, in scan order (``Extent.page_batches``, and the engine's
#: delta scans).
ScanSteps = List[Tuple[List[PageId], List["StoredRecord"]]]


class Oid(int):
    """An object identifier.

    A subclass of :class:`int` so oids are cheap, hashable and ordered,
    while still being distinguishable (``isinstance(v, Oid)``) from
    plain integer attribute values — the store's records mix both.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return f"oid:{int(self)}"


class StoredRecord:
    """One stored object or relation value.

    ``values`` maps attribute names to atomic Python values, ``Oid``s
    (single-valued references) or tuples of ``Oid``s (set/list-valued
    references).  ``page_id`` is assigned at placement time.
    """

    __slots__ = ("oid", "entity", "values", "page_id")

    def __init__(self, oid: Oid, entity: str, values: Dict[str, object]) -> None:
        self.oid = oid
        self.entity = entity
        self.values = values
        self.page_id: Optional[PageId] = None

    def __repr__(self) -> str:  # pragma: no cover - convenience
        return f"<{self.entity} {self.oid!r}>"


class Extent:
    """All stored records of one atomic physical entity."""

    def __init__(self, name: str, records_per_page: int) -> None:
        self.name = name
        self.records_per_page = records_per_page
        self.records: List[StoredRecord] = []
        self.by_oid: Dict[Oid, StoredRecord] = {}
        # The segment the extent is placed in.  Initially its own; a
        # clustering strategy may re-place records into a shared segment.
        self.segment: PagedSegment = PagedSegment(name, records_per_page)
        self._page_directory: Optional[
            List[Tuple[PageId, List[StoredRecord]]]
        ] = None
        self._page_batches: Optional[Tuple[int, ScanSteps]] = None

    def add(self, record: StoredRecord) -> None:
        self.records.append(record)
        self.by_oid[record.oid] = record
        self._page_directory = None
        self._page_batches = None

    def page_directory(self) -> List[Tuple[PageId, List[StoredRecord]]]:
        """The extent's records grouped by page, in page order — what a
        sequential scan walks.  Cached until :meth:`add` or
        :meth:`invalidate_placement`; callers must not mutate it.

        Extents are shared across shard threads (``replica_view``): the
        directory is built in a local and published by one attribute
        store, so a racing reader sees either None (and builds its own,
        identical one) or a complete list, never a partial one.
        """
        directory = self._page_directory
        if directory is None:
            by_page: Dict[PageId, List[StoredRecord]] = {}
            for record in self.records:
                if record.page_id is None:
                    raise StorageError(
                        f"record {record.oid!r} of {self.name!r} is unplaced"
                    )
                by_page.setdefault(record.page_id, []).append(record)
            directory = [
                (page_id, by_page[page_id]) for page_id in sorted(by_page)
            ]
            self._page_directory = directory
        return directory

    def page_batches(self, batch_size: int) -> ScanSteps:
        """The sequential scan cut into ``batch_size`` chunks, one
        ``(pages, chunk)`` step per chunk: the pages the scan touches
        before handing the chunk over (those its records complete it
        on; empty when an earlier chunk already touched them), then the
        chunk.  The last chunk may be partial.

        Cached for one batch size (another size rebuilds it) and
        dropped with the page directory; callers must not mutate it.
        Published like :meth:`page_directory`: one attribute store of a
        complete plan, so shard threads sharing the extent never see a
        partial one.
        """
        cached = self._page_batches
        if cached is not None and cached[0] == batch_size:
            return cached[1]
        steps: ScanSteps = []
        pages: List[PageId] = []
        pending: List[StoredRecord] = []
        for page_id, records in self.page_directory():
            pages.append(page_id)
            pending.extend(records)
            full = len(pending) - len(pending) % batch_size
            for start in range(0, full, batch_size):
                steps.append((pages, pending[start:start + batch_size]))
                pages = []
            pending = pending[full:]
        if pending:
            steps.append((pages, pending))
        self._page_batches = (batch_size, steps)
        return steps

    def invalidate_placement(self) -> None:
        """Forget the cached page directory and batch plan (records
        changed pages)."""
        self._page_directory = None
        self._page_batches = None

    def __len__(self) -> int:
        return len(self.records)

    def page_ids(self) -> List[PageId]:
        """Distinct pages holding at least one record of this extent.

        For an extent placed in its own segment this is simply the
        segment's pages; for an extent interleaved into a shared
        cluster segment it is the subset of shared pages the extent's
        records sit on.
        """
        seen: Set[PageId] = set()
        ordered: List[PageId] = []
        for record in self.records:
            if record.page_id is not None and record.page_id not in seen:
                seen.add(record.page_id)
                ordered.append(record.page_id)
        return ordered

    def page_count(self) -> int:
        return len(self.page_ids())


class ObjectStore:
    """Direct-storage object store with page-grain buffered access."""

    def __init__(
        self,
        buffer_pool: Optional[BufferPool] = None,
        records_per_page: int = DEFAULT_RECORDS_PER_PAGE,
    ) -> None:
        self.buffer = buffer_pool if buffer_pool is not None else BufferPool()
        self.default_records_per_page = records_per_page
        self._extents: Dict[str, Extent] = {}
        self._records: Dict[Oid, StoredRecord] = {}
        self._next_oid = 1

    # -- extent management --------------------------------------------------

    def create_extent(
        self, name: str, records_per_page: Optional[int] = None
    ) -> Extent:
        if name in self._extents:
            raise StorageError(f"extent {name!r} already exists")
        extent = Extent(
            name, records_per_page or self.default_records_per_page
        )
        self._extents[name] = extent
        return extent

    def has_extent(self, name: str) -> bool:
        return name in self._extents

    def extent(self, name: str) -> Extent:
        try:
            return self._extents[name]
        except KeyError:
            raise UnknownEntityError(name) from None

    def extent_names(self) -> List[str]:
        return list(self._extents)

    def drop_extent(self, name: str) -> None:
        extent = self.extent(name)
        for record in extent.records:
            del self._records[record.oid]
        del self._extents[name]

    # -- record creation ----------------------------------------------------

    def insert(self, entity: str, values: Mapping[str, object]) -> Oid:
        """Insert a record, placing it immediately in the extent's
        own segment (no clustering).  A clustering strategy may later
        re-place all records (see :mod:`repro.physical.clustering`)."""
        extent = self.extent(entity)
        oid = Oid(self._next_oid)
        self._next_oid += 1
        record = StoredRecord(oid, entity, dict(values))
        record.page_id = extent.segment.append_record(int(oid))
        extent.add(record)
        self._records[oid] = record
        return oid

    # -- buffered access ----------------------------------------------------

    def fetch(self, oid: Oid) -> StoredRecord:
        """Fetch one record by oid, charging a page touch."""
        record = self._records.get(oid)
        if record is None:
            raise OidError(oid)
        if record.page_id is not None:
            self.buffer.touch(record.page_id)
        return record

    def peek(self, oid: Oid) -> StoredRecord:
        """Fetch a record *without* charging I/O.

        Used by index builders, statistics collection and test
        assertions — anything that would not be a runtime page access.
        """
        record = self._records.get(oid)
        if record is None:
            raise OidError(oid)
        return record

    def scan(self, entity: str) -> Iterator[StoredRecord]:
        """Sequentially scan an extent, touching each of its pages once.

        The scan is page-ordered: records come out grouped by page, and
        each page is charged exactly one logical read, matching the
        sequential-scan term of ``access_cost``.
        """
        for records in self.scan_pages(entity):
            yield from records

    def scan_pages(self, entity: str) -> Iterator[List[StoredRecord]]:
        """:meth:`scan`, one page at a time: each step touches the next
        page and yields its records (a list the caller must not
        mutate).  The touch of a page happens only when the consumer
        asks for it, after it has dealt with the previous page."""
        touch = self.buffer.touch
        for page_id, records in self.extent(entity).page_directory():
            touch(page_id)
            yield records

    def entity_of(self, oid: Oid) -> str:
        record = self._records.get(oid)
        if record is None:
            raise OidError(oid)
        return record.entity

    # -- placement (used by clustering strategies) ---------------------------

    def replace_segment(
        self, placements: Mapping[str, PagedSegment], orderings: Mapping[str, List[Oid]]
    ) -> None:
        """Atomically re-place extents into new segments.

        ``placements`` maps extent name to its (already filled) new
        segment; ``orderings`` gives, per extent, the oid order in which
        records were appended so page ids can be re-derived.  Clustering
        strategies build the segments and call this once.
        """
        for name in placements:
            self.extent(name)  # raises on unknown extents
        for name, segment in placements.items():
            extent = self.extent(name)
            extent.segment = segment
            extent.invalidate_placement()
        # Re-derive page ids from the segments' slot contents.
        for name, segment in placements.items():
            for page in segment.pages:
                for slot in page.slots:
                    record = self._records.get(Oid(slot))
                    if record is None:
                        raise OidError(slot)
                    record.page_id = page.page_id

    # -- shard / session replicas --------------------------------------------

    def replica_view(
        self,
        buffer_pool: BufferPool,
        oid_offset: int = 0,
    ) -> "ObjectStore":
        """A replica of this store for a shard worker or a per-request
        session.

        The replica *shares* every :class:`StoredRecord`, every
        :class:`Extent` and the page placement with this store
        (zero-copy — the base data is immutable at runtime), but owns
        shallow copies of the extent/record namespaces so that extents
        created through the replica (delta staging temps) stay private,
        and reads pages through ``buffer_pool`` so its I/O is charged to
        the replica's owner.

        ``oid_offset`` shifts the replica's oid allocator into a
        disjoint range.  Replica-private records (staged delta tuples)
        then can never collide with oids minted by the source store, so
        a replica-local oid that leaks into another store fails loudly
        as an :class:`OidError` instead of silently resolving to an
        unrelated record.
        """
        view = ObjectStore.__new__(ObjectStore)
        view.buffer = buffer_pool
        view.default_records_per_page = self.default_records_per_page
        view._extents = dict(self._extents)
        view._records = dict(self._records)
        view._next_oid = self._next_oid + oid_offset
        return view

    # -- whole-store summaries -----------------------------------------------

    def record_count(self) -> int:
        return len(self._records)

    def page_count(self) -> int:
        seen: Set[PageId] = set()
        for record in self._records.values():
            if record.page_id is not None:
                seen.add(record.page_id)
        return len(seen)
