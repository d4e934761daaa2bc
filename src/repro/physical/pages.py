"""Disk-page abstraction for the simulated object store.

The paper's cost model is page-grained: ``|C|`` is the number of pages
an entity occupies, and every basic-operation formula charges page
accesses.  We simulate pages as fixed-capacity containers of record
slots.  A page is identified by a :class:`PageId` (a segment name plus
an offset); the buffer pool uses these ids as cache keys.

Record sizes are modelled in abstract *slot units* rather than bytes:
an entity declares how many of its records fit on one page
(``records_per_page``), which is what 1992-era analytic cost models
parameterized as well.
"""

from __future__ import annotations

from typing import List, NamedTuple

__all__ = ["PageId", "Page", "PagedSegment", "DEFAULT_RECORDS_PER_PAGE"]

DEFAULT_RECORDS_PER_PAGE = 20


class PageId(NamedTuple):
    """Identifier of one page: a segment name plus a page offset.

    A named tuple, so the buffer pool's residency dict hashes and
    compares it at C speed — every page touch keys on one.
    """

    segment: str
    number: int

    def __repr__(self) -> str:  # pragma: no cover - convenience
        return f"{self.segment}#{self.number}"


class Page:
    """One simulated disk page holding record slots.

    Slots store opaque record keys (oids or value-record ids); the
    actual record payloads live in the store.  A page only needs to
    know *which* records it holds so scans can resolve them.
    """

    __slots__ = ("page_id", "capacity", "slots")

    def __init__(self, page_id: PageId, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("page capacity must be positive")
        self.page_id = page_id
        self.capacity = capacity
        self.slots: List[int] = []

    def is_full(self) -> bool:
        return len(self.slots) >= self.capacity

    def add(self, record_key: int) -> None:
        if self.is_full():
            raise ValueError(f"page {self.page_id!r} is full")
        self.slots.append(record_key)

    def __len__(self) -> int:
        return len(self.slots)


class PagedSegment:
    """An append-only sequence of pages within one storage segment.

    Segments model the physical placement unit: one segment per
    non-clustered extent, or one shared segment for a multiclass
    cluster tree (owner and sub-objects interleaved, Section 3).
    """

    def __init__(self, name: str, records_per_page: int = DEFAULT_RECORDS_PER_PAGE) -> None:
        self.name = name
        self.records_per_page = records_per_page
        self.pages: List[Page] = []

    def append_record(self, record_key: int) -> PageId:
        """Place a record on the last page, opening a new one when full."""
        if not self.pages or self.pages[-1].is_full():
            self.pages.append(
                Page(PageId(self.name, len(self.pages)), self.records_per_page)
            )
        page = self.pages[-1]
        page.add(record_key)
        return page.page_id

    def open_new_page(self) -> None:
        """Force the next record onto a fresh page (used by clustering
        strategies to start each owner's cluster on a page boundary)."""
        if self.pages and len(self.pages[-1]) > 0:
            self.pages.append(
                Page(PageId(self.name, len(self.pages)), self.records_per_page)
            )

    def page_count(self) -> int:
        return len(self.pages)

    def page_ids(self) -> List[PageId]:
        return [page.page_id for page in self.pages]

    def record_count(self) -> int:
        return sum(len(page) for page in self.pages)
