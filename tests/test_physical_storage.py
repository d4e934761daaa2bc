"""Tests for pages, the buffer pool and the object store."""

import sys
import threading

import pytest

from repro.engine import Engine
from repro.errors import OidError, StorageError, UnknownEntityError
from repro.physical.buffer import BufferPool
from repro.physical.pages import Page, PagedSegment, PageId
from repro.physical.schema import PhysicalSchema
from repro.physical.storage import ObjectStore, Oid
from repro.plans import EntityLeaf, Proj
from repro.querygraph.builder import out, path


class TestPages:
    def test_page_fills_to_capacity(self):
        page = Page(PageId("seg", 0), 2)
        page.add(1)
        page.add(2)
        assert page.is_full()
        with pytest.raises(ValueError):
            page.add(3)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            Page(PageId("seg", 0), 0)

    def test_segment_opens_pages_on_demand(self):
        segment = PagedSegment("seg", records_per_page=3)
        ids = [segment.append_record(i) for i in range(7)]
        assert segment.page_count() == 3
        assert ids[0] == ids[2] == PageId("seg", 0)
        assert ids[3].number == 1
        assert segment.record_count() == 7

    def test_open_new_page_forces_boundary(self):
        segment = PagedSegment("seg", records_per_page=10)
        segment.append_record(1)
        segment.open_new_page()
        page_id = segment.append_record(2)
        assert page_id.number == 1

    def test_open_new_page_noop_when_empty(self):
        segment = PagedSegment("seg", records_per_page=10)
        segment.open_new_page()
        assert segment.page_count() == 0


class TestBufferPool:
    def test_miss_then_hit(self):
        pool = BufferPool(capacity=4)
        page = PageId("seg", 0)
        assert pool.touch(page) is False
        assert pool.touch(page) is True
        assert pool.stats.logical_reads == 2
        assert pool.stats.physical_reads == 1
        assert pool.stats.hits == 1

    def test_lru_eviction(self):
        pool = BufferPool(capacity=2)
        a, b, c = (PageId("seg", i) for i in range(3))
        pool.touch(a)
        pool.touch(b)
        pool.touch(c)  # evicts a
        assert pool.stats.evictions == 1
        assert pool.touch(a) is False  # a was evicted
        assert pool.touch(c) is True  # c still resident

    def test_touch_refreshes_recency(self):
        pool = BufferPool(capacity=2)
        a, b, c = (PageId("seg", i) for i in range(3))
        pool.touch(a)
        pool.touch(b)
        pool.touch(a)  # a is now most recent
        pool.touch(c)  # evicts b, not a
        assert pool.touch(a) is True

    def test_zero_capacity_never_caches(self):
        pool = BufferPool(capacity=0)
        page = PageId("seg", 0)
        pool.touch(page)
        assert pool.touch(page) is False
        assert pool.stats.hit_ratio == 0.0

    def test_stats_delta(self):
        pool = BufferPool(capacity=4)
        pool.touch(PageId("seg", 0))
        before = pool.stats.snapshot()
        pool.touch(PageId("seg", 1))
        delta = pool.stats.delta_since(before)
        assert delta.logical_reads == 1
        assert delta.physical_reads == 1

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            BufferPool(capacity=-1)


class TestObjectStore:
    def make_store(self):
        store = ObjectStore(BufferPool(16), records_per_page=2)
        store.create_extent("E")
        return store

    def test_insert_and_fetch(self):
        store = self.make_store()
        oid = store.insert("E", {"x": 1})
        record = store.fetch(oid)
        assert record.values["x"] == 1
        assert record.entity == "E"

    def test_fetch_charges_io_peek_does_not(self):
        store = self.make_store()
        oid = store.insert("E", {"x": 1})
        before = store.buffer.stats.logical_reads
        store.peek(oid)
        assert store.buffer.stats.logical_reads == before
        store.fetch(oid)
        assert store.buffer.stats.logical_reads == before + 1

    def test_oids_are_distinct_and_typed(self):
        store = self.make_store()
        first = store.insert("E", {})
        second = store.insert("E", {})
        assert first != second
        assert isinstance(first, Oid)

    def test_dangling_oid_raises(self):
        store = self.make_store()
        with pytest.raises(OidError):
            store.fetch(Oid(999))

    def test_scan_touches_each_page_once(self):
        store = self.make_store()
        for i in range(6):  # 3 pages at 2 records/page
            store.insert("E", {"i": i})
        before = store.buffer.stats.logical_reads
        records = list(store.scan("E"))
        assert len(records) == 6
        assert store.buffer.stats.logical_reads - before == 3

    def test_unknown_extent_raises(self):
        store = self.make_store()
        with pytest.raises(UnknownEntityError):
            store.extent("Nope")
        with pytest.raises(UnknownEntityError):
            list(store.scan("Nope"))

    def test_duplicate_extent_rejected(self):
        store = self.make_store()
        with pytest.raises(StorageError):
            store.create_extent("E")

    def test_drop_extent_removes_records(self):
        store = self.make_store()
        oid = store.insert("E", {})
        store.drop_extent("E")
        assert not store.has_extent("E")
        with pytest.raises(OidError):
            store.fetch(oid)

    def test_entity_of(self):
        store = self.make_store()
        oid = store.insert("E", {})
        assert store.entity_of(oid) == "E"

    def test_page_count_over_whole_store(self):
        store = self.make_store()
        store.create_extent("F")
        for _ in range(3):
            store.insert("E", {})
        store.insert("F", {})
        assert store.page_count() == 3  # two pages of E + one of F


class RecordingPool(BufferPool):
    """A buffer pool that logs the page of every touch, in order."""

    def __init__(self, capacity=256):
        super().__init__(capacity)
        self.touched = []

    def touch(self, page_id):
        self.touched.append(page_id)
        return super().touch(page_id)


def regrouped(store, entity):
    """``(touch sequence, record order)`` a scan of ``entity`` must
    produce, regrouped from the extent's records from scratch — what
    ``ObjectStore.scan`` computed on every call before it cached the
    page directory."""
    by_page = {}
    for record in store.extent(entity).records:
        by_page.setdefault(record.page_id, []).append(record)
    pages = sorted(by_page)
    return pages, [record for page in pages for record in by_page[page]]


def observed(store, entity):
    """``(touch sequence, record order)`` of one actual scan."""
    store.buffer.touched.clear()
    records = list(store.scan(entity))
    return list(store.buffer.touched), records


class TestPageDirectory:
    """``scan`` walks a page directory cached on the extent; everything
    that moves a record onto (or off) a page must invalidate it."""

    def make_store(self, count=5):
        store = ObjectStore(RecordingPool(), records_per_page=2)
        store.create_extent("E")
        for i in range(count):
            store.insert("E", {"i": i})
        return store

    def test_repeated_scans_agree_with_regrouping(self):
        store = self.make_store()
        first = observed(store, "E")
        assert first == regrouped(store, "E")
        assert len(first[0]) == 3
        assert observed(store, "E") == first

    def test_insert_after_scan_is_seen(self):
        store = self.make_store(count=4)
        assert observed(store, "E") == regrouped(store, "E")
        store.insert("E", {"i": 4})  # opens a third page
        store.insert("E", {"i": 5})  # lands on the cached last page
        touched, records = observed(store, "E")
        assert (touched, records) == regrouped(store, "E")
        assert [record.values["i"] for record in records] == list(range(6))
        assert len(touched) == 3

    def test_temp_create_fill_drop_recreate(self):
        store = self.make_store()
        for generation in range(3):
            store.create_extent("temp")
            for i in range(generation + 1):
                store.insert("temp", {"generation": generation, "i": i})
            touched, records = observed(store, "temp")
            assert (touched, records) == regrouped(store, "temp")
            assert {r.values["generation"] for r in records} == {generation}
            store.drop_extent("temp")
        with pytest.raises(UnknownEntityError):
            list(store.scan("temp"))

    def test_unplaced_record_still_raises_before_any_touch(self):
        store = self.make_store()
        store.extent("E").records[2].page_id = None
        store.extent("E").invalidate_placement()
        store.buffer.touched.clear()
        for _attempt in range(2):  # the failed build is not cached
            with pytest.raises(StorageError):
                list(store.scan("E"))
        assert store.buffer.touched == []

    def test_scan_pages_touches_a_page_only_when_asked_for_it(self):
        store = self.make_store()
        pages, _records = regrouped(store, "E")
        store.buffer.touched.clear()
        for position, page_records in enumerate(store.scan_pages("E")):
            # Page k+1 is untouched while the consumer still holds page k.
            assert store.buffer.touched == pages[: position + 1]
            assert len(page_records) <= 2
        assert store.buffer.touched == pages

    def test_replica_views_scan_one_extent_concurrently(self):
        store = self.make_store(count=41)
        want_pages, want_records = regrouped(store, "E")
        views = [store.replica_view(RecordingPool()) for _ in range(8)]
        barrier = threading.Barrier(len(views))
        results = [None] * len(views)

        def scan(position):
            view = views[position]
            barrier.wait(timeout=10)
            runs = []
            for _ in range(20):
                # Drop the shared directory so builds keep racing.
                view.extent("E").invalidate_placement()
                runs.append(observed(view, "E"))
            results[position] = runs

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=scan, args=(position,))
                for position in range(len(views))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for runs in results:
            assert runs is not None and len(runs) == 20
            for touched, records in runs:
                assert touched == want_pages
                assert records == want_records


class TestScanBatchInterleaving:
    """``Engine._scan_batches`` takes records a page at a time; the
    touch of the next page must still come after the consumer has seen
    every batch the previous page completed — at any batch size."""

    @pytest.mark.parametrize("batch_size", [1, 2, 3, 5, 256])
    def test_touch_and_emission_order(self, batch_size):
        store = ObjectStore(RecordingPool(), records_per_page=2)
        physical = PhysicalSchema(store)
        physical.register_extent("E")
        physical.register_extent("T", records_per_page=1)
        targets = [store.insert("T", {"w": i}) for i in range(7)]
        for target in targets:
            store.insert("E", {"ref": target})
        # The consumer dereferences E.ref per row of each batch it is
        # handed, so its T touches mark where the batches fell.
        plan = Proj(EntityLeaf("E", "e"), out(w=path("e", "ref", "w")))
        store.buffer.touched.clear()
        result = Engine(physical, batch_size=batch_size).execute(plan)
        assert [row["w"] for row in result.rows] == list(range(7))

        # Record-at-a-time model of the scan: touch a page, append its
        # records one by one, hand over a batch the moment it fills.
        expected, pending = [], []
        pages, _records = regrouped(store, "E")
        for page in pages:
            expected.append(page)
            for record in store.extent("E").records:
                if record.page_id != page:
                    continue
                pending.append(store.peek(record.values["ref"]).page_id)
                if len(pending) >= batch_size:
                    expected.extend(pending)
                    pending = []
        expected.extend(pending)
        assert store.buffer.touched == expected
