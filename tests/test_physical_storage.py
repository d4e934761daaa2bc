"""Tests for pages, the buffer pool and the object store."""

import sys
import threading
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Engine
from repro.errors import OidError, StorageError, UnknownEntityError
from repro.physical.buffer import BufferPool
from repro.physical.pages import Page, PagedSegment, PageId
from repro.physical.schema import PhysicalSchema
from repro.physical.storage import ObjectStore, Oid
from repro.plans import EJ, IJ, EntityLeaf, Proj, RecLeaf, Sel, UnionOp
from repro.querygraph.builder import const, eq, ge, out, path, var
from repro.service import QueryService, ServiceConfig
from repro.workloads import MusicConfig, generate_music_database


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


def _runs(pages, cuts):
    """``pages`` split at the (wrapped) ``cuts``: consecutive runs,
    empty ones included, that concatenate back to ``pages``."""
    bounds = sorted({cut % (len(pages) + 1) for cut in cuts})
    runs, start = [], 0
    for bound in bounds + [len(pages)]:
        runs.append(pages[start:bound])
        start = bound
    return runs


class TestTouchRun:
    """``touch_run`` is ``touch`` over a run of pages: the same misses,
    statistics, evictions and resident LRU order as the touches one by
    one — and, with simulated latency, one sleep per miss, right after
    it and outside the pool's lock — through a pool and through a
    counting view alike."""

    @given(
        pages=st.lists(st.integers(min_value=0, max_value=7), max_size=40),
        cuts=st.lists(st.integers(min_value=0, max_value=40), max_size=8),
        capacity=st.sampled_from([0, 1, 3, 256]),
        latency=st.sampled_from([0.0, 1e-4]),
        through_view=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_a_run_is_its_touches_in_order(
        self, pages, cuts, capacity, latency, through_view
    ):
        runs = _runs([PageId("seg", page) for page in pages], cuts)
        one_by_one = BufferPool(capacity, latency)
        as_runs = BufferPool(capacity, latency)
        sleeps = []

        def sleep(seconds):
            # When each sleep falls, as read off the pool that slept.
            sleeps.append(
                (sleeping_pool.stats.logical_reads, sleeping_pool._lock.locked())
            )
            assert seconds == latency

        with mock.patch("repro.physical.buffer.time.sleep", sleep):
            sleeping_pool = one_by_one
            reader = one_by_one.view() if through_view else one_by_one
            expected = [
                sum(not reader.touch(page_id) for page_id in run)
                for run in runs
            ]
            expected_sleeps, sleeps[:] = list(sleeps), []
            sleeping_pool = as_runs
            runner = as_runs.view() if through_view else as_runs
            got = [runner.touch_run(run) for run in runs]
        assert got == expected
        assert reader.stats == runner.stats
        assert one_by_one.stats == as_runs.stats
        assert list(one_by_one._resident) == list(as_runs._resident)
        assert sleeps == expected_sleeps
        assert len(sleeps) == (sum(expected) if latency else 0)
        assert not any(locked for _reads, locked in sleeps)


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
    """A (latency-free) buffer pool that logs the page of every touch,
    in order — a run's pages one by one, as the ``touch`` calls it
    stands for."""

    def __init__(self, capacity=256):
        super().__init__(capacity)
        self.touched = []

    def touch(self, page_id):
        self.touched.append(page_id)
        return super().touch(page_id)

    def touch_run(self, pages):
        self.touched.extend(pages)
        return super().touch_run(pages)


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


def by_value(steps):
    """Scan steps as plain data: each step's page ids and records."""
    return [(list(pages), list(chunk)) for pages, chunk in steps]


def chunk_lengths(steps):
    return [len(chunk) for _pages, chunk in steps]


class TestPageBatches:
    """``Extent.page_batches`` caches the scan cut into batches beside
    the page directory: replayed as the same lists while the extent is
    unchanged, and dropped by whatever drops the directory."""

    def make_store(self, count=5):
        store = ObjectStore(RecordingPool(), records_per_page=2)
        store.create_extent("E")
        for i in range(count):
            store.insert("E", {"i": i})
        return store

    def test_chunks_fall_where_the_scan_completes_them(self):
        extent = self.make_store().extent("E")
        r = extent.records
        pages = [page_id for page_id, _records in extent.page_directory()]
        plan = extent.page_batches(3)
        assert by_value(plan) == [
            ([pages[0], pages[1]], [r[0], r[1], r[2]]),
            ([pages[2]], [r[3], r[4]]),
        ]
        assert extent.page_batches(3) is plan

    def test_a_page_completing_several_chunks_is_touched_before_the_first(
        self,
    ):
        extent = self.make_store().extent("E")
        r = extent.records
        pages = [page_id for page_id, _records in extent.page_directory()]
        assert by_value(extent.page_batches(1)) == [
            ([pages[0]], [r[0]]),
            ([], [r[1]]),
            ([pages[1]], [r[2]]),
            ([], [r[3]]),
            ([pages[2]], [r[4]]),
        ]

    def test_another_batch_size_rebuilds(self):
        extent = self.make_store().extent("E")
        by_three = extent.page_batches(3)
        by_two = extent.page_batches(2)
        assert chunk_lengths(by_two) == [2, 2, 1]
        again = extent.page_batches(3)
        assert again is not by_three
        assert by_value(again) == by_value(by_three)

    def test_add_drops_the_plan(self):
        store = self.make_store()
        extent = store.extent("E")
        plan = extent.page_batches(2)
        store.insert("E", {"i": 5})
        replanned = extent.page_batches(2)
        assert replanned is not plan
        assert chunk_lengths(replanned) == [2, 2, 2]

    def test_invalidate_placement_drops_the_plan(self):
        extent = self.make_store().extent("E")
        plan = extent.page_batches(2)
        extent.invalidate_placement()
        assert extent.page_batches(2) is not plan

    def test_replace_segment_drops_the_plan(self):
        store = self.make_store()
        extent = store.extent("E")
        plan = extent.page_batches(2)
        segment = PagedSegment("moved", records_per_page=3)
        for record in reversed(extent.records):
            segment.append_record(int(record.oid))
        store.replace_segment({"E": segment}, {})
        steps = extent.page_batches(2)
        assert steps != plan
        assert {
            page_id.segment for pages, _chunk in steps for page_id in pages
        } == {"moved"}
        assert [
            record.values["i"] for _pages, chunk in steps for record in chunk
        ] == [2, 3, 4, 0, 1]

    def test_replica_views_publish_identical_plans(self):
        store = self.make_store(count=41)
        want = by_value(store.extent("E").page_batches(3))
        views = [store.replica_view(RecordingPool()) for _ in range(8)]
        barrier = threading.Barrier(len(views))
        results = [None] * len(views)

        def plan(position):
            extent = views[position].extent("E")
            barrier.wait(timeout=10)
            runs = []
            for _ in range(20):
                # Drop the shared plan so builds keep racing.
                extent.invalidate_placement()
                runs.append(by_value(extent.page_batches(3)))
            results[position] = runs

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=plan, args=(position,))
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
            assert runs == [want] * 20


class TestReplayScope:
    """The replay caches live exactly as long as the data they mirror:
    a delta plan until the next round's delta, an extent plan until the
    extent changes, both engine-held caches no longer than an execution
    or a shard session — and nothing downstream may grow the chunk
    lists a scan hands out."""

    def test_delta_plan_replays_one_delta_at_a_time(self):
        store = ObjectStore(RecordingPool(), records_per_page=2)
        physical = PhysicalSchema(store)
        physical.register_extent("D")
        records = [store.peek(store.insert("D", {"i": i})) for i in range(5)]
        engine = Engine(physical, batch_size=2)
        leaf = RecLeaf("Closure", "d")

        def scan(delta):
            store.buffer.touched.clear()
            events = []
            steps = engine._delta_plan(leaf.name, delta)
            for batch in engine._scan_batches(steps, leaf.var, "delta", None):
                events.append((list(store.buffer.touched), batch.columns["d"]))
                store.buffer.touched.clear()
            return events

        # Out of page order (two records per page): a page is charged
        # once, just before the first batch holding one of its records.
        delta = [records[i] for i in (0, 2, 1, 4, 3)]
        page = [record.page_id for record in records]
        first = scan(delta)
        assert [(touched, list(chunk)) for touched, chunk in first] == [
            ([page[0], page[2]], [records[0], records[2]]),
            ([page[4]], [records[1], records[4]]),
            ([], [records[3]]),
        ]
        again = scan(delta)
        assert [chunk for _t, chunk in again] == [chunk for _t, chunk in first]
        assert all(a is b for (_t, a), (_u, b) in zip(again, first))
        # The next round's delta replaces the plan, never joins it.
        following = records[:1]
        assert [list(chunk) for _t, chunk in scan(following)] == [[records[0]]]
        assert engine._delta_plans["Closure"][0] is following
        assert len(engine._delta_plans) == 1

    def test_forwarded_chunks_are_never_extended(self):
        store = ObjectStore(RecordingPool(), records_per_page=2)
        physical = PhysicalSchema(store)
        physical.register_extent("E")
        physical.register_extent("T")
        targets = [store.insert("T", {"w": i}) for i in range(3)]
        for i in range(7):
            store.insert("E", {"i": i % 3, "ref": targets[i % 3]})
        # A var-forwarding Proj and an all-pass Sel hand the scan's own
        # chunk lists downstream: into an IJ, whose output accumulates
        # across input batches (one scan's whole extent is a short tail
        # chunk, then the next scan's arrives), and into the join's
        # probe memo.
        forwarded = Proj(EntityLeaf("E", "a"), out(a=var("a")))
        outer = IJ(
            UnionOp(forwarded, forwarded),
            EntityLeaf("T", "t"),
            path("a", "ref"),
            "t",
        )
        inner = Sel(EntityLeaf("E", "e"), ge(path("e", "i"), const(0)))
        plan = Proj(
            EJ(outer, inner, eq(path("a", "i"), path("e", "i"))),
            out(a=var("a"), e=var("e"), w=path("t", "w")),
        )
        extent = store.extent("E")
        for batch_size, want in ((3, [3, 3, 1]), (8, [7])):
            plan_before = extent.page_batches(batch_size)
            assert chunk_lengths(plan_before) == want
            for _run in range(2):
                result = Engine(physical, batch_size=batch_size).execute(plan)
                assert len(result.rows) == 2 * (3 * 3 + 2 * 2 + 2 * 2)
            assert extent.page_batches(batch_size) is plan_before
            assert chunk_lengths(plan_before) == want

    def test_sharded_closures_hold_no_execution_scoped_caches(self):
        """A bound on what the replay may retain: the traced peak over
        20 shards=2 closures on the 192-composer database stays within
        4 MB.  It sits at ~2.3 MB, as before the replay existed;
        keying the delta plans and probe memos by list identity and
        keeping them past the end of a shard session reads ~5.2 MB."""
        db = generate_music_database(
            MusicConfig(
                lineages=24, generations=8, works_per_composer=2, seed=92
            )
        )
        db.build_paper_indexes()
        db.physical.refresh_statistics()
        service = QueryService(db, ServiceConfig())
        request = {
            "op": "query",
            "shards": 2,
            "text": (
                "view Influencer as "
                "select [master: x.master, disciple: x, gen: 1] "
                "from x in Composer union "
                "select [master: i.master, disciple: x, gen: i.gen + 1] "
                "from i in Influencer, x in Composer "
                "where i.disciple = x.master; "
                "select [name: i.disciple.name, gen: i.gen] "
                "from i in Influencer where i.gen >= 3;"
            ),
        }
        assert service.handle(dict(request))["ok"]  # plan + cluster built
        tracemalloc.start()
        try:
            for _ in range(20):
                response = service.handle(dict(request))
                assert response["ok"] and response["shards"] == 2
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20


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
