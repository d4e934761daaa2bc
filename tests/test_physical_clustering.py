"""Tests for clustering, fragments and statistics."""

import pytest

from repro.physical.clustering import ClusterTree, apply_clustering, cluster_along_path
from repro.physical.fragments import (
    SOURCE_ATTRIBUTE,
    create_horizontal_fragment,
    create_vertical_fragment,
)
from repro.physical.stats import Statistics
from tests.test_physical_storage import RecordingPool, observed, regrouped


class TestClustering:
    def test_clustering_colocates_subobjects(self, small_db):
        store = small_db.store
        stats_before = Statistics(store)
        before = stats_before.clustered_fraction("Composer", "works")
        tree = ClusterTree("Composer", {"works": None})
        apply_clustering(store, tree)
        stats_after = Statistics(store)
        after = stats_after.clustered_fraction("Composer", "works")
        assert after > before

    def test_all_records_remain_reachable(self, small_db):
        store = small_db.store
        tree = ClusterTree(
            "Composer", {"works": ClusterTree("Composition", {"instruments": None})}
        )
        apply_clustering(store, tree)
        for name in ("Composer", "Composition", "Instrument"):
            for record in store.extent(name).records:
                assert record.page_id is not None
                fetched = store.fetch(record.oid)
                assert fetched is record

    def test_scan_counts_still_correct_after_clustering(self, small_db):
        store = small_db.store
        n_composers = len(store.extent("Composer"))
        apply_clustering(store, ClusterTree("Composer", {"works": None}))
        assert len(list(store.scan("Composer"))) == n_composers

    def test_scan_after_clustering_walks_the_new_pages(self, small_db):
        # ``replace_segment`` must drop the page directories that the
        # scans before it cached.
        store = small_db.store
        store.buffer = RecordingPool()
        names = ("Composer", "Composition")
        before = {name: observed(store, name) for name in names}
        apply_clustering(store, ClusterTree("Composer", {"works": None}))
        for name in names:
            touched, records = observed(store, name)
            assert (touched, records) == regrouped(store, name)
            assert touched != before[name][0]
            assert {page.segment for page in touched} == {
                "cluster(Composer+Composition)"
            }
            assert sorted(r.oid for r in records) == sorted(
                r.oid for r in before[name][1]
            )

    def test_cluster_along_path_convenience(self, small_db):
        segment = cluster_along_path(
            small_db.store,
            "Composer",
            ["works", "instruments"],
            ["Composition", "Instrument"],
        )
        assert segment.record_count() >= len(small_db.store.extent("Composer"))

    def test_page_aligned_owners(self, small_db):
        store = small_db.store
        tree = ClusterTree("Composer", {"works": None})
        segment = apply_clustering(store, tree, page_aligned_owners=True)
        # Each composer starts a fresh page, so there are at least as
        # many pages as composers.
        assert segment.page_count() >= len(store.extent("Composer"))


class TestFragments:
    def test_horizontal_fragment_subset(self, small_db):
        store = small_db.store
        info = create_horizontal_fragment(
            store,
            "Composer",
            "Composer_late",
            lambda record: record.values.get("birthyear", 0) >= 1700,
        )
        assert info.kind == "horizontal"
        fragment_records = store.extent("Composer_late").records
        assert all(
            record.values["birthyear"] >= 1700 for record in fragment_records
        )
        expected = sum(
            1
            for record in store.extent("Composer").records
            if record.values.get("birthyear", 0) >= 1700
        )
        assert len(fragment_records) == expected

    def test_horizontal_fragment_links_source(self, small_db):
        store = small_db.store
        create_horizontal_fragment(
            store, "Composer", "Frag", lambda record: True
        )
        for record in store.extent("Frag").records:
            source = store.peek(record.values[SOURCE_ATTRIBUTE])
            assert source.entity == "Composer"
            assert source.values["name"] == record.values["name"]

    def test_vertical_fragment_narrow(self, small_db):
        store = small_db.store
        info = create_vertical_fragment(
            store, "Composer", "Composer_names", ["name"]
        )
        assert info.kind == "vertical"
        fragment = store.extent("Composer_names")
        for record in fragment.records:
            assert set(record.values) == {"name", SOURCE_ATTRIBUTE}
        # Narrow records pack denser: fewer pages than the base extent.
        assert fragment.page_count() <= store.extent("Composer").page_count()

    def test_fragment_registration(self, small_db):
        info = create_vertical_fragment(
            small_db.store, "Composer", "VFrag", ["name"]
        )
        entity = small_db.physical.register_fragment(info)
        assert entity.kind == "fragment"
        assert entity.conceptual_name == "Composer"
        impls = small_db.physical.implementations_of("Composer")
        assert [e.kind for e in impls][0] == "extent"
        assert any(e.name == "VFrag" for e in impls)


class TestStatistics:
    def test_basic_counts(self, small_db):
        stats = small_db.physical.statistics
        count = small_db.config.composer_count
        assert stats.instances("Composer") == count
        assert stats.pages("Composer") >= 1

    def test_eq_selectivity_uniform(self, small_db):
        stats = small_db.physical.statistics
        selectivity = stats.eq_selectivity("Composer", "name")
        assert selectivity == pytest.approx(1.0 / small_db.config.composer_count)

    def test_fanout_of_works(self, small_db):
        stats = small_db.physical.statistics
        assert stats.fanout("Composer", "works") == pytest.approx(
            small_db.config.works_per_composer
        )

    def test_chain_depths_match_generations(self, small_db):
        stats = small_db.physical.statistics
        maximum, mean = stats.chain_depth("Composer", "master")
        assert maximum == small_db.config.generations - 1
        assert 0 < mean < maximum

    def test_chain_survivors_shrink(self, small_db):
        stats = small_db.physical.statistics
        survivors = stats.chain_survivors("Composer", "master")
        assert survivors == sorted(survivors, reverse=True)
        # g-th entry: composers with at least g ancestors.
        lineages = small_db.config.lineages
        generations = small_db.config.generations
        assert survivors[0] == lineages * (generations - 1)

    def test_estimated_fixpoint_iterations(self, small_db):
        stats = small_db.physical.statistics
        iterations = stats.estimated_fixpoint_iterations("Composer", "master")
        assert iterations == small_db.config.generations - 1

    def test_lazy_stats_for_new_extent(self, small_db):
        store = small_db.store
        stats = small_db.physical.statistics
        store.create_extent("Late")
        store.insert("Late", {"v": 1})
        assert stats.instances("Late") == 1

    def test_min_max_tracked(self, small_db):
        stats = small_db.physical.statistics
        entity = stats.entity("Composer")
        assert entity.min_value["birthyear"] <= entity.max_value["birthyear"]
