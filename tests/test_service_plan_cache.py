"""Tests for the stats-aware LRU plan cache (satellite: hit/miss on
canonically-equal queries, LRU eviction order, drift invalidation)."""

import pytest

from repro.core.baselines import cost_controlled_optimizer
from repro.lang import compile_text
from repro.service.plan_cache import (
    COST_DRIFT,
    EXPLICIT,
    RECALIBRATION,
    PlanCache,
    schema_fingerprint,
    stats_fingerprint,
)
from repro.workloads import MusicConfig, generate_music_database

QUERY = 'select [name: x.name] from x in Composer where x.name = "Bach";'
ALIASED = 'select [name: who.name]  from  who in Composer where who.name="Bach";'


@pytest.fixture()
def db():
    db = generate_music_database(
        MusicConfig(lineages=3, generations=5, works_per_composer=2, seed=11)
    )
    db.build_paper_indexes()
    return db


def optimize(db, text):
    graph = compile_text(text, db.catalog)
    return cost_controlled_optimizer(db.physical).optimize(graph)


def seed_cache(cache, db, text):
    key = cache.key_for(text, db.physical)
    result = optimize(db, text)
    cache.store(key, result.plan, result.cost, db.physical)
    return key, result


class TestHitMiss:
    def test_cold_lookup_is_miss(self, db):
        cache = PlanCache()
        lookup = cache.lookup(cache.key_for(QUERY, db.physical), db.physical)
        assert lookup.status == "miss"
        assert lookup.entry is None

    def test_hit_after_store(self, db):
        cache = PlanCache()
        key, result = seed_cache(cache, db, QUERY)
        lookup = cache.lookup(key, db.physical)
        assert lookup.status == "hit"
        assert lookup.entry.plan is result.plan
        assert cache.stats.hits == 1 and cache.stats.hit_ratio == 1.0

    def test_whitespace_and_alias_variants_share_a_key(self, db):
        cache = PlanCache()
        key, _result = seed_cache(cache, db, QUERY)
        variant_key = cache.key_for(ALIASED, db.physical)
        assert variant_key == key
        assert cache.lookup(variant_key, db.physical).status == "hit"

    def test_different_constant_misses(self, db):
        cache = PlanCache()
        seed_cache(cache, db, QUERY)
        other = cache.key_for(QUERY.replace("Bach", "Liszt"), db.physical)
        assert cache.lookup(other, db.physical).status == "miss"

    def test_index_build_changes_schema_fingerprint(self, db):
        cache = PlanCache()
        key_before = cache.key_for(QUERY, db.physical)
        db.physical.build_selection_index("Composer", "birthyear")
        key_after = cache.key_for(QUERY, db.physical)
        # A new index changes the plan space: old entries must not match.
        assert key_before != key_after


class TestLRU:
    def test_eviction_order(self, db):
        cache = PlanCache(capacity=2)
        key_a, _ = seed_cache(cache, db, QUERY)
        key_b, _ = seed_cache(cache, db, QUERY.replace("Bach", "Liszt"))
        # Touch A so B becomes the least recently used.
        assert cache.lookup(key_a, db.physical).status == "hit"
        key_c, _ = seed_cache(cache, db, QUERY.replace("Bach", "Chopin"))
        assert len(cache) == 2
        assert cache.lookup(key_b, db.physical).status == "miss"
        assert cache.lookup(key_a, db.physical).status == "hit"
        assert cache.lookup(key_c, db.physical).status == "hit"
        assert cache.stats.evictions == 1

    def test_restore_replaces_in_place(self, db):
        cache = PlanCache(capacity=2)
        key, result = seed_cache(cache, db, QUERY)
        cache.store(key, result.plan, result.cost + 1, db.physical)
        assert len(cache) == 1


class TestDriftInvalidation:
    def _grow_composers(self, db, count):
        for index in range(count):
            db.store.insert(
                "Composer",
                {
                    "name": f"grown_{index:04d}",
                    "birthyear": 1900,
                    "master": None,
                    "works": (),
                },
            )
        db.physical.refresh_statistics()

    def test_stats_fingerprint_tracks_data(self, db):
        before = stats_fingerprint(db.physical)
        assert stats_fingerprint(db.physical) == before  # deterministic
        self._grow_composers(db, 5)
        assert stats_fingerprint(db.physical) != before

    def test_schema_fingerprint_ignores_data(self, db):
        before = schema_fingerprint(db.physical)
        self._grow_composers(db, 5)
        assert schema_fingerprint(db.physical) == before

    def test_small_drift_revalidates_in_place(self, db):
        cache = PlanCache(drift_ratio=100.0)
        key, result = seed_cache(cache, db, QUERY)
        self._grow_composers(db, 10)
        lookup = cache.lookup(key, db.physical)
        assert lookup.status == "revalidated"
        assert lookup.entry.plan is result.plan
        assert lookup.recost is not None
        # The entry was updated: the next probe with unchanged stats is
        # a plain hit at the fresh cost.
        again = cache.lookup(key, db.physical)
        assert again.status == "hit"
        assert again.entry.cost == pytest.approx(lookup.recost)

    def test_large_drift_invalidates(self, db):
        cache = PlanCache(drift_ratio=0.05)
        # A scan-shaped query: its cost scales with |Composer|, unlike
        # the indexed name lookup whose cost stays flat as data grows.
        scan_query = (
            "select [name: x.name] from x in Composer "
            "where x.birthyear >= 1700;"
        )
        key, _result = seed_cache(cache, db, scan_query)
        self._grow_composers(db, 500)
        lookup = cache.lookup(key, db.physical)
        assert lookup.status == "drifted"
        assert lookup.entry is None
        assert cache.stats.invalidations == 1
        assert len(cache) == 0
        # Re-optimizing under the new statistics repopulates the cache.
        key2, _ = seed_cache(cache, db, scan_query)
        assert cache.lookup(key2, db.physical).status == "hit"

    def test_invalidate_all(self, db):
        cache = PlanCache()
        seed_cache(cache, db, QUERY)
        seed_cache(cache, db, QUERY.replace("Bach", "Liszt"))
        assert cache.invalidate_all() == 2
        assert len(cache) == 0


def _grow_composers(db, count):
    for index in range(count):
        db.store.insert(
            "Composer",
            {
                "name": f"grown_{index:04d}",
                "birthyear": 1900,
                "master": None,
                "works": (),
            },
        )
    db.physical.refresh_statistics()


SCAN_QUERY = (
    "select [name: x.name] from x in Composer where x.birthyear >= 1700;"
)


class TestInvalidationAudit:
    """Satellite: invalidations carry the key and the reason."""

    def test_cost_drift_is_recorded_with_evidence(self, db):
        cache = PlanCache(drift_ratio=0.05)
        key, result = seed_cache(cache, db, SCAN_QUERY)
        _grow_composers(db, 500)
        lookup = cache.lookup(key, db.physical)
        assert lookup.status == "drifted"
        assert lookup.reason == COST_DRIFT
        # The evicted entry rides along for the regression detector.
        assert lookup.evicted is not None
        assert lookup.evicted.plan is result.plan
        snapshot = cache.snapshot()
        assert snapshot["invalidations_by_reason"] == {COST_DRIFT: 1}
        (event,) = snapshot["recent_invalidations"]
        assert event["reason"] == COST_DRIFT
        assert event["query"] == key[0]
        assert event["old_cost"] != event["new_cost"]

    def test_invalidate_all_records_explicit_reason(self, db):
        cache = PlanCache()
        seed_cache(cache, db, QUERY)
        seed_cache(cache, db, QUERY.replace("Bach", "Liszt"))
        assert cache.invalidate_all() == 2
        snapshot = cache.snapshot()
        assert snapshot["invalidations_by_reason"] == {EXPLICIT: 2}
        assert len(snapshot["recent_invalidations"]) == 2


class TestPinning:
    def test_pinned_plan_survives_drift(self, db):
        cache = PlanCache(drift_ratio=0.05)
        key, result = seed_cache(cache, db, SCAN_QUERY)
        assert cache.pin(key)
        _grow_composers(db, 500)
        lookup = cache.lookup(key, db.physical)
        # Same data movement as the drift test above, but the pinned
        # entry is revalidated in place instead of evicted.
        assert lookup.status == "revalidated"
        assert lookup.entry.plan is result.plan
        assert cache.pinned_keys() == [key]
        assert cache.pin(key, False)
        assert cache.pinned_keys() == []

    def test_pin_unknown_key_reports_absent(self, db):
        cache = PlanCache()
        assert not cache.pin(cache.key_for(QUERY, db.physical))


class TestRecostAll:
    def test_recalibration_evicts_drifted_entries(self, db):
        from repro.cost.model import DetailedCostModel
        from repro.cost.params import CostParameters

        cache = PlanCache(drift_ratio=0.05)
        key, _result = seed_cache(cache, db, SCAN_QUERY)
        # A wildly different CPU weight moves every scan-shaped estimate.
        model = DetailedCostModel(
            db.physical, CostParameters(eval_per_tuple=50.0)
        )
        evicted = cache.recost_all(db.physical, model)
        assert [entry_key for entry_key, _e, _c in evicted] == [key]
        assert len(cache) == 0
        assert cache.snapshot()["invalidations_by_reason"] == {
            RECALIBRATION: 1
        }

    def test_recost_all_keeps_stable_and_pinned_entries(self, db):
        from repro.cost.model import DetailedCostModel
        from repro.cost.params import CostParameters

        cache = PlanCache(drift_ratio=0.05)
        stable_key, _ = seed_cache(cache, db, QUERY)
        moved_key, _ = seed_cache(cache, db, SCAN_QUERY)
        cache.pin(moved_key)
        model = DetailedCostModel(
            db.physical, CostParameters(eval_per_tuple=50.0)
        )
        evicted = cache.recost_all(db.physical, model)
        # The pinned entry was refreshed, not evicted; the stable one may
        # or may not move depending on its shape, but the pinned key must
        # still be present.
        assert moved_key not in [k for k, _e, _c in evicted]
        assert cache.entry(moved_key) is not None


class TestValidation:
    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)

    def test_bad_drift_rejected(self):
        with pytest.raises(ValueError):
            PlanCache(drift_ratio=-0.1)


class TestParseOnce:
    def test_a_missed_text_is_parsed_once_and_compiles_alike(self, db, monkeypatch):
        """The service keys the cache and compiles a miss from one parse
        (``key_for_program``), and the graph equals ``compile_text``'s."""
        from repro.lang import parser as parser_module
        from repro.service import QueryService, ServiceConfig
        from repro.service import server as server_module

        lexed = []
        tokenize = parser_module.tokenize
        monkeypatch.setattr(
            parser_module, "tokenize", lambda text: lexed.append(text) or tokenize(text)
        )
        graphs = []
        compile_program = server_module.compile_program

        def capture(program, catalog):
            graphs.append(compile_program(program, catalog))
            return graphs[-1]

        monkeypatch.setattr(server_module, "compile_program", capture)
        service = QueryService(db, ServiceConfig())
        try:
            assert service.run_query(QUERY)["cache"] == "miss"
            assert len(lexed) == 1 and len(graphs) == 1
            assert service.run_query(ALIASED)["cache"] == "hit"
            assert len(lexed) == 2 and len(graphs) == 1
        finally:
            service.close()
        expected = compile_text(QUERY, db.catalog)
        assert graphs[0].answer == expected.answer
        assert [repr(rule) for rule in graphs[0].rules] == [
            repr(rule) for rule in expected.rules
        ]

    def test_key_for_text_equals_key_for_its_program(self, db):
        from repro.lang import parse

        cache = PlanCache()
        assert cache.key_for(QUERY, db.physical) == cache.key_for_program(
            parse(QUERY), db.physical
        )
