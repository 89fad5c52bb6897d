"""Tests for the fingerprinted LRU result cache."""

from repro.service import CachedResult, ResultCache
from repro.waveform.plane import WaveformPlane


def entry(tag: str) -> CachedResult:
    return CachedResult(plane=WaveformPlane.from_waveforms([{}]),
                        slot_labels=[(0, 0.8)],
                        engine=tag, gate_evaluations=1)


class TestResultCache:
    def test_round_trip(self):
        cache = ResultCache(4)
        cache.put("a", entry("a"))
        assert cache.get("a").engine == "a"
        assert cache.get("missing") is None
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_lru_eviction_order(self):
        cache = ResultCache(2)
        cache.put("a", entry("a"))
        cache.put("b", entry("b"))
        assert cache.get("a") is not None  # refresh a; b is now oldest
        cache.put("c", entry("c"))
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.get("c") is not None
        assert cache.evictions == 1

    def test_replacing_same_key_does_not_evict(self):
        cache = ResultCache(2)
        cache.put("a", entry("a1"))
        cache.put("b", entry("b"))
        cache.put("a", entry("a2"))
        assert len(cache) == 2
        assert cache.evictions == 0
        assert cache.get("a").engine == "a2"

    def test_disabled_cache_never_stores(self):
        cache = ResultCache(0)
        assert not cache.enabled
        cache.put("a", entry("a"))
        assert cache.get("a") is None
        assert len(cache) == 0
        # A disabled cache counts nothing: lookups short-circuit.
        assert cache.hits == 0 and cache.misses == 0

    def test_stats_shape(self):
        cache = ResultCache(2)
        cache.put("a", entry("a"))
        cache.get("a")
        cache.get("b")
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["max_entries"] == 2
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        assert stats["evictions"] == 0

    def test_clear(self):
        cache = ResultCache(2)
        cache.put("a", entry("a"))
        cache.clear()
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_hit_rate_before_first_lookup(self):
        assert ResultCache(2).hit_rate == 0.0
