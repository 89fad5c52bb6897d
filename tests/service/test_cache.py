"""Tests for the fingerprinted LRU result cache."""

import numpy as np
import pytest

from repro.service import CachedResult, ResultCache
from repro.waveform.plane import WaveformPlane


def entry(tag: str) -> CachedResult:
    return CachedResult(plane=WaveformPlane.from_waveforms([{}]),
                        slot_labels=[(0, 0.8)],
                        engine=tag)


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
        assert stats["integrity_evictions"] == 0
        assert set(stats) == {"entries", "max_entries", "hits", "misses",
                              "evictions", "integrity_evictions", "hit_rate"}

    def test_clear(self):
        cache = ResultCache(2)
        cache.put("a", entry("a"))
        cache.clear()
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_hit_rate_before_first_lookup(self):
        assert ResultCache(2).hit_rate == 0.0


def packed_plane(seed: int, slots: int = 2) -> WaveformPlane:
    """A small private packed plane with toggles on every net."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(1, 4, size=(3, slots))
    return WaveformPlane.from_packed(
        ("a", "b", "y"), rng.integers(0, 2, size=(3, slots)).astype(np.uint8),
        counts, np.sort(rng.random(int(counts.sum()))))


class TestPackedPlaneIntegrity:
    def test_cached_result_with_rotted_starts_is_evicted(self):
        """A packed plane's checksum trusts ``starts``; the verify-on-hit
        path checks them separately, so offset rot is still a miss."""
        cache = ResultCache(2)
        cache.put("k", CachedResult(plane=packed_plane(4), slot_labels=[],
                                    engine="e"))
        hit = cache.get("k")
        assert hit is not None and hit.plane.layout_intact()
        hit.plane.starts[1, 0] += 1
        assert cache.get("k") is None
        assert cache.integrity_evictions == 1


class TestAdmissionCopies:
    """``put`` stores array copies of the caller's plane: no gather, no
    shared memory, row index and names CRC carried over."""

    @pytest.mark.parametrize("packed", [True, False])
    def test_put_copies_without_reindexing(self, packed, monkeypatch):
        plane = packed_plane(5, slots=3)
        plane.row("y"), plane.checksum()      # build index and CRC
        if not packed:
            plane = plane.take([2, 0, 1], copy=False)
        takes = []
        monkeypatch.setattr(
            WaveformPlane, "take",
            lambda self, *args, **kwargs: takes.append(1))
        cache = ResultCache(2)
        cache.put("k", CachedResult(plane=plane, slot_labels=[], engine="e"))
        stored = cache.get("k").plane
        assert takes == []
        assert stored is not plane and stored.layout_intact()
        assert stored._index is plane._index
        assert stored._nets_crc == plane._nets_crc is not None
        assert stored.checksum() == plane.checksum()
        for name in ("initial", "counts", "starts", "times"):
            assert not np.shares_memory(getattr(stored, name),
                                        getattr(plane, name))
            assert getattr(stored, name).flags.c_contiguous
        # Packed in -> packed out: the copy's payload is checksummed
        # as it stands.
        assert stored.packed()[2] is stored.times
        # The caller's plane rotting later is not the cache's problem.
        plane.times[0] += 1.0
        assert cache.get("k") is not None
