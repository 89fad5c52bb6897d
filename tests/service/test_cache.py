"""Tests for the fingerprinted LRU result cache."""

import numpy as np
import pytest

import repro.service.cache as cache_module
from repro.service import CachedResult, ResultCache
from repro.simulation.delta import BaseArena
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


def arena(seed: int, slots: int = 2) -> BaseArena:
    """A small private base arena with toggles on every net."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(1, 4, size=(3, slots))
    plane = WaveformPlane.from_packed(
        ("a", "b", "y"), rng.integers(0, 2, size=(3, slots)).astype(np.uint8),
        counts, np.sort(rng.random(int(counts.sum()))))
    return BaseArena(plane=plane,
                     v1=rng.integers(0, 2, size=(slots, 4)).astype(np.uint8),
                     v2=rng.integers(0, 2, size=(slots, 4)).astype(np.uint8),
                     voltages=np.full(slots, 0.8),
                     global_slots=np.arange(slots, dtype=np.int64))


class TestBaseRing:
    def test_candidates_come_newest_first_and_unverified(self, monkeypatch):
        cache = ResultCache(4, max_bases=2)
        for tag in ("one", "two", "three"):
            cache.put_base("g", arena(len(tag)), tag=tag)
        monkeypatch.setattr(cache_module, "base_checksum",
                            lambda arena: pytest.fail("lookup checksummed"))
        assert [entry.tag for entry in cache.bases_for("g")] == [
            "three", "two"]
        assert cache.bases_for("other") == []
        stats = cache.stats()
        assert stats["base_lookups"] == 2
        assert stats["base_verifications"] == 0
        assert stats["base_hits"] == 0
        assert stats["bases"] == 2 and stats["evictions"] == 1

    def test_duplicate_tag_is_dropped_before_any_checksum(self, monkeypatch):
        cache = ResultCache(4, max_bases=2)
        calls = []
        real = cache_module.base_checksum
        monkeypatch.setattr(cache_module, "base_checksum",
                            lambda a: (calls.append(a), real(a))[1])
        first = arena(1)
        cache.put_base("g", first, tag="job")
        cache.put_base("g", arena(2), tag="job")
        assert len(calls) == 1
        (entry,) = cache.bases_for("g")
        assert entry.arena is first
        assert cache.base_bytes_pinned == first.nbytes

    def test_verify_counts_hits_and_evicts_rot(self):
        cache = ResultCache(4, max_bases=4)
        cache.put_base("g", arena(1), tag="good")
        cache.put_base("g", arena(2), tag="rotten")
        rotten, good = cache.bases_for("g")
        rotten.arena.plane.times.view(np.int64)[0] ^= 1
        assert cache.verify_base("g", good)
        assert not cache.verify_base("g", rotten)
        assert [entry.tag for entry in cache.bases_for("g")] == ["good"]
        stats = cache.stats()
        assert stats["base_verifications"] == 2
        assert stats["base_hits"] == 1
        assert stats["integrity_evictions"] == 1
        assert stats["base_bytes_pinned"] == good.arena.nbytes

    def test_rotted_metadata_and_layout_fail_verification(self):
        for rot in ("v1", "voltages", "starts", "counts"):
            cache = ResultCache(4, max_bases=1)
            cache.put_base("g", arena(3), tag="t")
            (entry,) = cache.bases_for("g")
            target = (getattr(entry.arena, rot) if rot in ("v1", "voltages")
                      else getattr(entry.arena.plane, rot))
            target.reshape(-1).view(np.uint8)[0] ^= 1
            assert not cache.verify_base("g", entry), rot
            assert cache.integrity_evictions == 1


class TestPackedPlaneIntegrity:
    def test_cached_result_with_rotted_starts_is_evicted(self):
        """A packed plane's checksum trusts ``starts``; the verify-on-hit
        path checks them separately, so offset rot is still a miss."""
        cache = ResultCache(2)
        cache.put("k", CachedResult(plane=arena(4).plane, slot_labels=[],
                                    engine="e", gate_evaluations=0))
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
        plane = arena(5, slots=3).plane
        plane.row("y"), plane.checksum()      # build index and CRC
        if not packed:
            plane = plane.take([2, 0, 1], copy=False)
        takes = []
        monkeypatch.setattr(
            WaveformPlane, "take",
            lambda self, *args, **kwargs: takes.append(1))
        cache = ResultCache(2)
        cache.put("k", CachedResult(plane=plane, slot_labels=[], engine="e",
                                    gate_evaluations=0))
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
