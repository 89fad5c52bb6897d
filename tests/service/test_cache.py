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


class TestPutBaseLocking:
    """The admission CRC runs outside the cache lock (every submitting
    thread's ``get`` takes it); the insert re-checks what may have
    changed meanwhile."""

    def test_checksum_runs_unlocked(self, monkeypatch):
        cache = ResultCache(4, max_bases=2)
        held = []
        real = cache_module.base_checksum
        monkeypatch.setattr(
            cache_module, "base_checksum",
            lambda a: (held.append(cache._lock.locked()), real(a))[1])
        cache.put_base("g", arena(1), tag="job")
        assert held == [False]

    def test_tag_admitted_during_the_checksum_wins(self, monkeypatch):
        cache = ResultCache(4, max_bases=2)
        first, racer = arena(1), arena(2, slots=3)
        real = cache_module.base_checksum

        def racing_checksum(a):
            if a is first:  # another worker pins the same job meanwhile
                cache.put_base("g", racer, tag="job")
            return real(a)

        monkeypatch.setattr(cache_module, "base_checksum", racing_checksum)
        cache.put_base("g", first, tag="job")
        (entry,) = cache.bases_for("g")
        assert entry.arena is racer
        stats = cache.stats()
        assert stats["base_bytes_pinned"] == racer.nbytes
        assert stats["base_rows_captured"] == 3 * 3

    def test_suspension_during_the_checksum_refuses_the_insert(
            self, monkeypatch):
        cache = ResultCache(4, max_bases=2)
        cache.put_base("g", arena(1), tag="old")
        late = arena(2)
        real = cache_module.base_checksum

        def closing_checksum(a):
            if a is late:  # another worker closes a losing window
                cache.settle_ring("g", cache_module.LEDGER_WINDOW, 0)
            return real(a)

        monkeypatch.setattr(cache_module, "base_checksum", closing_checksum)
        cache.put_base("g", late, tag="late")
        stats = cache.stats()
        assert stats["base_suspensions"] == 1
        assert stats["bases"] == 0 and stats["base_bytes_pinned"] == 0
        assert stats["base_rows_captured"] == 3 * 2  # "old" only


class TestRingLedger:
    """Spliced-vs-captured arithmetic on a bare cache: counts in, a
    deterministic suspension schedule out."""

    WINDOW = cache_module.LEDGER_WINDOW

    def window(self, cache, group, rows_per_job, lanes_per_job, batch=1,
               first_tag=0):
        """Settle one full window of ``batch``-job batches, each job
        pinning ``rows_per_job`` rows (3 nets x slots)."""
        for job in range(0, self.WINDOW, batch):
            for k in range(batch):
                if rows_per_job:
                    cache.put_base(group, arena(0, slots=rows_per_job // 3),
                                   tag=f"{first_tag + job + k}")
            cache.settle_ring(group, batch, lanes_per_job * batch)

    def run_down(self, cache, group, jobs):
        """Settle ``jobs`` jobs one by one through a suspension that
        must last until the final one."""
        for _ in range(jobs - 1):
            cache.settle_ring(group, 1, 0)
            assert not cache.captures(group)
        cache.settle_ring(group, 1, 0)

    def test_losing_window_suspends_and_drops_the_ring(self, monkeypatch):
        cache = ResultCache(4, max_bases=4)
        for job in range(self.WINDOW - 1):
            cache.put_base("g", arena(job), tag=f"{job}")
            cache.settle_ring("g", 1, 0)
        assert cache.captures("g")
        assert cache.stats()["bases"] == 4
        assert cache.stats()["base_bytes_pinned"] > 0
        cache.put_base("g", arena(99), tag="last")
        cache.settle_ring("g", 1, 0)
        stats = cache.stats()
        assert not cache.captures("g")
        assert stats["base_suspensions"] == 1
        assert stats["groups_suspended"] == 1
        assert stats["bases"] == 0 and stats["base_bytes_pinned"] == 0
        assert stats["base_rows_captured"] == self.WINDOW * 3 * 2
        assert stats["base_lanes_spliced"] == 0
        # LRU turnover only: dropping the ring is a suspension, not
        # four more evictions.
        assert stats["evictions"] == self.WINDOW - 4
        # Suspended: nothing to select from, nothing admitted or hashed.
        monkeypatch.setattr(cache_module, "base_checksum",
                            lambda a: pytest.fail("suspended group hashed"))
        assert cache.bases_for("g") == []
        cache.put_base("g", arena(5), tag="ignored")
        assert cache.stats()["bases"] == 0
        # Another group is another account.
        assert cache.captures("other")

    def test_break_even_is_one_lane_per_two_rows(self):
        paying, losing = ResultCache(4, max_bases=2), ResultCache(4, max_bases=2)
        # 6 rows and 3 lanes per job: exactly 1 : 2 keeps the ring ...
        self.window(paying, "g", rows_per_job=6, lanes_per_job=3)
        assert paying.captures("g")
        assert paying.stats()["base_suspensions"] == 0
        assert paying.stats()["base_lanes_spliced"] == 3 * self.WINDOW
        # ... and one lane short of it over the whole window does not.
        for job in range(self.WINDOW):
            losing.put_base("g", arena(0), tag=f"{job}")
            losing.settle_ring("g", 1, 3 if job else 2)
        assert not losing.captures("g")

    def test_window_without_captures_pays(self):
        cache = ResultCache(4, max_bases=2)
        self.window(cache, "g", rows_per_job=0, lanes_per_job=0)
        assert cache.captures("g")
        assert cache.stats()["base_suspensions"] == 0

    def test_back_off_doubles_to_the_cap_and_a_paying_window_resets_it(self):
        cache = ResultCache(4, max_bases=2)
        expected = cache_module.SUSPEND_MIN
        tag = 0
        while True:
            self.window(cache, "g", rows_per_job=6, lanes_per_job=0,
                        first_tag=tag)
            tag += self.WINDOW
            assert not cache.captures("g")
            assert cache._ledgers["g"].suspended_for == expected
            self.run_down(cache, "g", expected)
            assert cache.captures("g")          # probing again
            if expected == cache_module.SUSPEND_MAX:
                break
            expected *= 2
        # Capped: one more losing window suspends SUSPEND_MAX again.
        self.window(cache, "g", rows_per_job=6, lanes_per_job=0,
                    first_tag=tag)
        assert cache._ledgers["g"].suspended_for == cache_module.SUSPEND_MAX
        self.run_down(cache, "g", cache_module.SUSPEND_MAX)
        # A paying probe resets the back-off to its first step.
        self.window(cache, "g", rows_per_job=6, lanes_per_job=6,
                    first_tag=tag + self.WINDOW)
        assert cache.captures("g")
        self.window(cache, "g", rows_per_job=6, lanes_per_job=0,
                    first_tag=tag + 2 * self.WINDOW)
        assert cache._ledgers["g"].suspended_for == cache_module.SUSPEND_MIN
        assert cache.stats()["base_suspensions"] == 6

    def test_batches_close_the_window_at_the_first_settle_past_it(self):
        cache = ResultCache(4, max_bases=2)
        for batch in range(12):  # 60 jobs
            cache.put_base("g", arena(batch), tag=f"{batch}")
            cache.settle_ring("g", 5, 0)
        assert cache.captures("g")
        cache.settle_ring("g", 5, 0)  # 65
        assert not cache.captures("g")
        # A batch overshooting the suspension only ends it.
        cache.settle_ring("g", cache_module.SUSPEND_MIN + 40, 0)
        assert cache.captures("g")
        assert cache._ledgers["g"].settled == 0

    def test_clear_forgets_the_ledgers(self):
        cache = ResultCache(4, max_bases=2)
        self.window(cache, "g", rows_per_job=6, lanes_per_job=0)
        assert not cache.captures("g")
        cache.clear()
        assert cache.captures("g")
        assert cache.stats()["groups_suspended"] == 0
        cache.put_base("g", arena(1), tag="again")
        assert cache.stats()["bases"] == 1

    def test_ring_off_means_no_ledger(self):
        for cache in (ResultCache(4, max_bases=0), ResultCache(0, max_bases=2)):
            assert not cache.captures("g")
            cache.settle_ring("g", 500, 0)
            assert cache._ledgers == {}
            assert cache.stats()["base_suspensions"] == 0


class TestPackedPlaneIntegrity:
    def test_cached_result_with_rotted_starts_is_evicted(self):
        """A packed plane's checksum trusts ``starts``; the verify-on-hit
        path checks them separately, so offset rot is still a miss."""
        cache = ResultCache(2)
        cache.put("k", CachedResult(plane=arena(4).plane, slot_labels=[],
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
        plane = arena(5, slots=3).plane
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
