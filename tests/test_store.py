"""Tests for the one store: the bounded LRU, the atomic write and the
versioned manifest every cache and checkpoint layer is built on."""

import json
import sys
import threading

import pytest

from repro.errors import CheckpointError
from repro.store import LruCache, atomic_write, read_manifest, write_manifest


def counters(cache):
    return (cache.hits, cache.misses, cache.evictions,
            cache.integrity_evictions)


class TestLruCache:
    def test_evicts_least_recently_used_first(self):
        cache = LruCache(3)
        for key in "abc":
            cache.put(key, key.upper())
        assert cache.get("a") == "A"          # a is now the newest
        cache.put("d", "D")
        assert list(cache) == ["c", "a", "d"]
        cache.put("e", "E")
        assert list(cache) == ["a", "d", "e"]
        assert cache.evictions == 2

    def test_put_many_evicts_once_all_are_in(self):
        cache = LruCache(2)
        cache.put_many([("a", 1), ("b", 2), ("c", 3), ("d", 4)])
        assert list(cache) == ["c", "d"]
        assert cache.evictions == 2

    def test_replacing_a_key_refreshes_it_and_does_not_evict(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 3)
        assert len(cache) == 2 and cache.evictions == 0
        assert list(cache) == ["b", "a"]
        assert cache.get("a") == 3

    def test_put_if_absent_keeps_the_first_value_and_counts_nothing(self):
        cache = LruCache(2)
        first, second = object(), object()
        assert cache.put_if_absent("k", first) is first
        cache.put("other", 0)
        assert cache.put_if_absent("k", second) is first
        assert list(cache) == ["k", "other"]  # not refreshed either
        assert counters(cache) == (0, 0, 0, 0)
        cache.put_if_absent("third", 0)       # a new key still evicts
        assert list(cache) == ["other", "third"]
        assert cache.evictions == 1

    def test_failed_verify_drops_the_entry_and_counts_a_miss(self):
        seen = []

        def verify(value):
            seen.append(value)
            return value != "rotten"

        cache = LruCache(4, verify=verify)
        cache.put("good", "fresh")
        cache.put("bad", "rotten")
        assert cache.get("good") == "fresh"
        assert cache.get("bad") is None
        assert "bad" not in cache and len(cache) == 1
        assert counters(cache) == (1, 1, 0, 1)
        assert cache.get("bad") is None       # now a plain miss
        assert counters(cache) == (1, 2, 0, 1)
        assert seen == ["fresh", "rotten"]

    def test_membership_and_iteration_neither_count_nor_reorder(self):
        cache = LruCache(3)
        for key in "abc":
            cache.put(key, key)
        assert "a" in cache and "z" not in cache
        assert list(cache) == ["a", "b", "c"]
        assert len(cache) == 3
        assert counters(cache) == (0, 0, 0, 0)
        cache.put("d", "d")                   # a was not refreshed
        assert list(cache) == ["b", "c", "d"]

    def test_iteration_is_over_a_snapshot(self):
        cache = LruCache(4)
        cache.put_many([("a", 1), ("b", 2)])
        for key in cache:
            cache.put(key + "'", 0)
        assert len(cache) == 4

    def test_bound_zero_holds_nothing_and_counts_nothing(self):
        cache = LruCache(0)
        value = object()
        assert cache.put_if_absent("k", value) is value
        cache.put("a", 1)
        cache.put_many([("b", 2)])
        assert cache.get("a") is None and cache.get("k") is None
        assert len(cache) == 0 and list(cache) == []
        assert counters(cache) == (0, 0, 0, 0)

    def test_stats_clear_and_reset(self):
        cache = LruCache(1)
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        cache.put("b", 2)
        assert cache.stats() == {
            "entries": 1, "max_entries": 1, "hits": 1, "misses": 1,
            "evictions": 1, "integrity_evictions": 0, "hit_rate": 0.5}
        cache.clear()                         # entries only
        assert len(cache) == 0 and counters(cache) == (1, 1, 1, 0)
        cache.put("c", 3)
        cache.reset()                         # entries and counters
        assert len(cache) == 0 and counters(cache) == (0, 0, 0, 0)
        assert cache.hit_rate == 0.0

    def test_concurrent_get_put_stays_bounded_and_counts_every_lookup(self):
        bound, rounds, threads = 8, 2000, 4
        cache = LruCache(bound)
        sizes = []
        failures = []

        def worker(seed):
            try:
                for step in range(rounds):
                    key = (seed * 7 + step) % 13
                    if cache.get(key) is None:
                        cache.put(key, step)
                    sizes.append(len(cache))
            except Exception as error:  # noqa: BLE001 - reported below
                failures.append(error)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=worker, args=(seed,))
                       for seed in range(threads)]
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in workers)
        assert failures == []
        assert max(sizes) <= bound and len(cache) <= bound
        assert cache.hits + cache.misses == threads * rounds
        assert cache.misses > 0 and cache.hits > 0


class TestAtomicWrite:
    def test_writes_bytes_and_stream_payloads(self, tmp_path):
        target = tmp_path / "out.bin"
        atomic_write(target, b"one")
        assert target.read_bytes() == b"one"
        atomic_write(str(target), lambda stream: stream.write(b"two"))
        assert target.read_bytes() == b"two"
        assert [path.name for path in tmp_path.iterdir()] == ["out.bin"]

    def test_failed_writer_leaves_no_temp_file_and_the_old_target(
            self, tmp_path):
        target = tmp_path / "out.bin"
        target.write_bytes(b"original contents")

        def writer(stream):
            stream.write(b"half a new file")
            raise RuntimeError("writer failed")

        with pytest.raises(RuntimeError, match="writer failed"):
            atomic_write(target, writer)
        assert target.read_bytes() == b"original contents"
        assert [path.name for path in tmp_path.iterdir()] == ["out.bin"]

    def test_interrupted_writer_without_a_target_leaves_nothing(
            self, tmp_path):
        def writer(stream):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            atomic_write(tmp_path / "new.bin", writer)
        assert list(tmp_path.iterdir()) == []


class TestManifest:
    def test_round_trip_stamps_the_version(self, tmp_path):
        path = tmp_path / "manifest.json"
        assert read_manifest(path, 3, "test") is None
        write_manifest(path, 3, {"fingerprint": "abc"})
        assert json.loads(path.read_text())["format_version"] == 3
        assert read_manifest(path, 3, "test") == {
            "fingerprint": "abc", "format_version": 3}

    def test_other_version_is_refused(self, tmp_path):
        path = tmp_path / "manifest.json"
        write_manifest(path, 2, {})
        with pytest.raises(CheckpointError,
                           match="test manifest .* format version 2, "
                                 "expected 3"):
            read_manifest(path, 3, "test")

    def test_unreadable_manifest_is_refused(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError, match="unreadable test manifest"):
            read_manifest(path, 1, "test")
