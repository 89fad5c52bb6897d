"""Tests for the fingerprint-keyed persistent coefficient cache."""

import json
import os

import numpy as np
import pytest

from repro.core.characterization import (
    AdaptiveConfig,
    characterize_cell,
    characterize_cell_cached,
    characterize_library,
    _flow_signature,
)
from repro.core.charz_cache import CACHE_ENV, CoefficientCache, default_cache_dir
from repro.electrical.model import TransistorCorner
from repro.electrical.spice import AnalyticalSpice
from repro.runtime.fingerprint import characterization_fingerprint


@pytest.fixture(autouse=True)
def fresh_memo():
    """Isolate the process-wide memo per test."""
    CoefficientCache.clear_memo()
    yield
    CoefficientCache.clear_memo()


@pytest.fixture
def cache(tmp_path):
    return CoefficientCache(str(tmp_path / "charz"))


FLOW = {"mode": "fixed", "n": 2, "subsample_factor": 4, "method": "auto"}


class TestFingerprint:
    def test_deterministic(self, library, space):
        corner = TransistorCorner.typical()
        cell = library["INV_X1"]
        a = characterization_fingerprint(cell, corner, space, FLOW)
        b = characterization_fingerprint(cell, corner, space, FLOW)
        assert a == b
        assert len(a) == 64  # sha-256 hex

    def test_sensitive_to_every_input(self, library, space):
        corner = TransistorCorner.typical()
        cell = library["INV_X1"]
        base = characterization_fingerprint(cell, corner, space, FLOW)
        assert characterization_fingerprint(
            library["INV_X2"], corner, space, FLOW) != base
        assert characterization_fingerprint(
            cell, TransistorCorner.slow(), space, FLOW) != base
        assert characterization_fingerprint(
            cell, corner.at_temperature(125.0), space, FLOW) != base
        assert characterization_fingerprint(
            cell, corner, space, dict(FLOW, n=3)) != base

    def test_adaptive_flow_distinct_from_fixed(self, library, space):
        corner = TransistorCorner.typical()
        cell = library["INV_X1"]
        adaptive_flow = dict(FLOW, mode="adaptive", budget=36)
        assert characterization_fingerprint(
            cell, corner, space, adaptive_flow) != \
            characterization_fingerprint(cell, corner, space, FLOW)


class TestRoundTrip:
    def test_disk_round_trip_is_exact(self, library, space, cache):
        cell = library["NAND2_X1"]
        spice = AnalyticalSpice()
        original = characterize_cell(spice, cell, space=space, n=2)
        cache.put("k" * 64, original)
        CoefficientCache.clear_memo()  # force the disk path
        loaded = cache.get("k" * 64, cell, space)
        assert loaded is not None
        assert cache.stats()["disk_hits"] == 1
        for a, b in zip(original.pins, loaded.pins):
            assert a.pin_name == b.pin_name
            assert a.polarity == b.polarity
            assert a.evaluations == b.evaluations
            np.testing.assert_array_equal(
                a.fit.polynomial.coefficients, b.fit.polynomial.coefficients)
            np.testing.assert_array_equal(a.sweep.delays, b.sweep.delays)
            # The rebuilt bilinear reference answers identically.
            assert a.reference(0.3, 0.7) == pytest.approx(b.reference(0.3, 0.7))

    def test_packed_record_round_trip_compares_every_field(self, library, space, cache):
        """NAND4_X1 adaptively: eight entries ending on three different
        grids with two half-orders, stored as one two-member record."""
        cell = library["NAND4_X1"]
        original = characterize_cell(AnalyticalSpice(), cell, space=space,
                                     adaptive=AdaptiveConfig())
        assert len({pin.sweep.delays.shape for pin in original.pins}) > 1
        assert len({pin.fit.polynomial.n for pin in original.pins}) > 1
        cache.put("p" * 64, original)
        with np.load(cache._path("p" * 64)) as archive:
            assert sorted(archive.files) == ["meta", "packed"]
            assert archive["packed"].dtype == np.float64
        CoefficientCache.clear_memo()  # force the disk path
        loaded = cache.get("p" * 64, cell, space)
        assert cache.stats()["disk_hits"] == 1
        assert loaded.cell is cell
        assert loaded.elapsed_seconds == original.elapsed_seconds
        assert len(loaded.pins) == len(original.pins) == 8
        for a, b in zip(original.pins, loaded.pins):
            assert (a.cell_name, a.pin_name, a.pin_index, a.polarity, a.evaluations) \
                == (b.cell_name, b.pin_name, b.pin_index, b.polarity, b.evaluations)
            assert b.space is space
            for mine, theirs in (
                    (a.sweep.voltages, b.sweep.voltages), (a.sweep.loads, b.sweep.loads),
                    (a.sweep.delays, b.sweep.delays),
                    (a.nominal_delays, b.nominal_delays),
                    (a.fit.polynomial.coefficients, b.fit.polynomial.coefficients),
                    (a.reference.values, b.reference.values)):
                assert mine.shape == theirs.shape and mine.dtype == theirs.dtype
                assert mine.tobytes() == theirs.tobytes()
            for name in ("mean_abs_error", "rms_error", "max_abs_error", "r_squared",
                         "condition_number", "sample_count", "method"):
                assert getattr(a.fit, name) == getattr(b.fit, name), name

    def test_memo_returns_same_object(self, library, space, cache):
        cell = library["INV_X1"]
        original = characterize_cell(AnalyticalSpice(), cell, space=space, n=1)
        cache.put("m" * 64, original)
        assert cache.get("m" * 64, cell, space) is original
        assert cache.stats()["memo_hits"] == 1

    def test_miss_and_corrupt_file(self, library, space, cache):
        cell = library["INV_X1"]
        assert cache.get("a" * 64, cell, space) is None
        assert cache.stats()["misses"] == 1
        original = characterize_cell(AnalyticalSpice(), cell, space=space, n=1)
        cache.put("a" * 64, original)
        CoefficientCache.clear_memo()
        path = cache._path("a" * 64)
        with open(path, "wb") as stream:
            stream.write(b"not an npz archive")
        assert cache.get("a" * 64, cell, space) is None
        assert not os.path.exists(path)  # corrupt entries are dropped

    @pytest.mark.parametrize("damage", [
        "schema-2", "wrong-cell", "extent-off-by-one", "trailing-elements",
        "truncated"])
    def test_unservable_record_is_dropped_and_refitted(self, library, space, cache,
                                                       damage):
        """One outcome for every file that cannot be served: it is removed,
        counted a miss, the cell is re-fitted, and the next lookup hits."""
        cell = library["NOR2_X1"]
        config = AdaptiveConfig()
        key = characterization_fingerprint(
            cell, TransistorCorner.typical(), space, _flow_signature(3, 4, "auto", config))
        first = characterize_cell_cached(AnalyticalSpice(), cell, cache, space=space,
                                         adaptive=config)
        path = cache._path(key)
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        meta = json.loads(arrays.pop("meta").tobytes())

        if damage == "schema-2":
            # The layout before the two-member record: five packed arrays,
            # each one part of every entry.
            meta["schema"] = 2
            del arrays["packed"]
            for name, part in (
                    ("coefficients", lambda pin: pin.fit.polynomial.coefficients),
                    ("nominal", lambda pin: pin.nominal_delays),
                    ("sweep_voltages", lambda pin: pin.sweep.voltages),
                    ("sweep_loads", lambda pin: pin.sweep.loads),
                    ("sweep_delays", lambda pin: pin.sweep.delays)):
                arrays[name] = np.concatenate([np.ravel(part(pin)) for pin in first.pins])
        elif damage == "wrong-cell":
            meta["cell"] = "NOR2_X2"
        elif damage == "extent-off-by-one":
            meta["entries"][0]["loads"] += 1
        elif damage == "trailing-elements":
            arrays["packed"] = np.append(arrays["packed"], 1.0)
        if damage == "truncated":
            with open(path, "r+b") as stream:
                stream.truncate(os.path.getsize(path) * 2 // 3)
        else:
            arrays["meta"] = np.frombuffer(
                json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8)
            np.savez(path, **arrays)

        CoefficientCache.clear_memo()  # fresh-process equivalent
        assert cache.get(key, cell, space) is None
        assert not os.path.exists(path)
        assert cache.stats()["misses"] == 2  # the cold lookup and this one
        spice = AnalyticalSpice()
        again = characterize_cell_cached(spice, cell, cache, space=space,
                                         adaptive=config)
        assert spice.delay_evaluations == first.evaluations > 0
        CoefficientCache.clear_memo()
        spice = AnalyticalSpice()
        hit = characterize_cell_cached(spice, cell, cache, space=space, adaptive=config)
        assert spice.delay_evaluations == 0 and cache.stats()["disk_hits"] == 1
        for a, b, c in zip(first.pins, again.pins, hit.pins):
            assert a.fit.polynomial.coefficients.tobytes() \
                == b.fit.polynomial.coefficients.tobytes() \
                == c.fit.polynomial.coefficients.tobytes()

    def test_unwritable_directory_degrades_to_memo(self, library, space, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("file where the directory should be")
        cache = CoefficientCache(str(blocker / "sub"))
        cell = library["INV_X1"]
        original = characterize_cell(AnalyticalSpice(), cell, space=space, n=1)
        cache.put("b" * 64, original)  # must not raise
        assert cache.get("b" * 64, cell, space) is original


class TestWarmLibrary:
    def test_warm_cache_performs_zero_evaluations(self, library, cache):
        subset = library.select(["INV", "NAND2"])
        config = AdaptiveConfig()
        characterize_library(subset, AnalyticalSpice(), adaptive=config,
                             cache=cache)
        CoefficientCache.clear_memo()  # fresh-process equivalent
        spice = AnalyticalSpice()
        warm = characterize_library(subset, spice, adaptive=config,
                                    cache=cache)
        assert spice.delay_evaluations == 0
        assert spice.transient_runs == 0
        # Charged evaluations survive the round trip for reporting.
        assert warm.total_evaluations() > 0

    def test_flow_change_invalidates(self, library, cache):
        subset = library.select(["INV"])
        characterize_library(subset, AnalyticalSpice(), n=2, cache=cache)
        spice = AnalyticalSpice()
        characterize_library(subset, spice, n=3, cache=cache)
        assert spice.delay_evaluations > 0

    def test_path_like_cache_argument(self, library, tmp_path):
        subset = library.select(["INV"])
        characterize_library(subset, AnalyticalSpice(),
                             cache=str(tmp_path / "d"))
        CoefficientCache.clear_memo()
        spice = AnalyticalSpice()
        characterize_library(subset, spice, cache=str(tmp_path / "d"))
        assert spice.delay_evaluations == 0


class TestCellCached:
    def test_fills_then_hits(self, library, space, cache):
        cell = library["NOR2_X1"]
        spice = AnalyticalSpice()
        first = characterize_cell_cached(spice, cell, cache, space=space, n=2)
        evals = spice.delay_evaluations
        assert evals > 0
        second = characterize_cell_cached(spice, cell, cache, space=space, n=2)
        assert spice.delay_evaluations == evals
        assert second is first  # memo layer returns the same object

    def test_no_cache_recomputes(self, library, space):
        cell = library["INV_X1"]
        spice = AnalyticalSpice()
        characterize_cell_cached(spice, cell, None, space=space, n=1)
        evals = spice.delay_evaluations
        characterize_cell_cached(spice, cell, None, space=space, n=1)
        assert spice.delay_evaluations == 2 * evals


class TestDefaultDir:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(CACHE_ENV, "/tmp/somewhere")
        assert default_cache_dir() == "/tmp/somewhere"
        monkeypatch.delenv(CACHE_ENV)
        assert default_cache_dir().endswith(os.path.join("repro", "charz"))
