"""Tests for the pluggable compute-backend layer.

The central claim (`backend.py` module docstring) is that every backend
implements the exact per-lane algorithm of the numpy reference with
identical IEEE-754 operation order — results are **bit-identical**, not
merely close.  The suite asserts that, plus the selection/fallback
machinery (explicit name, ``REPRO_BACKEND``, ``auto`` degradation when a
dependency is absent).
"""

import sys

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.netlist.generate import random_circuit
from repro.simulation import backend as backend_mod
from repro.simulation.backend import (
    AUTO_ORDER,
    BACKEND_CHOICES,
    NumpyBackend,
    available_backends,
    backend_status,
    resolve_backend,
)
from repro.simulation.base import PatternPair, SimulationConfig
from repro.simulation.compiled import compile_circuit
from repro.simulation.gpu import GpuWaveSim
from repro.simulation.grid import SlotPlan
from repro.simulation.kernels import merge_single
from repro.simulation.variation import ProcessVariation
from repro.waveform.waveform import Waveform

CONCRETE = available_backends()            # loadable on this machine
JIT = [n for n in CONCRETE if n != "numpy"]


def make_pairs(circuit, count, seed=0):
    rng = np.random.default_rng(seed)
    return [PatternPair.random(len(circuit.inputs), rng) for _ in range(count)]


@pytest.fixture
def fresh_registry(monkeypatch):
    """Snapshot/restore the backend registry around cache-poking tests."""
    saved_cache = dict(backend_mod._CACHE)
    saved_failures = dict(backend_mod._FAILURES)
    backend_mod._clear_caches()
    yield
    backend_mod._clear_caches()
    backend_mod._CACHE.update(saved_cache)
    backend_mod._FAILURES.update(saved_failures)


class TestResolution:
    def test_numpy_always_available(self):
        assert isinstance(resolve_backend("numpy"), NumpyBackend)
        assert "numpy" in available_backends()

    def test_unknown_name_raises(self):
        with pytest.raises(SimulationError, match="unknown compute backend"):
            resolve_backend("fortran")

    def test_unknown_name_rejected_by_config(self):
        with pytest.raises(ValueError, match="backend"):
            SimulationConfig(backend="fortran")

    def test_config_accepts_all_choices(self):
        for name in BACKEND_CHOICES:
            assert SimulationConfig(backend=name).backend == name

    def test_env_var_consulted(self, monkeypatch):
        monkeypatch.setenv(backend_mod.ENV_VAR, "numpy")
        assert resolve_backend().name == "numpy"
        assert resolve_backend(None).name == "numpy"

    def test_explicit_name_beats_env(self, monkeypatch):
        monkeypatch.setenv(backend_mod.ENV_VAR, "no-such-backend")
        assert resolve_backend("numpy").name == "numpy"

    def test_auto_never_fails(self, monkeypatch, fresh_registry):
        """``auto`` degrades to numpy even with every dependency absent.

        ``sys.modules[name] = None`` makes any import of ``name`` raise
        ImportError — the standard way to simulate an absent dependency.
        """
        import repro.simulation

        monkeypatch.setitem(sys.modules, "repro.simulation.kernels_cext",
                            None)
        monkeypatch.delattr(repro.simulation, "kernels_cext", raising=False)
        assert resolve_backend("auto").name == "numpy"
        status = backend_status()
        assert status["numpy"] == "ok"
        assert status["cext"] != "ok"
        # Failures are cached: the concrete name now reports unavailable.
        with pytest.raises(SimulationError, match="unavailable"):
            resolve_backend("cext")

    def test_auto_prefers_jit_when_available(self):
        if not JIT:
            pytest.skip("no JIT backend loads on this machine")
        resolved = resolve_backend("auto").name
        assert resolved == next(n for n in AUTO_ORDER if n in CONCRETE)

    def test_status_reports_every_choice(self):
        status = backend_status()
        assert set(status) == set(BACKEND_CHOICES[1:])
        assert status["numpy"] == "ok"


def random_lane_workload(rng, lanes, pins, capacity):
    """Synthetic merge-kernel inputs with ragged waveform lengths."""
    times = np.full((pins, lanes, capacity), np.inf)
    for pin in range(pins):
        for lane in range(lanes):
            n = int(rng.integers(0, capacity))
            times[pin, lane, :n] = np.sort(rng.uniform(0.0, 1e-9, size=n))
    initial = rng.integers(0, 2, size=(pins, lanes)).astype(np.uint8)
    delays = rng.uniform(1e-12, 2e-10, size=(pins, 2, lanes))
    tables = rng.integers(0, 1 << (1 << pins), size=lanes, dtype=np.uint32)
    return times, initial, delays, tables


class TestKernelEquivalence:
    """Lane-oriented API: every backend vs the scalar merge_single oracle."""

    @pytest.mark.parametrize("backend_name", CONCRETE)
    @pytest.mark.parametrize("inertial", [True, False])
    @pytest.mark.parametrize("pins", [1, 2, 3])
    def test_bit_identical_to_oracle(self, backend_name, inertial, pins):
        backend = resolve_backend(backend_name)
        rng = np.random.default_rng(1000 + pins)
        lanes, capacity = 64, 8
        times, initial, delays, tables = random_lane_workload(
            rng, lanes, pins, capacity)
        result = backend.merge_kernel(times, initial, delays, tables,
                                      capacity * 2, inertial=inertial)
        for lane in range(lanes):
            inputs = [
                Waveform(int(initial[p, lane]),
                         times[p, lane][np.isfinite(times[p, lane])])
                for p in range(pins)
            ]
            expected = merge_single(inputs, delays[:, :, lane],
                                    int(tables[lane]), inertial=inertial)
            count = int(result.counts[lane])
            assert result.initial[lane] == expected.initial, lane
            # Bit-identical: == on the raw float64 payload, no tolerance.
            assert result.times[lane, :count].tolist() == \
                expected.times.tolist(), lane
            assert np.all(np.isinf(result.times[lane, count:]))
            assert not result.overflow[lane]

    @pytest.mark.parametrize("backend_name", CONCRETE)
    def test_overflow_flags_match_reference(self, backend_name):
        """Overflow trips on intermediate buffer depth — the exact same
        lanes must trip in every backend, and surviving lanes agree."""
        backend = resolve_backend(backend_name)
        reference = resolve_backend("numpy")
        rng = np.random.default_rng(7)
        times, initial, delays, tables = random_lane_workload(rng, 32, 2, 8)
        tables = np.full(32, 0b0110, dtype=np.uint32)  # XOR: no cancellation
        ours = backend.merge_kernel(times, initial, delays, tables, 2)
        theirs = reference.merge_kernel(times, initial, delays, tables, 2)
        assert np.array_equal(ours.overflow, theirs.overflow)
        assert ours.overflow.any(), "workload must exercise overflow"
        ok = ~ours.overflow
        assert np.array_equal(ours.counts[ok], theirs.counts[ok])
        assert np.array_equal(ours.initial[ok], theirs.initial[ok])


class TestEngineEquivalence:
    """End-to-end: GpuWaveSim results across backends, bit for bit."""

    @staticmethod
    def assert_identical(reference, candidate, num_slots, nets):
        for slot in range(num_slots):
            for net in nets:
                wa = reference.waveform(slot, net)
                wb = candidate.waveform(slot, net)
                assert wa.initial == wb.initial, (slot, net)
                assert wa.times.tolist() == wb.times.tolist(), (slot, net)

    @pytest.mark.parametrize("backend_name", JIT)
    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("filtering", ["inertial", "transport"])
    def test_static_mode(self, library, backend_name, seed, filtering):
        circuit = random_circuit(f"beq{seed}", 8, 120, seed=seed)
        compiled = compile_circuit(circuit, library)
        pairs = make_pairs(circuit, 12, seed)

        def run(name):
            config = SimulationConfig(record_all_nets=True,
                                      pulse_filtering=filtering, backend=name)
            sim = GpuWaveSim(circuit, library, config=config,
                             compiled=compiled)
            result = sim.run(pairs)
            assert sim.last_stats.backend == name
            assert result.engine == f"gpu-static[{name},sparse]"
            return result

        self.assert_identical(run("numpy"), run(backend_name), len(pairs),
                              circuit.nets())

    @pytest.mark.parametrize("backend_name", JIT)
    def test_parametric_multi_voltage(self, library, kernel_table,
                                      backend_name):
        circuit = random_circuit("beqv", 8, 120, seed=11)
        compiled = compile_circuit(circuit, library)
        pairs = make_pairs(circuit, 6, 11)
        plan = SlotPlan.cross(len(pairs), [0.6, 0.8, 1.0])

        def run(name):
            config = SimulationConfig(record_all_nets=True, backend=name)
            return GpuWaveSim(circuit, library, config=config,
                              compiled=compiled).run(
                pairs, plan=plan, kernel_table=kernel_table)

        self.assert_identical(run("numpy"), run(backend_name),
                              plan.num_slots, circuit.nets())

    @pytest.mark.parametrize("backend_name", JIT)
    def test_overflow_retry_path(self, library, backend_name):
        circuit = random_circuit("beqo", 12, 200, seed=6)
        compiled = compile_circuit(circuit, library)
        pairs = make_pairs(circuit, 8, 6)

        def run(name):
            config = SimulationConfig(record_all_nets=True,
                                      waveform_capacity=2, backend=name)
            sim = GpuWaveSim(circuit, library, config=config,
                             compiled=compiled)
            result = sim.run(pairs)
            assert sim.last_stats.retries >= 1, "test needs the retry path"
            return result

        self.assert_identical(run("numpy"), run(backend_name), len(pairs),
                              circuit.nets())

    @pytest.mark.parametrize("backend_name", JIT)
    def test_monte_carlo_factors(self, library, kernel_table, backend_name):
        circuit = random_circuit("beqm", 8, 100, seed=4)
        compiled = compile_circuit(circuit, library)
        pairs = make_pairs(circuit, 6, 4)

        def run(name):
            config = SimulationConfig(record_all_nets=True, backend=name)
            return GpuWaveSim(circuit, library, config=config,
                              compiled=compiled).run(
                pairs, kernel_table=kernel_table,
                variation=ProcessVariation(sigma=0.05, seed=99))

        self.assert_identical(run("numpy"), run(backend_name), len(pairs),
                              circuit.nets())

    @pytest.mark.parametrize("backend_name", JIT)
    def test_delay_evaluation_matches(self, kernel_table, backend_name):
        """Backend delays_for_gates is bit-identical to the table's own."""
        backend = resolve_backend(backend_name)
        rng = np.random.default_rng(13)
        num_types = len(kernel_table.type_names)
        type_ids = rng.integers(0, num_types, size=50)
        pins = kernel_table.coefficients.shape[1]
        loads = rng.uniform(1e-16, 5e-15, size=50)
        nominal = rng.uniform(1e-12, 5e-11, size=(50, pins, 2))
        voltages = np.asarray([0.55, 0.8, 1.05])
        ours = backend.delays_for_gates(kernel_table, type_ids, loads,
                                        nominal, voltages)
        theirs = kernel_table.delays_for_gates(type_ids, loads, nominal,
                                               voltages)
        assert ours.shape == theirs.shape
        assert np.array_equal(ours, theirs)
