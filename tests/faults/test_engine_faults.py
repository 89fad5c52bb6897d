"""Engine-layer fault handling: seams, retry absorption, backend demotion."""

import numpy as np
import pytest

from repro import faults
from repro.core.delay_kernel import DelayKernelTable
from repro.errors import (CharacterizationError, InjectedFaultError,
                          SimulationError)
from repro.netlist.generate import random_circuit
from repro.simulation import backend as backend_mod
from repro.simulation.backend import available_backends, demote_backend
from repro.simulation.base import PatternPair, SimulationConfig
from repro.simulation.compiled import compile_circuit
from repro.simulation import gpu
from repro.simulation.gpu import GpuWaveSim


@pytest.fixture(scope="module")
def circuit():
    return random_circuit("flt", 8, 60, seed=3)


@pytest.fixture(scope="module")
def compiled(circuit, library):
    return compile_circuit(circuit, library)


def make_pairs(circuit, count=4, seed=0):
    rng = np.random.default_rng(seed)
    return [PatternPair.random(len(circuit.inputs), rng)
            for _ in range(count)]


def make_engine(circuit, library, compiled, **config_kwargs):
    config_kwargs.setdefault("backend", "numpy")
    return GpuWaveSim(circuit, library, compiled=compiled,
                      config=SimulationConfig(**config_kwargs))


class TestDemotionLadder:
    def test_demote_walks_to_next_loadable_rung(self):
        assert demote_backend("cext").name == "numpy"
        assert demote_backend("numpy") is None

    def test_transient_kernel_fault_is_retried_in_place(self, circuit,
                                                        library, compiled):
        engine = make_engine(circuit, library, compiled)
        pairs = make_pairs(circuit)
        baseline = engine.run(pairs)
        with faults.injected("backend.run_levels:raise@n=1"):
            result = engine.run(pairs)
        assert engine.backend.name == "numpy"
        assert engine.last_stats.retries >= 1
        assert engine.demotions == []
        for slot in range(len(baseline.waveforms)):
            for net, ref in baseline.waveforms[slot].items():
                got = result.waveforms[slot][net]
                assert got.initial == ref.initial
                assert np.array_equal(got.times, ref.times)

    def test_fault_at_numpy_floor_propagates(self, circuit, library,
                                             compiled, monkeypatch):
        monkeypatch.setattr(gpu, "DEMOTE_AFTER", 1)
        engine = make_engine(circuit, library, compiled)
        with faults.injected("engine.alloc:raise@n=1"):
            with pytest.raises(InjectedFaultError) as info:
                engine.run(make_pairs(circuit))
        assert info.value.site == "engine.alloc"

    @pytest.mark.skipif("cext" not in available_backends(),
                        reason="needs the C extension backend")
    def test_native_faults_demote_to_numpy(self, circuit, library, compiled,
                                           monkeypatch):
        monkeypatch.setattr(gpu, "DEMOTE_AFTER", 1)
        engine = make_engine(circuit, library, compiled, backend="cext")
        pairs = make_pairs(circuit, seed=5)
        reference = make_engine(circuit, library, compiled).run(pairs)
        with faults.injected("backend.run_levels:raise@n=1"):
            result = engine.run(pairs)
        assert engine.backend.name == "numpy"
        assert engine.demotions == ["cext->numpy"]
        assert "demoted:cext->numpy" in result.engine
        assert engine.last_stats.demotions == ["cext->numpy"]
        for slot in range(len(reference.waveforms)):
            for net, ref in reference.waveforms[slot].items():
                got = result.waveforms[slot][net]
                assert got.initial == ref.initial
                assert np.array_equal(got.times, ref.times)

    @pytest.mark.skipif("cext" not in available_backends(),
                        reason="needs the C extension backend")
    def test_isolated_transient_faults_never_demote(self, circuit, library,
                                                    compiled):
        """``DEMOTE_AFTER`` counts *consecutive* faults: a batch that
        returns resets it, so one transient fault per run — however many
        runs — leaves a pooled engine on its backend."""
        engine = make_engine(circuit, library, compiled, backend="cext")
        pairs = make_pairs(circuit)
        for _ in range(2):
            with faults.injected("backend.run_levels:raise@n=1"):
                engine.run(pairs)
            assert engine.last_stats.retries == 1
        assert engine.backend.name == "cext"
        assert engine.demotions == []

    @pytest.mark.skipif("cext" not in available_backends(),
                        reason="needs the C extension backend")
    def test_input_errors_bypass_the_demotion_ladder(self, circuit, library,
                                                     compiled, kernel_table):
        """A kernel table narrower than the circuit is a deterministic
        input error: it surfaces as itself, at once, and the engine
        keeps its backend for the next good job."""
        narrow = DelayKernelTable(
            kernel_table.coefficients[:, :1], kernel_table.pin_counts,
            kernel_table.type_names, kernel_table.space)
        assert narrow.max_pins < compiled.max_pins
        engine = make_engine(circuit, library, compiled, backend="cext")
        pairs = make_pairs(circuit)
        with pytest.raises(SimulationError, match="pins") as info:
            engine.run(pairs, kernel_table=narrow)
        assert type(info.value) is SimulationError
        assert engine.backend.name == "cext"
        assert engine.demotions == []
        good = engine.run(pairs, kernel_table=kernel_table)
        assert good.engine.startswith("gpu-parametric[cext")
        assert engine.last_stats.retries == 0

    def test_library_errors_are_not_counted_as_kernel_faults(
            self, circuit, library, compiled, kernel_table, monkeypatch):
        """Any :class:`ReproError` but an injected fault re-raises from
        the batch loop without a retry — here an operating point outside
        the characterized space, raised inside the level loop."""
        monkeypatch.setattr(gpu, "DEMOTE_AFTER", 1)
        engine = make_engine(circuit, library, compiled)

        def refuse(*args, **kwargs):
            raise CharacterizationError("voltage outside the space")

        monkeypatch.setattr(engine.backend, "run_levels", refuse)
        with pytest.raises(CharacterizationError):
            engine.run(make_pairs(circuit), kernel_table=kernel_table)
        assert engine._kernel_faults == 0
        assert engine.demotions == []


class TestBackendLoadSeam:
    def test_concrete_backend_reports_injected_load_failure(self):
        backend_mod._clear_caches()
        try:
            with faults.injected("backend.load:raise@n=1"):
                with pytest.raises(Exception) as info:
                    backend_mod.resolve_backend("numpy")
            assert "injected fault" in str(info.value)
        finally:
            backend_mod._clear_caches()

    def test_single_load_fault_reaches_next_rung(self):
        backend_mod._clear_caches()
        try:
            with faults.injected("backend.load:raise@n=1"):
                resolved = backend_mod.resolve_backend("auto")
            assert resolved is not None
            # The first rung's failure is cached with the injected cause.
            assert any("injected fault" in reason
                       for reason in backend_mod._FAILURES.values())
        finally:
            backend_mod._clear_caches()
