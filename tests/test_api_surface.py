"""The public API surface must stay importable and coherent."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import repro

#: Every subpackage (found, not listed, so a new one is covered too)
#: plus the CLI module.
SURFACE_MODULES = sorted(
    [f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__)
     if info.ispkg] + ["repro.cli"])

#: Modules deleted from the package: ``import repro`` must not load them.
DELETED_MODULES = ("repro.simulation.multi", "repro.waveform.packed")

#: Module prefixes ``import repro`` must leave unloaded: the service (the
#: campaign runner imports it when a run needs it) and, with it, the
#: process machinery of its shard transport.
UNLOADED_PREFIXES = ("repro.service", "multiprocessing")

#: Module prefixes ``import repro.service`` must leave unloaded: the
#: service imports its shard tier only when it starts shards.
SHARD_TIER_PREFIXES = ("repro.service.router", "repro.service.shard",
                       "multiprocessing")


class TestTopLevelApi:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    @pytest.mark.parametrize("module", SURFACE_MODULES)
    def test_subpackage_all_resolves(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.{name}"

    def test_import_leaves_deleted_modules_unloaded(self):
        # A fresh interpreter (other tests may have imported anything),
        # importing this checkout's package.
        root = os.path.dirname(os.path.dirname(repro.__file__))
        code = ("import sys, repro; "
                f"print([m for m in {DELETED_MODULES!r} if m in sys.modules]"
                " + sorted(m for m in sys.modules"
                f" if m.startswith({UNLOADED_PREFIXES!r})))")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": root}).stdout
        assert out.strip() == "[]"

    def test_service_import_leaves_shard_tier_unloaded(self):
        root = os.path.dirname(os.path.dirname(repro.__file__))
        code = ("import sys, repro.service; "
                "print(sorted(m for m in sys.modules"
                f" if m.startswith({SHARD_TIER_PREFIXES!r})))")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": root}).stdout
        assert out.strip() == "[]"

    def test_no_accidental_shadowing(self):
        # names exported at top level must be the same objects as in their
        # home subpackages (guards against diverging duplicate definitions)
        from repro.simulation.gpu import GpuWaveSim
        from repro.core.delay_kernel import DelayKernelTable
        assert repro.GpuWaveSim is GpuWaveSim
        assert repro.DelayKernelTable is DelayKernelTable

    def test_docstrings_on_public_classes(self):
        for name in repro.__all__:
            obj = getattr(repro, name)
            if isinstance(obj, type):
                assert obj.__doc__, f"{name} lacks a docstring"


class TestResultHelpers:
    def test_simulation_result_methods(self, library, small_circuit, rng):
        import numpy as np
        from repro import GpuWaveSim, PatternPair, SimulationConfig

        pairs = [PatternPair.random(len(small_circuit.inputs), rng)
                 for _ in range(3)]
        result = GpuWaveSim(
            small_circuit, library,
            config=SimulationConfig(record_all_nets=True)).run(pairs)
        # default-nets latest arrival covers every recorded net
        assert result.latest_arrival(0) >= result.latest_arrival(
            0, small_circuit.outputs)
        assert result.total_transitions(0) >= 0
        values = result.final_values(0, small_circuit.outputs)
        assert values.dtype == np.uint8
        assert result.num_slots == 3
