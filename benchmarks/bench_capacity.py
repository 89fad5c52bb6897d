"""Waveform-memory capacity ablation.

The paper notes GPU runtime is dominated by waveform memory.  The engine
must pick a per-net toggle capacity: too small and the slots that
overflow are re-run (those slots only, at doubled capacity), too large
and the walk strides over +inf padding — its time follows the row
stride once the arena no longer sits in cache.  These benchmarks sweep
the starting capacity against the plane size (the measurement behind
``gpu.COMPACT_CAPACITY`` / ``gpu.COMPACT_MIN_BYTES``) and check the
overflow-growth policy recovers correctness.
"""

import numpy as np
import pytest

from repro.atpg.patterns import random_pattern_set
from repro.netlist.suite import build_suite_circuit
from repro.simulation import gpu
from repro.simulation.base import SimulationConfig
from repro.simulation.compiled import compile_circuit
from repro.simulation.gpu import GpuWaveSim
from repro.simulation.grid import SlotPlan

CAPACITIES = (8, 16, 32)

#: (pairs, supplies) of the plane: 8 / 64 / 512 slots of b17 x0.1, an
#: arena of 4 / 33 / 263 MB at capacity 16.
PLANES = ((8, 1), (64, 1), (64, 8))


@pytest.fixture(scope="module")
def sweep_circuit(library):
    circuit = build_suite_circuit("b17", scale=0.1)
    return circuit, compile_circuit(circuit, library), list(
        random_pattern_set(circuit, 64, seed=0))


@pytest.mark.parametrize("plane", PLANES, ids=lambda p: f"{p[0] * p[1]}slots")
@pytest.mark.parametrize("capacity", CAPACITIES)
def test_initial_capacity(benchmark, sweep_circuit, library, kernel_table,
                          capacity, plane, monkeypatch):
    # The configured capacity is the one that runs: no compact start.
    monkeypatch.setattr(gpu, "COMPACT_MIN_BYTES", 2 ** 62)
    circuit, compiled, pairs = sweep_circuit
    num_pairs, supplies = plane
    sim = GpuWaveSim(
        circuit, library, compiled=compiled,
        config=SimulationConfig(waveform_capacity=capacity),
    )
    plan = SlotPlan.cross(num_pairs, np.linspace(0.55, 1.10, supplies))
    benchmark.pedantic(
        sim.run, args=(pairs[:num_pairs],),
        kwargs={"plan": plan, "kernel_table": kernel_table},
        rounds=5, iterations=1, warmup_rounds=1,
    )
    stats = sim.last_stats
    benchmark.extra_info["capacity"] = capacity
    benchmark.extra_info["slots"] = plan.num_slots
    benchmark.extra_info["arena_mb"] = round(
        (compiled.num_nets + 1) * plan.num_slots * capacity * 8 / 1e6, 1)
    benchmark.extra_info["walk_ms"] = round(stats.merge_seconds * 1e3, 2)
    benchmark.extra_info["retries"] = stats.retries
    benchmark.extra_info["slots_retried"] = stats.slots_retried


def test_growth_recovers_identical_waveforms(medium_workload, library,
                                             kernel_table):
    """Tiny capacity + growth produces the same result as a generous one."""
    workload = medium_workload
    pairs = workload.patterns.pairs[:8]
    tiny = GpuWaveSim(
        workload.circuit, library, compiled=workload.compiled,
        config=SimulationConfig(waveform_capacity=2, record_all_nets=True),
    )
    roomy = GpuWaveSim(
        workload.circuit, library, compiled=workload.compiled,
        config=SimulationConfig(waveform_capacity=128, record_all_nets=True),
    )
    a = tiny.run(pairs, kernel_table=kernel_table)
    b = roomy.run(pairs, kernel_table=kernel_table)
    assert tiny.last_stats.retries >= 1
    for slot in range(len(pairs)):
        for net in workload.circuit.nets():
            assert a.waveform(slot, net).equivalent(b.waveform(slot, net), 0.0)
