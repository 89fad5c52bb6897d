"""Tests for the design-space explorer."""

import numpy as np
import pytest

from repro.analysis.arrival import latest_arrivals
from repro.avfs.explorer import DesignSpaceExplorer
from repro.errors import ParameterError
from repro.netlist.generate import random_circuit
from repro.simulation.base import PatternPair
from repro.simulation.gpu import GpuWaveSim
from repro.simulation.grid import SlotPlan

VOLTAGES = [0.55, 0.7, 0.8, 1.0]


@pytest.fixture(scope="module")
def setup(library, kernel_table):
    circuit = random_circuit("dse", 12, 200, seed=8)
    rng = np.random.default_rng(3)
    pairs = [PatternPair.random(12, rng) for _ in range(10)]
    return circuit, pairs


class TestSweep:
    def test_sweep_shape_and_monotonicity(self, setup, library, kernel_table):
        circuit, pairs = setup
        explorer = DesignSpaceExplorer(circuit, library, kernel_table)
        points = explorer.sweep(pairs, VOLTAGES)
        assert [p.voltage for p in points] == VOLTAGES
        arrivals = [p.latest_arrival for p in points]
        assert arrivals == sorted(arrivals, reverse=True)
        for p in points:
            assert p.max_frequency == pytest.approx(1.0 / p.latest_arrival)
            assert p.energy_per_pattern is None  # activity not recorded

    def test_activity_recording(self, setup, library, kernel_table):
        circuit, pairs = setup
        explorer = DesignSpaceExplorer(circuit, library, kernel_table,
                                       record_activity=True)
        points = explorer.sweep(pairs, [0.6, 1.0])
        energies = [p.energy_per_pattern for p in points]
        assert all(e is not None and e > 0 for e in energies)
        assert energies[1] > energies[0]  # E ~ V^2
        assert all(0 <= p.glitch_ratio <= 1 for p in points)

    def test_voltage_outside_space(self, setup, library, kernel_table):
        circuit, pairs = setup
        explorer = DesignSpaceExplorer(circuit, library, kernel_table)
        with pytest.raises(ParameterError, match="outside"):
            explorer.sweep(pairs, [1.5])
        with pytest.raises(ParameterError):
            explorer.sweep(pairs, [])

    def test_box_edges(self, setup, library, kernel_table):
        """The box edges sweep like any supply — each latest arrival is
        a plain engine run's — and a point just outside either edge
        raises before anything runs."""
        circuit, pairs = setup
        explorer = DesignSpaceExplorer(circuit, library, kernel_table)
        space = kernel_table.space
        edges = [space.v_min, space.v_max]
        points = explorer.sweep(pairs, edges)
        engine = GpuWaveSim(circuit, library)
        for point, voltage in zip(points, edges):
            plan = SlotPlan.uniform(len(pairs), voltage)
            result = engine.run(pairs, plan=plan, kernel_table=kernel_table)
            assert point.latest_arrival == latest_arrivals(
                result, circuit, plan=plan).at(voltage)
        for outside in (space.v_min - 1e-6, space.v_max + 1e-6):
            with pytest.raises(ParameterError, match="outside"):
                explorer.sweep(pairs, [0.8, outside])


class TestDerivedProducts:
    def test_vf_table(self, setup, library, kernel_table):
        circuit, pairs = setup
        explorer = DesignSpaceExplorer(circuit, library, kernel_table)
        table = explorer.voltage_frequency_table(pairs, VOLTAGES,
                                                 guardband=0.1)
        assert len(table) == len(VOLTAGES)
        frequencies = [p.max_frequency for p in table]
        assert frequencies == sorted(frequencies)

    def test_shmoo_consistency(self, setup, library, kernel_table):
        circuit, pairs = setup
        explorer = DesignSpaceExplorer(circuit, library, kernel_table)
        points = explorer.sweep(pairs, VOLTAGES)
        period = points[1].latest_arrival * 1.01  # passes at 0.7 V and above
        shmoo = explorer.shmoo(pairs, VOLTAGES, [period])
        assert not shmoo[0.55][period]
        assert shmoo[0.7][period]
        assert shmoo[1.0][period]

    def test_find_vmin(self, setup, library, kernel_table):
        circuit, pairs = setup
        explorer = DesignSpaceExplorer(circuit, library, kernel_table)
        points = explorer.sweep(pairs, VOLTAGES)
        generous = points[0].latest_arrival * 2.0
        assert explorer.find_vmin(pairs, VOLTAGES, generous,
                                  guardband=0.0) == 0.55
        impossible = points[-1].latest_arrival * 0.5
        assert explorer.find_vmin(pairs, VOLTAGES, impossible) is None
