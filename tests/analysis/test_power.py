"""Tests for dynamic power estimation."""

import numpy as np
import pytest

from repro.analysis.activity import ActivityReport
from repro.analysis.power import dynamic_power
from repro.errors import SimulationError


def report(num_slots=2):
    return ActivityReport(
        num_slots=num_slots,
        toggles={"a": 4, "b": 2},
        functional={"a": 2, "b": 2},
        glitches={"a": 2, "b": 0},
    )


LOADS = {"a": 2e-15, "b": 1e-15}


class TestArithmetic:
    def test_energy_formula(self):
        power = dynamic_power(report(), LOADS, voltage=1.0)
        # E = 0.5 * V^2 * (C_a*4 + C_b*2) / slots
        expected = 0.5 * (2e-15 * 4 + 1e-15 * 2) / 2
        assert power.energy_per_pattern == pytest.approx(expected)
        glitch = 0.5 * (2e-15 * 2) / 2
        assert power.glitch_energy_per_pattern == pytest.approx(glitch)
        assert power.glitch_fraction == pytest.approx(glitch / expected)

    def test_scales_with_v_squared(self):
        low = dynamic_power(report(), LOADS, voltage=0.5)
        high = dynamic_power(report(), LOADS, voltage=1.0)
        assert high.energy_per_pattern == pytest.approx(
            4 * low.energy_per_pattern)

    def test_power_with_frequency(self):
        result = dynamic_power(report(), LOADS, voltage=1.0, frequency=1e9)
        assert result.power == pytest.approx(result.energy_per_pattern * 1e9)
        assert dynamic_power(report(), LOADS, voltage=1.0).power is None

    def test_missing_loads_skipped(self):
        partial = dynamic_power(report(), {"a": 2e-15}, voltage=1.0)
        full = dynamic_power(report(), LOADS, voltage=1.0)
        assert partial.energy_per_pattern < full.energy_per_pattern

    def test_zero_activity(self):
        empty = ActivityReport(num_slots=1, toggles={}, functional={},
                               glitches={})
        result = dynamic_power(empty, LOADS, voltage=1.0)
        assert result.energy_per_pattern == 0.0
        assert result.glitch_fraction == 0.0

    def test_voltage_validation(self):
        with pytest.raises(SimulationError):
            dynamic_power(report(), LOADS, voltage=0.0)


class TestVectorPath:
    """A load vector over columnar activity is the dict walk, bit for bit."""

    def test_matches_the_dict_walk_on_an_engine_result(self, library, rng):
        from repro.analysis.activity import switching_activity
        from repro.analysis.power import load_vector
        from repro.netlist.generate import random_circuit
        from repro.simulation.base import (PatternPair, SimulationConfig,
                                           SimulationResult)
        from repro.simulation.gpu import GpuWaveSim

        circuit = random_circuit("pow", 12, 300, seed=8)
        result = GpuWaveSim(circuit, library, config=SimulationConfig(
            record_all_nets=True)).run(
                [PatternPair.random(12, rng) for _ in range(24)])
        loads = circuit.net_loads(library)
        # Nets without a load are skipped by both paths.
        for net in list(loads)[::7]:
            del loads[net]
        columnar = switching_activity(result)
        loose = switching_activity(SimulationResult(
            result.circuit_name, result.slot_labels,
            [dict(nets) for nets in result.waveforms], 0.0, 0, result.engine))
        assert columnar.nets == result.plane.nets and loose.nets is None
        vector = load_vector(loads, columnar.nets)
        assert np.isnan(vector).sum() == len(columnar.nets) - len(loads) > 0

        fast = dynamic_power(columnar, vector, voltage=0.7, frequency=2e9)
        # The vector path reads the count columns, never the dicts.
        assert not {"toggles", "functional", "glitches"} & set(vars(columnar))
        for activity in (columnar, loose):
            walked = dynamic_power(activity, loads, voltage=0.7,
                                   frequency=2e9)
            assert fast == walked
            assert fast.energy_per_pattern > fast.glitch_energy_per_pattern > 0
        assert columnar == loose
        assert columnar.total_toggles == loose.total_toggles
        assert columnar.total_glitches == loose.total_glitches

    def test_vector_needs_matching_columnar_activity(self):
        with pytest.raises(SimulationError):
            dynamic_power(report(), np.array([1e-15, 2e-15]), voltage=1.0)
