"""Tests for campaign preflight validation."""

import dataclasses

import numpy as np
import pytest

from repro.errors import PreflightError
from repro.netlist.generate import random_circuit
from repro.runtime import validate_campaign
from repro.simulation.base import PatternPair, SimulationConfig
from repro.simulation.compiled import compile_circuit
from repro.simulation.grid import SlotPlan


@pytest.fixture(scope="module")
def setup(library):
    circuit = random_circuit("preflight", 10, 120, seed=21)
    compiled = compile_circuit(circuit, library)
    rng = np.random.default_rng(21)
    pairs = [PatternPair.random(10, rng) for _ in range(6)]
    return compiled, pairs


class TestStimuli:
    def test_valid_campaign_passes(self, setup, kernel_table):
        compiled, pairs = setup
        plan = SlotPlan.cross(len(pairs), [0.6, 0.9])
        validate_campaign(compiled, pairs, plan, kernel_table=kernel_table)

    def test_voltages_inside_the_kernel_box_pass(self, setup, kernel_table):
        compiled, pairs = setup
        space = kernel_table.space
        plan = SlotPlan.cross(len(pairs), [space.v_min, space.v_max])
        validate_campaign(compiled, pairs, plan, kernel_table=kernel_table)

    def test_voltage_outside_the_kernel_box_fails(self, setup, kernel_table):
        compiled, pairs = setup
        space = kernel_table.space
        plan = SlotPlan.cross(len(pairs), [space.v_nom, space.v_max + 0.01])
        with pytest.raises(PreflightError,
                           match=rf"{space.v_max + 0.01:g} V is outside "
                                 rf"the kernel table's box \[{space.v_min:g}, "
                                 rf"{space.v_max:g}\]"):
            validate_campaign(compiled, pairs, plan,
                              kernel_table=kernel_table)

    def test_empty_pairs(self, setup):
        compiled, _pairs = setup
        plan = SlotPlan.uniform(1, 0.8)
        with pytest.raises(PreflightError, match="no pattern pairs"):
            validate_campaign(compiled, [], plan)

    def test_mixed_widths(self, setup):
        compiled, pairs = setup
        rng = np.random.default_rng(0)
        mixed = list(pairs) + [PatternPair.random(5, rng)]
        plan = SlotPlan.uniform(len(mixed), 0.8)
        with pytest.raises(PreflightError, match="mixed widths"):
            validate_campaign(compiled, mixed, plan)

    def test_width_mismatch(self, setup):
        compiled, _pairs = setup
        rng = np.random.default_rng(0)
        narrow = [PatternPair.random(4, rng) for _ in range(3)]
        plan = SlotPlan.uniform(3, 0.8)
        with pytest.raises(PreflightError, match="does not match"):
            validate_campaign(compiled, narrow, plan)


class TestPlan:
    def test_out_of_range_pattern(self, setup):
        compiled, pairs = setup
        plan = SlotPlan.zip([0, len(pairs)], [0.8, 0.8])
        with pytest.raises(PreflightError, match="references pattern"):
            validate_campaign(compiled, pairs, plan)

    def test_non_positive_voltage(self, setup, kernel_table):
        compiled, pairs = setup
        plan = SlotPlan.zip([0, 1], [0.8, 0.0])
        with pytest.raises(PreflightError, match="non-positive"):
            validate_campaign(compiled, pairs, plan,
                              kernel_table=kernel_table)

    def test_non_finite_voltage(self, setup, kernel_table):
        compiled, pairs = setup
        plan = SlotPlan.zip([0, 1], [0.8, float("nan")])
        with pytest.raises(PreflightError, match="non-finite"):
            validate_campaign(compiled, pairs, plan,
                              kernel_table=kernel_table)


class TestDelayModel:
    def test_static_multi_voltage(self, setup):
        compiled, pairs = setup
        plan = SlotPlan.cross(len(pairs), [0.6, 0.9])
        with pytest.raises(PreflightError, match="static delay mode"):
            validate_campaign(compiled, pairs, plan)

    def test_kernel_table_name_mismatch(self, setup, kernel_table):
        compiled, pairs = setup
        shuffled = dataclasses.replace(
            kernel_table, type_names=tuple(reversed(kernel_table.type_names)))
        plan = SlotPlan.uniform(len(pairs), 0.8)
        with pytest.raises(PreflightError, match="disagree"):
            validate_campaign(compiled, pairs, plan, kernel_table=shuffled)

    def test_kernel_table_truncated(self, setup, kernel_table):
        compiled, pairs = setup
        truncated = dataclasses.replace(
            kernel_table,
            coefficients=kernel_table.coefficients[:1],
            pin_counts=kernel_table.pin_counts[:1],
            type_names=kernel_table.type_names[:1])
        plan = SlotPlan.uniform(len(pairs), 0.8)
        with pytest.raises(PreflightError):
            validate_campaign(compiled, pairs, plan, kernel_table=truncated)

    def test_kernel_table_pin_shortfall(self, setup, kernel_table):
        compiled, pairs = setup
        starved = dataclasses.replace(
            kernel_table,
            pin_counts=np.zeros_like(kernel_table.pin_counts))
        plan = SlotPlan.uniform(len(pairs), 0.8)
        with pytest.raises(PreflightError, match="pins"):
            validate_campaign(compiled, pairs, plan, kernel_table=starved)


class TestResources:
    def test_memory_budget_too_small(self, setup):
        compiled, pairs = setup
        plan = SlotPlan.uniform(len(pairs), 0.8)
        with pytest.raises(PreflightError, match="memory budget"):
            validate_campaign(compiled, pairs, plan, memory_budget=64)

    def test_capacity_above_ceiling(self, setup):
        from repro.simulation.gpu import MAX_CAPACITY

        compiled, pairs = setup
        plan = SlotPlan.uniform(len(pairs), 0.8)
        config = SimulationConfig(waveform_capacity=2 * MAX_CAPACITY)
        with pytest.raises(PreflightError, match="ceiling"):
            validate_campaign(compiled, pairs, plan, config=config)

    def test_corrupt_nominal_delays(self, setup):
        compiled, pairs = setup
        plan = SlotPlan.uniform(len(pairs), 0.8)
        broken = dataclasses.replace(compiled)
        broken.nominal_delays = compiled.nominal_delays.copy()
        broken.nominal_delays[0, 0, 0] = np.nan
        with pytest.raises(PreflightError, match="non-finite nominal"):
            validate_campaign(broken, pairs, plan)
