"""Tests for multi-device slot distribution."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.netlist.generate import random_circuit
from repro.simulation.base import PatternPair, SimulationConfig
from repro.simulation.compiled import compile_circuit
from repro.simulation.gpu import GpuWaveSim
from repro.simulation.grid import SlotPlan
from repro.simulation.multi import MultiDeviceWaveSim


@pytest.fixture(scope="module")
def setup(library):
    circuit = random_circuit("multi", 10, 120, seed=17)
    compiled = compile_circuit(circuit, library)
    rng = np.random.default_rng(17)
    pairs = [PatternPair.random(10, rng) for _ in range(8)]
    return circuit, compiled, pairs


class TestEquivalence:
    def test_matches_single_device(self, setup, library, kernel_table):
        circuit, compiled, pairs = setup
        config = SimulationConfig(record_all_nets=True)
        plan = SlotPlan.cross(len(pairs), [0.6, 0.9])
        single = GpuWaveSim(circuit, library, config=config,
                            compiled=compiled).run(
            pairs, plan=plan, kernel_table=kernel_table)
        multi = MultiDeviceWaveSim(circuit, library, config=config,
                                   compiled=compiled, num_devices=2).run(
            pairs, plan=plan, kernel_table=kernel_table)
        assert multi.engine.startswith("multi-device[2][")
        for slot in range(plan.num_slots):
            for net in circuit.nets():
                assert single.waveform(slot, net).equivalent(
                    multi.waveform(slot, net), 0.0)

    def test_single_device_degenerates_in_process(self, setup, library):
        circuit, compiled, pairs = setup
        sim = MultiDeviceWaveSim(circuit, library, compiled=compiled,
                                 num_devices=1)
        result = sim.run(pairs)
        assert result.engine.startswith("multi-device[1][")
        assert result.num_slots == len(pairs)

    def test_more_devices_than_slots(self, setup, library):
        circuit, compiled, pairs = setup
        sim = MultiDeviceWaveSim(circuit, library, compiled=compiled,
                                 num_devices=64)
        result = sim.run(pairs[:2])
        assert result.engine.startswith("multi-device[2][")
        reference = GpuWaveSim(circuit, library, compiled=compiled).run(
            pairs[:2])
        for slot in range(2):
            for net in circuit.outputs:
                assert reference.waveform(slot, net).equivalent(
                    result.waveform(slot, net), 0.0)


class TestVariationComposition:
    def test_die_factors_independent_of_device_count(self, setup, library,
                                                     kernel_table):
        """Monte-Carlo results are bit-identical whether the plane runs on
        one device or several (die = global slot, not chunk-local)."""
        from repro.simulation.variation import ProcessVariation

        circuit, compiled, pairs = setup
        config = SimulationConfig(record_all_nets=True)
        variation = ProcessVariation(sigma=0.08, seed=3)
        single = GpuWaveSim(circuit, library, config=config,
                            compiled=compiled).run(
            pairs, kernel_table=kernel_table, variation=variation)
        multi = MultiDeviceWaveSim(circuit, library, config=config,
                                   compiled=compiled, num_devices=2).run(
            pairs, kernel_table=kernel_table, variation=variation)
        for slot in range(len(pairs)):
            for net in circuit.nets():
                assert single.waveform(slot, net).equivalent(
                    multi.waveform(slot, net), 0.0)


class TestStatsAggregation:
    def test_real_worker_stats_merged(self, setup, library):
        """gate_evaluations comes from the workers' _BatchStats, not a
        synthetic num_gates * num_slots estimate."""
        circuit, compiled, pairs = setup
        single = GpuWaveSim(circuit, library, compiled=compiled)
        reference = single.run(pairs)
        multi = MultiDeviceWaveSim(circuit, library, compiled=compiled,
                                   num_devices=2)
        result = multi.run(pairs)
        assert result.gate_evaluations == reference.gate_evaluations
        assert multi.last_stats is not None
        assert multi.last_stats.gate_evaluations == result.gate_evaluations
        # A level whose lanes are all quiet inside one chunk makes no
        # kernel call there, so the split can only drop calls, never
        # add beyond one call per chunk per level group.
        assert single.last_stats.kernel_calls \
            <= multi.last_stats.kernel_calls \
            <= single.last_stats.kernel_calls * 2
        assert multi.last_stats.lanes_skipped == \
            single.last_stats.lanes_skipped
        assert multi.last_stats.batches == 2

    def test_overflow_retries_surface_in_stats(self, setup, library):
        """Capacity-growth retries inside workers are visible after
        aggregation as ``retries`` / ``slots_retried``; the lane
        counters count every lane of the answer once, so they equal a
        run that never overflowed."""
        circuit, compiled, pairs = setup
        config = SimulationConfig(waveform_capacity=2)
        multi = MultiDeviceWaveSim(circuit, library, config=config,
                                   compiled=compiled, num_devices=2)
        result = multi.run(pairs)
        assert multi.last_stats.retries >= 1
        assert multi.last_stats.slots_retried >= 1
        assert multi.last_stats.capacity_used > 2
        clean = MultiDeviceWaveSim(circuit, library, compiled=compiled,
                                   num_devices=2)
        clean.run(pairs)
        assert clean.last_stats.retries == clean.last_stats.slots_retried == 0
        assert result.gate_evaluations == clean.last_stats.gate_evaluations

    def test_single_device_stats(self, setup, library):
        circuit, compiled, pairs = setup
        multi = MultiDeviceWaveSim(circuit, library, compiled=compiled,
                                   num_devices=1)
        result = multi.run(pairs)
        assert multi.last_stats is not None
        assert result.gate_evaluations == \
            multi.last_stats.gate_evaluations > 0


class TestValidation:
    def test_empty_pairs(self, setup, library):
        circuit, compiled, _pairs = setup
        sim = MultiDeviceWaveSim(circuit, library, compiled=compiled)
        with pytest.raises(SimulationError):
            sim.run([])

    def test_bad_device_count(self, setup, library):
        circuit, compiled, _pairs = setup
        with pytest.raises(SimulationError):
            MultiDeviceWaveSim(circuit, library, compiled=compiled,
                               num_devices=0)

    def test_slot_labels_preserved(self, setup, library, kernel_table):
        circuit, compiled, pairs = setup
        plan = SlotPlan.cross(len(pairs), [0.6, 0.9])
        sim = MultiDeviceWaveSim(circuit, library, compiled=compiled,
                                 num_devices=2)
        result = sim.run(pairs, plan=plan, kernel_table=kernel_table)
        assert result.slot_labels == plan.labels()
