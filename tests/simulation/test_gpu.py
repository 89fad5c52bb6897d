"""Tests for the parallel GPU-style waveform simulator."""

import numpy as np
import pytest

from repro.errors import (ParameterError, SimulationError,
                          WaveformOverflowError)
from repro.netlist.generate import random_circuit
from repro.simulation.backend import available_backends
from repro.simulation.base import PatternPair, SimulationConfig
from repro.simulation.compiled import compile_circuit
from repro.simulation.event_driven import EventDrivenSimulator
from repro.simulation.gpu import GpuWaveSim
from repro.simulation.grid import SlotPlan
from repro.simulation.zero_delay import ZeroDelaySimulator
from repro.waveform.plane import WaveformPlane


def make_pairs(circuit, count, seed=0):
    rng = np.random.default_rng(seed)
    return [PatternPair.random(len(circuit.inputs), rng) for _ in range(count)]


def assert_equivalent(result_a, slot_a, result_b, slot_b, nets):
    for net in nets:
        wa = result_a.waveform(slot_a, net)
        wb = result_b.waveform(slot_b, net)
        assert wa.equivalent(wb, 0.0), (net, wa, wb)


class TestEquivalenceWithEventDriven:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("filtering", ["inertial", "transport"])
    def test_static_delays(self, library, seed, filtering):
        circuit = random_circuit(f"eq{seed}", 8, 80, seed=seed)
        config = SimulationConfig(record_all_nets=True,
                                  pulse_filtering=filtering)
        compiled = compile_circuit(circuit, library)
        pairs = make_pairs(circuit, 8, seed)
        reference = EventDrivenSimulator(circuit, library, config=config,
                                         compiled=compiled).run(pairs)
        parallel = GpuWaveSim(circuit, library, config=config,
                              compiled=compiled).run(pairs)
        for slot in range(len(pairs)):
            assert_equivalent(reference, slot, parallel, slot, circuit.nets())

    @pytest.mark.parametrize("seed", [3, 4])
    def test_parametric_delays(self, library, kernel_table, seed):
        circuit = random_circuit(f"eqp{seed}", 8, 80, seed=seed)
        config = SimulationConfig(record_all_nets=True)
        compiled = compile_circuit(circuit, library)
        pairs = make_pairs(circuit, 6, seed)
        voltages = [0.55, 0.8, 1.1]
        plan = SlotPlan.cross(len(pairs), voltages)
        event = EventDrivenSimulator(circuit, library, config=config,
                                     compiled=compiled)
        parallel = GpuWaveSim(circuit, library, config=config,
                              compiled=compiled)
        full = parallel.run(pairs, plan=plan, kernel_table=kernel_table)
        for voltage in voltages:
            reference = event.run(pairs, voltage=voltage,
                                  kernel_table=kernel_table)
            for slot in plan.slots_for_voltage(voltage):
                pattern = int(plan.pattern_indices[slot])
                assert_equivalent(reference, pattern, full, int(slot),
                                  circuit.nets())

    def test_small_memory_budget_batches(self, library):
        """Tiny budget forces multiple batches; results must stitch."""
        circuit = random_circuit("mem", 8, 80, seed=5)
        config = SimulationConfig(record_all_nets=True)
        compiled = compile_circuit(circuit, library)
        pairs = make_pairs(circuit, 10, 5)
        whole = GpuWaveSim(circuit, library, config=config,
                           compiled=compiled).run(pairs)
        tiny = GpuWaveSim(circuit, library, config=config, compiled=compiled,
                          memory_budget=50_000)
        batched = tiny.run(pairs)
        assert tiny.last_stats.batches > 1
        for slot in range(len(pairs)):
            assert_equivalent(whole, slot, batched, slot, circuit.nets())


class TestFinalValues:
    def test_match_zero_delay(self, library, medium_circuit, rng):
        pairs = make_pairs(medium_circuit, 16, 11)
        result = GpuWaveSim(medium_circuit, library).run(pairs)
        expected = ZeroDelaySimulator(medium_circuit, library).responses(
            np.stack([p.v2 for p in pairs]))
        for slot in range(len(pairs)):
            np.testing.assert_array_equal(
                result.final_values(slot, medium_circuit.outputs),
                expected[slot])


class TestOverflowHandling:
    def test_capacity_growth(self, library):
        """A tiny starting capacity grows transparently on overflow."""
        circuit = random_circuit("ovf", 12, 200, seed=6)
        config = SimulationConfig(record_all_nets=True, waveform_capacity=2)
        compiled = compile_circuit(circuit, library)
        pairs = make_pairs(circuit, 8, 6)
        sim = GpuWaveSim(circuit, library, config=config, compiled=compiled)
        result = sim.run(pairs)
        assert sim.last_stats.retries >= 1
        baseline = GpuWaveSim(
            circuit, library, compiled=compiled,
            config=SimulationConfig(record_all_nets=True, waveform_capacity=64),
        ).run(pairs)
        for slot in range(len(pairs)):
            assert_equivalent(result, slot, baseline, slot, circuit.nets())

    def test_growth_doubles_until_success(self, library):
        """Capacity grows 2 -> 4 -> 8 for a run needing 7 toggles; the
        retry count records every doubling."""
        circuit = random_circuit("ovf3", 12, 300, seed=6)
        config = SimulationConfig(record_all_nets=True, waveform_capacity=2)
        compiled = compile_circuit(circuit, library)
        pairs = make_pairs(circuit, 8, 6)
        sim = GpuWaveSim(circuit, library, config=config, compiled=compiled)
        result = sim.run(pairs)
        needed = max(w.num_transitions for slot in result.waveforms
                     for w in slot.values())
        assert needed > 4  # the run genuinely required two doublings
        assert sim.last_stats.retries == 2

    def test_max_capacity_raises(self, library, monkeypatch):
        """Growth stops at MAX_CAPACITY and surfaces the overflow."""
        monkeypatch.setattr("repro.simulation.gpu.MAX_CAPACITY", 4)
        circuit = random_circuit("ovf3", 12, 300, seed=6)
        config = SimulationConfig(waveform_capacity=2)
        sim = GpuWaveSim(circuit, library, config=config)
        with pytest.raises(WaveformOverflowError, match="exceeded capacity"):
            sim.run(make_pairs(circuit, 8, 6))

    def test_growth_disabled_raises(self, library):
        circuit = random_circuit("ovf2", 12, 200, seed=6)
        config = SimulationConfig(waveform_capacity=2, grow_on_overflow=False)
        sim = GpuWaveSim(circuit, library, config=config)
        with pytest.raises(WaveformOverflowError):
            sim.run(make_pairs(circuit, 8, 6))

    def test_growth_disabled_raises_without_retrying(self, library):
        """grow_on_overflow=False fails on the first overflow, and the
        engine stays usable at a sufficient capacity afterwards."""
        circuit = random_circuit("ovf2", 12, 200, seed=6)
        compiled = compile_circuit(circuit, library)
        pairs = make_pairs(circuit, 8, 6)
        strict = GpuWaveSim(
            circuit, library, compiled=compiled,
            config=SimulationConfig(waveform_capacity=2,
                                    grow_on_overflow=False))
        with pytest.raises(WaveformOverflowError):
            strict.run(pairs)
        roomy = GpuWaveSim(
            circuit, library, compiled=compiled,
            config=SimulationConfig(waveform_capacity=64,
                                    grow_on_overflow=False))
        result = roomy.run(pairs)
        assert roomy.last_stats.retries == 0
        assert result.num_slots == len(pairs)


class TestValidation:
    def test_no_pairs(self, library, small_circuit):
        with pytest.raises(SimulationError, match="at least one"):
            GpuWaveSim(small_circuit, library).run([])

    def test_plan_references_missing_pattern(self, library, small_circuit):
        sim = GpuWaveSim(small_circuit, library)
        pairs = make_pairs(small_circuit, 2)
        plan = SlotPlan.zip([0, 5], [0.8, 0.8])
        with pytest.raises(SimulationError, match="missing pattern"):
            sim.run(pairs, plan=plan)

    def test_static_multi_voltage_rejected(self, library, small_circuit):
        sim = GpuWaveSim(small_circuit, library)
        pairs = make_pairs(small_circuit, 2)
        plan = SlotPlan.cross(2, [0.6, 0.8])
        with pytest.raises(SimulationError, match="static delay mode"):
            sim.run(pairs, plan=plan)

    def test_width_mismatch(self, library, small_circuit):
        sim = GpuWaveSim(small_circuit, library)
        bad = PatternPair(v1=np.zeros(2, dtype=np.uint8),
                          v2=np.ones(2, dtype=np.uint8))
        with pytest.raises(SimulationError, match="width"):
            sim.run([bad])

    def test_outputs_only_by_default(self, library, small_circuit):
        sim = GpuWaveSim(small_circuit, library)
        result = sim.run(make_pairs(small_circuit, 2))
        with pytest.raises(KeyError, match="record_all_nets"):
            result.waveform(0, small_circuit.gates[0].output)

    def test_global_slots_shape_mismatch(self, library, small_circuit):
        sim = GpuWaveSim(small_circuit, library)
        pairs = make_pairs(small_circuit, 2)
        with pytest.raises(SimulationError, match="global_slots"):
            sim.run(pairs, global_slots=np.asarray([0]))

    def test_global_slots_negative(self, library, small_circuit):
        sim = GpuWaveSim(small_circuit, library)
        pairs = make_pairs(small_circuit, 2)
        with pytest.raises(SimulationError, match="non-negative"):
            sim.run(pairs, global_slots=np.asarray([-1, 0]))

    def test_global_slots_select_die_factors(self, library, small_circuit,
                                             kernel_table):
        """A chunk run with explicit global slot ids reproduces the
        matching slots of a whole-plane Monte-Carlo run."""
        from repro.simulation.variation import ProcessVariation

        config = SimulationConfig(record_all_nets=True)
        compiled = compile_circuit(small_circuit, library)
        pairs = make_pairs(small_circuit, 6)
        variation = ProcessVariation(sigma=0.1, seed=11)
        sim = GpuWaveSim(small_circuit, library, config=config,
                         compiled=compiled)
        whole = sim.run(pairs, kernel_table=kernel_table, variation=variation)
        chunk_plan = SlotPlan.zip([3, 4, 5], [0.8, 0.8, 0.8])
        chunk = sim.run(pairs, plan=chunk_plan, kernel_table=kernel_table,
                        variation=variation,
                        global_slots=np.asarray([3, 4, 5]))
        for local, slot in enumerate([3, 4, 5]):
            assert_equivalent(whole, slot, chunk, local,
                              small_circuit.nets())

        # A multi-voltage plane run as chunks and stitched back equals
        # the whole-plane run.
        plan = SlotPlan.cross(len(pairs), [0.6, 0.9])
        whole = sim.run(pairs, plan=plan, kernel_table=kernel_table,
                        variation=variation)
        planes = [sim.run(pairs, plan=sub, kernel_table=kernel_table,
                          variation=variation, global_slots=indices).plane
                  for indices, sub in plan.batches(5)]
        stitched = WaveformPlane.concat(planes)
        for slot in range(plan.num_slots):
            for net in small_circuit.nets():
                assert whole.waveform(slot, net).equivalent(
                    stitched[slot][net], 0.0)

    def test_engine_labels(self, library, small_circuit, kernel_table):
        """The engine label records delay mode and compute backend."""
        sim = GpuWaveSim(small_circuit, library,
                         config=SimulationConfig(backend="numpy"))
        pairs = make_pairs(small_circuit, 2)
        assert sim.run(pairs).engine == "gpu-static[numpy,sparse]"
        assert (sim.run(pairs, kernel_table=kernel_table).engine
                == "gpu-parametric[numpy,sparse]")
        assert sim.last_stats.backend == "numpy"
        dense = GpuWaveSim(small_circuit, library,
                           config=SimulationConfig(backend="numpy",
                                                   prune_inactive=False))
        assert dense.run(pairs).engine == "gpu-static[numpy]"


class TestSatelliteRegressions:
    def test_overflow_retry_respects_memory_budget(self, library):
        """A capacity-doubling retry re-sizes the batch so the waveform
        arena never exceeds the memory budget."""
        circuit = random_circuit("budget", 12, 200, seed=6)
        compiled = compile_circuit(circuit, library)
        pairs = make_pairs(circuit, 16, 6)
        per_slot_base = (compiled.num_nets + 1) * 2 * 8
        budget = per_slot_base * 16  # all 16 slots fit at capacity 2 ...
        sim = GpuWaveSim(circuit, library, compiled=compiled,
                         memory_budget=budget,
                         config=SimulationConfig(waveform_capacity=2))
        seen = []
        acquire = sim._arena_pool.acquire

        def spy(nets, slots, capacity, rows=None):
            seen.append(nets * slots * capacity * 8)
            return acquire(nets, slots, capacity, rows=rows)

        sim._arena_pool.acquire = spy
        result = sim.run(pairs)
        assert sim.last_stats.retries > 0, "test needs the overflow path"
        assert seen and max(seen) <= budget
        # ... and the stitched result still covers every slot.
        assert result.num_slots == len(pairs)
        assert all(result.waveforms[s] for s in range(len(pairs)))

    def test_budget_split_matches_unsplit_run(self, library):
        """Budget-forced re-chunking on retry is result-invariant."""
        circuit = random_circuit("budget2", 12, 200, seed=6)
        compiled = compile_circuit(circuit, library)
        pairs = make_pairs(circuit, 16, 6)
        config = SimulationConfig(waveform_capacity=2, record_all_nets=True)
        roomy = GpuWaveSim(circuit, library, compiled=compiled,
                           config=config).run(pairs)
        per_slot_base = (compiled.num_nets + 1) * 2 * 8
        tight = GpuWaveSim(circuit, library, compiled=compiled,
                           memory_budget=per_slot_base * 16,
                           config=config).run(pairs)
        for slot in range(len(pairs)):
            assert_equivalent(roomy, slot, tight, slot, circuit.nets())

    @pytest.mark.parametrize("prune", [True, False])
    def test_delay_evaluation_reused_across_retries(self, library,
                                                    kernel_table, prune):
        """Per-voltage polynomial evaluation depends only on the gates
        and distinct voltages — capacity-doubling retries reuse it, and
        so do the lane-tracked and dense halves a pruned batch lowers
        to (with pruning off the whole batch runs dense).

        Counted on the numpy backend, which materializes per-level
        delays through ``delays_from_normalized`` (the per-lane backend
        evaluates delays inside the merge loop and never materializes
        them at all)."""
        circuit = random_circuit("reuse", 12, 200, seed=6)
        compiled = compile_circuit(circuit, library)
        pairs = make_pairs(circuit, 8, 6)
        for pin in (0, 5):      # two single-toggle (lane-tracked) slots
            v2 = pairs[pin].v1.copy()
            v2[pin] ^= 1
            pairs.append(PatternPair(pairs[pin].v1, v2))
        sim = GpuWaveSim(circuit, library, compiled=compiled,
                         config=SimulationConfig(waveform_capacity=2,
                                                 backend="numpy",
                                                 prune_inactive=prune))
        calls = []
        original = kernel_table.delays_from_normalized

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        kernel_table.delays_from_normalized = counting
        try:
            sim.run(pairs, kernel_table=kernel_table)
        finally:
            kernel_table.delays_from_normalized = original
        assert sim.last_stats.retries > 0, "test needs the overflow path"
        levels = sum(1 for level in compiled.levels if level.size)
        assert len(calls) == levels


class TestVoltageBox:
    """A polynomial-table run checks its distinct supplies against the
    table's characterized box where it normalizes them (φ_V): past the
    box the polynomials extrapolate silently (a 2.0 V plane used to
    answer 0.015 ps arrivals)."""

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("voltage", [2.0, 0.30])
    def test_supply_outside_the_box_raises(self, library, kernel_table,
                                           backend, voltage):
        circuit = random_circuit("box_out", 8, 60, seed=5)
        sim = GpuWaveSim(circuit, library,
                         config=SimulationConfig(backend=backend))
        plan = SlotPlan.cross(2, [0.8, voltage])
        with pytest.raises(ParameterError,
                           match=rf"supply {voltage:g} V is outside the "
                                 r"characterized box \[0.55, 1.1\] V"):
            sim.run(make_pairs(circuit, 2), plan=plan,
                    kernel_table=kernel_table)

    @pytest.mark.parametrize("backend", available_backends())
    def test_box_edges_run(self, library, kernel_table, backend):
        circuit = random_circuit("box_edge", 8, 60, seed=6)
        space = kernel_table.space
        sim = GpuWaveSim(circuit, library,
                         config=SimulationConfig(backend=backend))
        pairs = make_pairs(circuit, 2)
        plan = SlotPlan.cross(2, [space.v_min, space.v_max])
        result = sim.run(pairs, plan=plan, kernel_table=kernel_table)
        assert len(result.waveforms) == 4
        # The memoized set is not re-checked and still answers the same.
        again = sim.run(pairs, plan=plan, kernel_table=kernel_table)
        assert again.plane.checksum() == result.plane.checksum()
