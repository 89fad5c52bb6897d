"""Level-plan execution: in-kernel delays, plan caching, phase timing.

The contract under test (``compiled.py`` / ``gpu.py``): the engine walks
one compacted :class:`LevelPlan` per level — one backend call covering
every arity group, with the 2-D Horner delay polynomial evaluated inside
the merge loop.  Every scenario is held, bit for bit, to the
event-driven reference (static, multi-voltage, Monte-Carlo,
overflow-retry, sparse lane-tracked) and the in-kernel delays to the
``delays_for_gates`` definition.
"""

import numpy as np
import pytest

from repro.netlist.generate import random_circuit
from repro.simulation.backend import available_backends
from repro.simulation.base import (LAUNCH_TIME, PatternPair,
                                   SimulationConfig)
from repro.simulation.compiled import (
    clear_level_plan_cache,
    compile_circuit,
    level_plan_cache_stats,
)
from repro.simulation.event_driven import EventDrivenSimulator
from repro.simulation.gpu import GpuWaveSim
from repro.simulation.grid import SlotPlan
from repro.simulation.variation import ProcessVariation

CONCRETE = available_backends()


def make_pairs(circuit, count, seed=0):
    rng = np.random.default_rng(seed)
    return [PatternPair.random(len(circuit.inputs), rng) for _ in range(count)]


def single_toggle_pairs(circuit, count, seed=0):
    """Pairs toggling exactly one input: slots classify as lane-tracked,
    so the levels dispatch compacted lane lists."""
    rng = np.random.default_rng(seed)
    width = len(circuit.inputs)
    pairs = []
    for i in range(count):
        v1 = rng.integers(0, 2, size=width).astype(np.uint8)
        v2 = v1.copy()
        v2[i % width] ^= 1
        pairs.append(PatternPair(v1, v2))
    return pairs


def quiet_pairs(circuit, count, seed=0):
    rng = np.random.default_rng(seed)
    vectors = rng.integers(0, 2, size=(count, len(circuit.inputs)))
    return [PatternPair(v, v.copy()) for v in vectors]


def assert_identical(reference, candidate, num_slots, nets, offset=0):
    """``reference`` slots ``0..n`` against ``candidate`` slots
    ``offset..offset+n``."""
    for slot in range(num_slots):
        for net in nets:
            wa = reference.waveform(slot, net)
            wb = candidate.waveform(offset + slot, net)
            assert wa.initial == wb.initial, (slot, net)
            # Bit-identical: list equality on raw float64, no tolerance.
            assert wa.times.tolist() == wb.times.tolist(), (slot, net)


def run_engine(circuit, compiled, library, pairs, *, backend,
               plan=None, kernel_table=None, variation=None, capacity=None,
               prune=True):
    kwargs = dict(record_all_nets=True, backend=backend,
                  prune_inactive=prune)
    if capacity is not None:
        kwargs["waveform_capacity"] = capacity
    sim = GpuWaveSim(circuit, library, config=SimulationConfig(**kwargs),
                     compiled=compiled)
    result = sim.run(pairs, plan=plan, kernel_table=kernel_table,
                     variation=variation)
    return result, sim.last_stats


def check_against_event_driven(library, backend, seed, pairs_of, *,
                               inputs=8, gates=120, voltages=(0.8,),
                               kernel_table=None, **run_kwargs):
    """Run a ``pairs x voltages`` cross plane on ``backend`` and hold it,
    bit for bit, to the serial event-driven simulator; returns
    ``(compiled, stats)``."""
    circuit = random_circuit(f"fused{seed}", inputs, gates, seed=seed)
    compiled = compile_circuit(circuit, library)
    pairs = pairs_of(circuit)
    result, stats = run_engine(
        circuit, compiled, library, pairs, backend=backend,
        plan=SlotPlan.cross(len(pairs), voltages), kernel_table=kernel_table,
        **run_kwargs)
    reference = EventDrivenSimulator(
        circuit, library, compiled=compiled,
        config=SimulationConfig(record_all_nets=True))
    for index, voltage in enumerate(voltages):
        slots = np.arange(len(pairs)) + index * len(pairs)
        expected = reference.run(
            pairs, voltage=voltage, kernel_table=kernel_table,
            variation=run_kwargs.get("variation"), slot_indices=slots)
        assert_identical(expected, result, len(pairs), circuit.nets(),
                         offset=index * len(pairs))
    return compiled, stats


class TestBitIdentity:
    """Engine output equals the event-driven reference bit for bit, per
    backend, on every kind of workload the level loop serves."""

    @pytest.mark.parametrize("backend_name", CONCRETE)
    def test_static_delays(self, library, backend_name):
        check_against_event_driven(
            library, backend_name, 31, lambda c: make_pairs(c, 6, 31),
            gates=150)

    @pytest.mark.parametrize("backend_name", CONCRETE)
    def test_parametric_multi_voltage(self, library, kernel_table,
                                      backend_name):
        """Voltage-dependent delays evaluated in-kernel (Horner inside
        the merge loop) vs the reference's materialized arrays."""
        check_against_event_driven(
            library, backend_name, 33, lambda c: make_pairs(c, 4, 33),
            voltages=(0.6, 0.8, 1.0), kernel_table=kernel_table)

    @pytest.mark.parametrize("backend_name", CONCRETE)
    def test_monte_carlo_variation(self, library, kernel_table,
                                   backend_name):
        """Per-slot die factors fold into the same entry point."""
        check_against_event_driven(
            library, backend_name, 35, lambda c: make_pairs(c, 4, 35),
            kernel_table=kernel_table,
            variation=ProcessVariation(sigma=0.1, seed=77))

    @pytest.mark.parametrize("backend_name", CONCRETE)
    def test_overflow_retry_path(self, library, kernel_table, backend_name):
        """Capacity-doubling retries rerun the level loop from scratch;
        plans and normalization memos must carry over clean."""
        _, stats = check_against_event_driven(
            library, backend_name, 36, lambda c: make_pairs(c, 6, 36),
            inputs=12, gates=200, kernel_table=kernel_table, capacity=2)
        assert stats.retries >= 1, "workload must exercise the retry"

    @pytest.mark.parametrize("backend_name", CONCRETE)
    def test_sparse_lane_tracked(self, library, backend_name):
        """Mixed dense / lane-tracked / quiet slots: the lane-compacted
        dispatch is exact and every lane is evaluated or skipped."""
        compiled, stats = check_against_event_driven(
            library, backend_name, 37,
            lambda c: (make_pairs(c, 4, 37) + single_toggle_pairs(c, 4, 39)
                       + quiet_pairs(c, 4, 38)),
            gates=150)
        assert 0 < stats.lanes_skipped
        assert (stats.gate_evaluations + stats.lanes_skipped
                == compiled.num_gates * 12)


#: Slot planes by how their supply voltages run along the slot axis
#: (``n`` pairs each): the in-kernel delay memo is keyed (gate, distinct
#: voltage) and must give the per-lane doubles whatever the order.
PLANE_SHAPES = {
    "cross": lambda n: SlotPlan.cross(n, [0.6, 0.8, 1.0]),
    "zip_alternating": lambda n: SlotPlan.zip(np.arange(2 * n) % n,
                                              [0.6, 0.9] * n),
    "one_voltage": lambda n: SlotPlan.uniform(n, 0.7),
    # More distinct voltages than the memo has ways.
    "voltage_per_slot": lambda n: SlotPlan.zip(
        np.arange(2 * n) % n, np.linspace(0.55, 1.05, 2 * n)),
}


class TestDelayHoist:
    """The per-lane kernels evaluate the Horner delay once per (gate,
    distinct voltage) and run of lanes, not per lane: same doubles as
    the numpy backend's materialized arrays and as the
    ``delays_for_gates`` definition, for every slot-plane shape."""

    @pytest.mark.parametrize("lanes", ["dense", "sparse"])
    @pytest.mark.parametrize("with_factors", [False, True])
    @pytest.mark.parametrize("shape", sorted(PLANE_SHAPES))
    def test_plane_shapes(self, library, kernel_table, shape, with_factors,
                          lanes):
        circuit = random_circuit("hoist", 8, 120, seed=41)
        compiled = compile_circuit(circuit, library)
        count = 6
        plan = PLANE_SHAPES[shape](count)
        # Single-toggle pairs classify every slot as lane-tracked, so
        # the levels dispatch compacted (sparse) lane lists.
        pairs = (make_pairs(circuit, count, 41) if lanes == "dense"
                 else single_toggle_pairs(circuit, count, 41))
        variation = (ProcessVariation(sigma=0.1, seed=77)
                     if with_factors else None)
        results = {}
        for backend_name in CONCRETE:
            results[backend_name], stats = run_engine(
                circuit, compiled, library, pairs, backend=backend_name,
                plan=plan, kernel_table=kernel_table,
                variation=variation, prune=lanes == "sparse")
            assert (stats.lanes_skipped > 0) == (lanes == "sparse")
        for backend_name in CONCRETE:
            assert_identical(results["numpy"], results[backend_name],
                             plan.num_slots, circuit.nets())

        # Oracle: a first-level gate sees all its input toggles at the
        # launch time, so its output toggles at most once, at exactly
        # the delay of (first toggling pin, output polarity, voltage).
        gates = compiled.levels[0]
        distinct_v, slot_to_v = np.unique(plan.voltages, return_inverse=True)
        oracle = kernel_table.delays_for_gates(
            compiled.gate_type_ids[gates], compiled.gate_loads[gates],
            compiled.nominal_delays[gates], distinct_v)
        factors = (variation.factors(compiled.num_gates,
                                     np.arange(plan.num_slots))
                   if with_factors else None)
        net_names = list(compiled.net_index)    # insertion order == net id
        input_position = {int(net): position for position, net
                          in enumerate(compiled.input_net_ids)}
        checked = 0
        for row, gate in enumerate(gates):
            out_net = net_names[int(compiled.gate_output[gate])]
            pins = [input_position[int(net)] for net in
                    compiled.gate_inputs[gate, :compiled.gate_arity[gate]]]
            for slot in range(plan.num_slots):
                pair = pairs[plan.pattern_indices[slot]]
                toggling = [pin for pin, position in enumerate(pins)
                            if pair.v1[position] != pair.v2[position]]
                for backend_name in CONCRETE:
                    wave = results[backend_name].waveform(slot, out_net)
                    assert len(wave.times) <= min(1, len(toggling))
                    if len(wave.times):
                        delay = oracle[row, toggling[0], wave.initial,
                                       slot_to_v[slot]]
                        if with_factors:
                            delay = delay * factors[gate, slot]
                        assert wave.times[0] == LAUNCH_TIME + delay
                        checked += 1
        assert checked > 0


class TestLevelPlans:
    def test_plan_structure(self, library):
        """Plans cover every gate exactly once, arity runs are
        contiguous, and spare pins point at the constant-0 dummy net."""
        circuit = random_circuit("fused_p", 8, 120, seed=41)
        compiled = compile_circuit(circuit, library)
        plans = compiled.plans()
        assert len(plans.levels) == len(compiled.levels)
        seen = []
        for plan in plans.levels:
            assert plan.num_gates == plan.gate_indices.size
            seen.extend(plan.gate_indices.tolist())
            # Arity-sorted with matching group bounds.
            assert np.all(np.diff(plan.arities) >= 0)
            for g in range(plan.num_groups):
                lo, hi = plan.group_offsets[g], plan.group_offsets[g + 1]
                assert np.all(plan.arities[lo:hi] == plan.group_arity[g])
            # Spare pins are wired to the dummy net.
            for row, arity in enumerate(plan.arities):
                spare = plan.in_ids[row, arity:]
                assert np.all(spare == compiled.dummy_net_id)
            # Gathered arrays match the compiled source of truth.
            idx = plan.gate_indices
            assert plan.out_ids.tolist() == \
                compiled.gate_output[idx].tolist()
            assert plan.nominal.tolist() == \
                compiled.nominal_delays[idx].tolist()
        assert sorted(seen) == list(range(compiled.num_gates))

    def test_plans_shared_across_compiled_copies(self, library):
        """Two independent compiles of one circuit hit the
        fingerprint-keyed process cache."""
        circuit = random_circuit("fused_c", 8, 80, seed=43)
        clear_level_plan_cache()
        a = compile_circuit(circuit, library).plans()
        stats = level_plan_cache_stats()
        assert stats["misses"] == 1 and stats["entries"] == 1
        b = compile_circuit(circuit, library).plans()
        assert b is a
        assert level_plan_cache_stats()["hits"] >= 1

    def test_mutated_copy_gets_fresh_plans(self, library):
        """A compiled copy with different delays (ATPG fault injection
        shallow-copies and mutates) must not reuse stale plans."""
        import copy

        circuit = random_circuit("fused_m", 8, 80, seed=44)
        compiled = compile_circuit(circuit, library)
        base = compiled.plans()
        faulty = copy.copy(compiled)
        faulty.nominal_delays = compiled.nominal_delays.copy()
        faulty.nominal_delays[0, 0, :] += 1e-9
        mutated = faulty.plans()
        assert mutated is not base
        # The mutated delay shows up in gate 0's plan row.
        for plan in mutated.levels:
            rows = np.nonzero(plan.gate_indices == 0)[0]
            if rows.size:
                assert plan.nominal[rows[0], 0, 0] == \
                    faulty.nominal_delays[0, 0, 0]
        # The original still resolves to its own plans.
        assert compiled.plans() is base

    def test_plans_shared_across_service_jobs(self, library):
        """Jobs on independently compiled copies of one circuit — even
        in separate service instances — share one plan set through the
        fingerprint-keyed process cache: the plans build exactly once."""
        from repro.service import ServiceConfig, SimulationService

        circuit = random_circuit("fused_j", 8, 80, seed=45)
        pairs = make_pairs(circuit, 2, 45)
        clear_level_plan_cache()
        config = SimulationConfig(backend="numpy")
        for _ in range(2):
            with SimulationService(config=ServiceConfig(cache_entries=0)) \
                    as service:
                key = service.register_circuit(
                    circuit, library, compiled=compile_circuit(
                        circuit, library))
                handle = service.submit(key, pairs, config=config)
                assert handle.result().gate_evaluations > 0
        stats = level_plan_cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] >= 1

    def test_normalization_memoized(self, library, kernel_table):
        """φ_V / φ_C land in plan-level memos and are reused by value."""
        circuit = random_circuit("fused_n", 8, 80, seed=46)
        plans = compile_circuit(circuit, library).plans()
        volts = np.array([0.6, 0.8, 1.0])
        nv1 = plans.normalized_voltages(kernel_table.space, volts)
        nv2 = plans.normalized_voltages(kernel_table.space, volts.copy())
        assert nv2 is nv1
        assert nv1.tolist() == \
            kernel_table.space.normalize_voltage(volts).tolist()
        nc1 = plans.normalized_loads(kernel_table.space)
        nc2 = plans.normalized_loads(kernel_table.space)
        assert nc2 is nc1
        assert len(nc1) == len(plans.levels)
        for level_nc, plan in zip(nc1, plans.levels):
            assert level_nc.tolist() == kernel_table.space.normalize_load(
                plan.loads).tolist()


class TestPhaseTiming:
    @pytest.mark.parametrize("backend_name", CONCRETE)
    def test_phases_recorded(self, library, kernel_table, backend_name):
        circuit = random_circuit("fused_t", 8, 120, seed=47)
        compiled = compile_circuit(circuit, library)
        pairs = make_pairs(circuit, 4, 47)
        plan = SlotPlan.cross(len(pairs), [0.6, 0.8])
        _, stats = run_engine(circuit, compiled, library, pairs,
                              backend=backend_name,
                              plan=plan, kernel_table=kernel_table)
        phases = stats.phase_seconds()
        assert set(phases) == {"delay", "merge", "pack"}
        assert all(seconds >= 0.0 for seconds in phases.values())
        # Merge covers the kernel work and pack the unpack/settle
        # stage — both necessarily ran.
        assert phases["merge"] > 0.0
        assert phases["pack"] > 0.0

    @pytest.mark.parametrize("backend_name", CONCRETE)
    def test_delay_table_reports_delay_phase(self, library, lut_backend,
                                             backend_name):
        """A delay model offering only ``delays_for_gates`` is
        precomputed into a per-voltage table before the level loop, on
        every backend; that time is the delay phase."""
        circuit = random_circuit("fused_d", 8, 120, seed=48)
        compiled = compile_circuit(circuit, library)
        pairs = make_pairs(circuit, 4, 48)
        plan = SlotPlan.cross(len(pairs), [0.6, 0.8])
        _, stats = run_engine(circuit, compiled, library, pairs,
                              backend=backend_name,
                              plan=plan, kernel_table=lut_backend)
        assert stats.phase_seconds()["delay"] > 0.0
