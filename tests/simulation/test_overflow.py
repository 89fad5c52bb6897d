"""Overflow costs what overflowed — and nothing of the answer.

A lane whose toggles do not fit its row flags its slot, the walk goes on
and the engine re-runs the flagged slots alone at a grown capacity
(``GpuWaveSim._recover``).  So nothing a run returns may depend on the
capacity it started at:

* planes — from a poisoned arena pool — equal a capacity-128 run and
  the event-driven reference, over every lowering (dense, lane-tracked,
  mixed with quiet slots, simulated beside spliced slots, several
  memory-budget batches, segmented) on every backend,
* ``gate_evaluations`` / ``lanes_skipped`` / ``lanes_spliced`` count
  every lane of the answer once: each equals the capacity-128 run's and
  they sum to ``gates × slots``; the discarded work shows as ``retries``
  and ``slots_retried``, which is the number of slots the reference
  kernel flags at each capacity of the ladder (transient depth counts,
  not only the toggles that survive),
* the native walk flags the slots the reference walk flags and leaves
  the same arena, quiet rows included.

Then the places where rows start at one cache line: which planes do, and
the one-way latch that stops it.
"""

import numpy as np
import pytest
from hypothesis import (HealthCheck, event, example, given, settings,
                        strategies as st)

from repro.errors import WaveformOverflowError
from repro.netlist.generate import random_circuit
from repro.simulation import gpu
from repro.simulation.backend import available_backends, resolve_backend
from repro.simulation.base import PatternPair, SimulationConfig
from repro.simulation.compiled import compile_circuit
from repro.simulation.delta import select_delta
from repro.simulation.event_driven import EventDrivenSimulator
from repro.simulation.gpu import GpuWaveSim
from repro.simulation.grid import Segments, SlotPlan
from repro.simulation.variation import ProcessVariation
from tests.simulation.test_plane import assert_same_plane, make_pairs
from tests.simulation.test_walk import launch, start_arena

INF = np.inf
VOLTAGES = (0.6, 0.9)
ROOMY = 128
LOWERINGS = ("dense", "tracked", "mixed", "partial_splice", "multi_batch",
             "segmented")

needs_cext = pytest.mark.skipif("cext" not in available_backends(),
                                reason="cext backend not loadable")


# -- engine: results do not depend on the starting capacity -------------------------


def reference_flags(compiled, table, pairs, plan, capacity):
    """The slots the reference kernel flags when every lane of the
    plane runs at ``capacity``."""
    plans = compiled.plans()
    v1 = np.stack([pair.v1 for pair in pairs])[plan.pattern_indices]
    v2 = np.stack([pair.v2 for pair in pairs])[plan.pattern_indices]
    times = np.full((compiled.num_nets + 1, plan.num_slots, capacity), INF)
    initial = np.zeros(times.shape[:2], dtype=np.uint8)
    launch(compiled, times, initial, v1, v1 != v2)
    distinct, slot_to_v = np.unique(plan.voltages, return_inverse=True)
    result = resolve_backend("numpy").run_levels(
        plans, times, initial, np.ascontiguousarray(slot_to_v, dtype=np.int64),
        None, capacity, True, kernel_table=table,
        nv=plans.normalized_voltages(table.space, distinct), delay_cache={})
    return result.overflow_slots.astype(bool)


def ladder_retries(compiled, table, pairs, plan, capacity):
    """``slots_retried`` of a run starting at ``capacity``: the slots
    flagged at each capacity of the doubling ladder (a slot flagged at
    ``2c`` is flagged at ``c``, so each rung re-runs the one before)."""
    total = 0
    while True:
        flagged = int(reference_flags(compiled, table, pairs, plan,
                                      capacity).sum())
        if not flagged:
            return total
        total += flagged
        capacity *= 2


def poisoned_run(engine, pairs, plan, **kwargs):
    """``engine.run`` from a pool holding finite garbage (see
    ``test_plane.poisoned_run``), sized for the roomiest retry."""
    pool = engine._arena_pool
    rows = (engine.compiled.num_nets + 1) * plan.num_slots
    pool._times = np.arange(1, rows * ROOMY + 1, dtype=np.float64) * 1e-15
    pool._initial = np.ones(rows, dtype=np.uint8)
    poisoned = pool._times
    result = engine.run(pairs, plan=plan, **kwargs)
    assert pool._times is poisoned
    return result


def run_lowering(lowering, capacity, circuit, compiled, library, table, pairs,
                 plan, record_all, backend, rng):
    """One run of ``lowering`` starting at ``capacity``; returns
    ``(engine, result, stimuli simulated, the slots simulated)``.  A
    partial splice flips every other pattern of a base captured at
    :data:`ROOMY` and splices the rest, whose waveforms may not fit."""
    def engine_at(capacity):
        return GpuWaveSim(
            circuit, library, compiled=compiled,
            memory_budget=1 if lowering == "multi_batch" else 2 ** 30,
            config=SimulationConfig(
                record_all_nets=record_all, backend=backend,
                waveform_capacity=capacity,
                prune_inactive=lowering not in ("dense", "segmented")))

    engine = engine_at(capacity)
    extra = {}
    simulated = plan
    if lowering == "segmented":
        extra = dict(segments=Segments([2, 0, plan.num_slots - 3, 1]))
    elif lowering == "partial_splice":
        base = engine_at(ROOMY).run(pairs, plan=plan, kernel_table=table,
                                    capture_base=True).base_arena
        flipped = []
        for index, pair in enumerate(pairs):
            v2 = pair.v2.copy()
            if index % 2:
                v2[rng.integers(v2.size)] ^= 1
            flipped.append(PatternPair(pair.v1, v2))
        pairs = flipped
        selected = select_delta(
            [base], np.stack([p.v1 for p in pairs]),
            np.stack([p.v2 for p in pairs]), plan.pattern_indices,
            plan.voltages, None, None, 0.99)
        assert selected is not None
        extra = dict(delta=selected[0])
        simulated = plan.take(np.flatnonzero(selected[0].base_slot < 0))
    return engine, poisoned_run(engine, pairs, plan, kernel_table=table,
                                **extra), pairs, simulated


#: A circuit deep enough for rows above two, three and four toggles
#: (checked by ``test_the_draws_above_do_overflow``); nothing this small
#: has a row above eight, so the draws at 8 and 16 never retry.
PINNED = dict(seed=1, num_inputs=6, num_gates=200,
              kinds=["dense", "single", "quiet", "single", "dense"])


def every_lowering_on_every_backend(test):
    for backend in available_backends():
        for index, lowering in enumerate(LOWERINGS):
            test = example(lowering=lowering, capacity=2 + index % 2,
                           record_all=bool(index % 2), backend=backend,
                           **PINNED)(test)
    return test


@every_lowering_on_every_backend
@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000), num_inputs=st.integers(5, 8),
       num_gates=st.integers(40, 300),
       kinds=st.lists(st.sampled_from(["dense", "single", "quiet"]),
                      min_size=3, max_size=6),
       lowering=st.sampled_from(LOWERINGS),
       capacity=st.sampled_from([2, 3, 4, 8, 16]), record_all=st.booleans(),
       backend=st.sampled_from(available_backends()))
def test_results_do_not_depend_on_the_starting_capacity(
        seed, num_inputs, num_gates, kinds, lowering, capacity, record_all,
        backend, library, kernel_table):
    circuit = random_circuit("overflow", num_inputs, num_gates, seed=seed)
    compiled = compile_circuit(circuit, library)
    rng = np.random.default_rng(seed)
    if lowering == "tracked":
        kinds = ["single"] * len(kinds)
    elif lowering in ("dense", "partial_splice", "segmented"):
        kinds = ["dense"] * len(kinds)
    pairs = make_pairs(num_inputs, kinds, rng)
    plan = SlotPlan.cross(len(pairs), VOLTAGES)
    state = rng.bit_generator.state
    engine, tight, simulated, run_plan = run_lowering(
        lowering, capacity, circuit, compiled, library, kernel_table, pairs,
        plan, record_all, backend, rng)
    rng.bit_generator.state = state          # the same flips, if any
    roomy_engine, roomy, pairs, _ = run_lowering(
        lowering, ROOMY, circuit, compiled, library, kernel_table, pairs,
        plan, record_all, backend, rng)
    assert all(np.array_equal(ours.v2, theirs.v2)
               for ours, theirs in zip(simulated, pairs))

    # Planes: the roomy run's, and the event-driven reference's.
    assert_same_plane(tight.plane, roomy.plane)
    reference = EventDrivenSimulator(
        circuit, library, compiled=compiled,
        config=SimulationConfig(record_all_nets=record_all))
    expected = []
    for voltage in VOLTAGES:
        expected += reference.run(pairs, voltage=voltage,
                                  kernel_table=kernel_table).waveforms
    for slot, nets in enumerate(expected):
        for net, wave in nets.items():
            got = tight.waveforms[slot][net]
            assert got.initial == wave.initial, (slot, net)
            assert got.times.tolist() == wave.times.tolist(), (slot, net)
    if lowering == "segmented":
        assert len(tight.segments) == len(roomy.segments) == 4
        for plane, roomy_plane in zip(tight.segments, roomy.segments):
            assert_same_plane(plane, roomy_plane)
            assert plane.layout_intact()

    # Counters: every lane of the answer once, whatever overflowed.
    stats, roomy_stats = engine.last_stats, roomy_engine.last_stats
    for term in ("gate_evaluations", "lanes_skipped", "lanes_spliced"):
        assert getattr(stats, term) == getattr(roomy_stats, term), term
    assert (stats.gate_evaluations + stats.lanes_skipped
            + stats.lanes_spliced) == compiled.num_gates * plan.num_slots
    assert tight.gate_evaluations == roomy.gate_evaluations
    assert roomy_stats.retries == roomy_stats.slots_retried == 0

    # The discarded work, and only it, shows as retries: the simulated
    # slots' (a spliced slot never walks the arena).
    assert stats.slots_retried == ladder_retries(
        compiled, kernel_table, pairs, run_plan, capacity)
    assert (stats.retries > 0) == (stats.slots_retried > 0)
    event(f"retried: {stats.retries > 0}")   # --hypothesis-show-statistics
    assert (stats.capacity_used > capacity) == (stats.retries > 0)
    # (0: every slot settled or spliced, nothing walked the arena.)
    assert stats.capacity_used >= capacity or not stats.kernel_calls


@pytest.mark.parametrize("backend", available_backends())
def test_the_draws_above_do_overflow(backend, library, kernel_table):
    """The pinned examples re-run some slots and keep others — and a
    slot that needs two doublings is counted at each."""
    circuit = random_circuit("overflow", PINNED["num_inputs"],
                             PINNED["num_gates"], seed=PINNED["seed"])
    compiled = compile_circuit(circuit, library)
    pairs = make_pairs(PINNED["num_inputs"], PINNED["kinds"],
                       np.random.default_rng(PINNED["seed"]))
    plan = SlotPlan.cross(len(pairs), VOLTAGES)
    engine = GpuWaveSim(circuit, library, compiled=compiled,
                        config=SimulationConfig(backend=backend,
                                                waveform_capacity=2))
    engine.run(pairs, plan=plan, kernel_table=kernel_table)
    stats = engine.last_stats
    at_2 = int(reference_flags(compiled, kernel_table, pairs, plan, 2).sum())
    assert 0 < at_2 < plan.num_slots
    assert stats.slots_retried == ladder_retries(compiled, kernel_table, pairs,
                                                 plan, 2) > at_2
    assert stats.capacity_used >= 8


# -- backend: the native walk flags what the reference flags ------------------------


@needs_cext
@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@example(seed=3, num_inputs=6, num_gates=40, kinds=["single", "dense", "quiet",
                                                    "single", "dense"],
         variation=True, capacity=2, mode="grow")
@given(seed=st.integers(0, 10_000), num_inputs=st.integers(4, 8),
       num_gates=st.integers(20, 70),
       kinds=st.lists(st.sampled_from(["dense", "single", "quiet"]),
                      min_size=2, max_size=9),
       variation=st.booleans(), capacity=st.sampled_from([1, 2, 3, 4]),
       mode=st.sampled_from(["none", "grow"]))
def test_native_walk_flags_what_the_reference_flags(
        seed, num_inputs, num_gates, kinds, variation, capacity, mode,
        library, kernel_table):
    """Both walks from one start state: the same flagged slots, counts
    and — the quiet-row rule being the same rule — the same arena and
    mask, flagged columns included."""
    circuit = random_circuit("flags", num_inputs, num_gates, seed=seed)
    compiled = compile_circuit(circuit, library)
    plans = compiled.plans()
    rng = np.random.default_rng(seed)
    num_slots = len(kinds)
    first = rng.integers(0, 2, size=(num_slots, num_inputs), dtype=np.uint8)
    toggles = np.zeros(first.shape, dtype=bool)
    for slot, kind in enumerate(kinds):
        if kind == "dense":
            toggles[slot] = rng.integers(0, 2, size=num_inputs).astype(bool)
        elif kind == "single":
            toggles[slot, rng.integers(num_inputs)] = True
    voltages = rng.choice(np.array(VOLTAGES), size=num_slots)
    distinct, slot_to_v = np.unique(voltages, return_inverse=True)
    slot_to_v = np.ascontiguousarray(slot_to_v, dtype=np.int64)
    source = dict(kernel_table=kernel_table, delay_cache={},
                  nv=plans.normalized_voltages(kernel_table.space, distinct))
    factors = (ProcessVariation(sigma=0.1, seed=seed).factors(
        compiled.num_gates, np.arange(num_slots)) if variation else None)
    native, reference = resolve_backend("cext"), resolve_backend("numpy")

    arena = start_arena(compiled, first, toggles, capacity, rng)
    mask = None
    if mode == "grow":
        mask = np.zeros(arena[1].shape, dtype=bool)
        mask[compiled.input_net_ids] = toggles.T

    outcomes = []
    for backend in (native, reference):
        times, initial = (array.copy() for array in arena)
        own_mask = None if mask is None else mask.copy()
        result = backend.run_levels(
            plans, times, initial, slot_to_v, factors, capacity, True,
            mask=own_mask, **source)
        outcomes.append((result, times, initial, own_mask))
    ours, theirs = outcomes
    np.testing.assert_array_equal(ours[0].overflow_slots,
                                  theirs[0].overflow_slots)
    for count in ("lanes", "lanes_skipped", "kernel_calls", "overflow_lanes"):
        assert getattr(ours[0], count) == getattr(theirs[0], count), count
    assert (ours[0].lanes + ours[0].lanes_skipped
            == compiled.num_gates * num_slots)
    if ours[0].overflow_slots.any():
        assert ours[0].overflow_lanes > 0
    np.testing.assert_array_equal(ours[1], theirs[1])
    np.testing.assert_array_equal(ours[2], theirs[2])
    if mask is not None:
        np.testing.assert_array_equal(ours[3], theirs[3])


# -- diagnosability -----------------------------------------------------------------


@pytest.mark.parametrize("backend", available_backends())
def test_the_error_names_the_slots(backend, library, kernel_table, monkeypatch):
    """With nowhere to grow the error says which slots overflowed —
    index in the caller's plane and (pattern, voltage) — and at what
    capacity; the engine stays usable."""
    circuit = random_circuit("overflow", PINNED["num_inputs"],
                             PINNED["num_gates"], seed=PINNED["seed"])
    compiled = compile_circuit(circuit, library)
    pairs = make_pairs(PINNED["num_inputs"],
                       ["quiet", "dense", "quiet", "dense"],
                       np.random.default_rng(PINNED["seed"]))
    plan = SlotPlan.cross(len(pairs), VOLTAGES)
    flagged = np.flatnonzero(
        reference_flags(compiled, kernel_table, pairs, plan, 2))
    assert 0 < flagged.size < plan.num_slots
    first = int(flagged[0])
    label = plan.labels()[first]
    strict = GpuWaveSim(
        circuit, library, compiled=compiled,
        config=SimulationConfig(backend=backend, waveform_capacity=2,
                                grow_on_overflow=False,
                                prune_inactive=False))
    with pytest.raises(WaveformOverflowError) as raised:
        strict.run(pairs, plan=plan, kernel_table=kernel_table,
                   global_slots=np.arange(plan.num_slots) + 100)
    message = str(raised.value)
    assert f"{flagged.size} of {plan.num_slots} slots exceeded capacity 2" in message
    assert f"{100 + first} {label}" in message
    assert strict.last_stats is None

    monkeypatch.setattr(gpu, "MAX_CAPACITY", 4)
    capped = GpuWaveSim(circuit, library, compiled=compiled,
                        config=SimulationConfig(backend=backend,
                                                waveform_capacity=2))
    with pytest.raises(WaveformOverflowError, match="exceeded capacity 4: "):
        capped.run(pairs, plan=plan, kernel_table=kernel_table)


# -- where rows start at one cache line ---------------------------------------------


def spied_capacities(engine):
    """Record the capacity of every arena the engine acquires."""
    seen = []
    acquire = engine._arena_pool.acquire

    def spy(nets, slots, capacity, rows=None):
        seen.append((slots, capacity))
        return acquire(nets, slots, capacity, rows=rows)

    engine._arena_pool.acquire = spy
    return seen


def test_a_large_plane_starts_compact_and_a_small_one_does_not(
        library, kernel_table, monkeypatch):
    circuit = random_circuit("compact", 8, 120, seed=4)
    compiled = compile_circuit(circuit, library)
    pairs = make_pairs(8, ["dense"] * 6, np.random.default_rng(4))
    plan = SlotPlan.cross(len(pairs), VOLTAGES)
    arena = (compiled.num_nets + 1) * plan.num_slots * 16 * 8

    def first_capacity(threshold, **config):
        monkeypatch.setattr(gpu, "COMPACT_MIN_BYTES", threshold)
        engine = GpuWaveSim(circuit, library, compiled=compiled,
                            config=SimulationConfig(record_all_nets=True,
                                                    **config))
        seen = spied_capacities(engine)
        result = engine.run(pairs, plan=plan, kernel_table=kernel_table)
        return seen[0], engine.last_stats, result

    (slots, capacity), stats, compact = first_capacity(arena)
    assert (slots, capacity) == (plan.num_slots, gpu.COMPACT_CAPACITY)
    (slots, capacity), small_stats, small = first_capacity(arena + 1)
    assert (slots, capacity) == (plan.num_slots, 16)
    assert small_stats.capacity_used == 16 and small_stats.retries == 0
    assert_same_plane(compact.plane, small.plane)
    assert stats.gate_evaluations == small_stats.gate_evaluations
    # The first retry of a compact start reaches the configured capacity.
    assert stats.capacity_used == (16 if stats.retries else 8)
    # A configured capacity at or below the compact one is the start.
    (_, capacity), _, _ = first_capacity(1, waveform_capacity=4)
    assert capacity == 4
    # Memory-budget batches are sized at the capacity the run starts at.
    monkeypatch.setattr(gpu, "COMPACT_MIN_BYTES", 1)
    per_slot = (compiled.num_nets + 1) * 8 * 8
    engine = GpuWaveSim(circuit, library, compiled=compiled,
                        memory_budget=per_slot * 6)
    seen = spied_capacities(engine)
    engine.run(pairs, plan=plan, kernel_table=kernel_table)
    assert [entry for entry in seen if entry[1] == 8] == [(6, 8), (6, 8)]
    assert engine.last_stats.batches == 2


@pytest.mark.parametrize("flagged_slots, latched", [(2, False), (3, True)])
def test_the_latch_trips_above_one_quarter(flagged_slots, latched, library,
                                           kernel_table, monkeypatch):
    """A compact walk of eight slots that re-runs two keeps the engine
    compact; one that re-runs three starts the engine's later batches
    at the configured capacity, for good."""
    assert gpu.COMPACT_RETRY_DIVISOR == 4
    monkeypatch.setattr(gpu, "COMPACT_MIN_BYTES", 1)
    monkeypatch.setattr(gpu, "COMPACT_CAPACITY", 2)
    circuit = random_circuit("overflow", PINNED["num_inputs"],
                             PINNED["num_gates"], seed=PINNED["seed"])
    compiled = compile_circuit(circuit, library)
    rng = np.random.default_rng(PINNED["seed"])
    candidates = make_pairs(PINNED["num_inputs"], ["dense"] * 12, rng)
    single = SlotPlan.uniform(len(candidates), VOLTAGES[0])
    overflows = reference_flags(compiled, kernel_table, candidates, single, 2)
    assert not reference_flags(compiled, kernel_table, candidates, single,
                               16).any()
    loud = [pair for pair, flag in zip(candidates, overflows) if flag]
    quiet = [PatternPair(pair.v1, pair.v1.copy()) for pair in candidates]
    pairs = loud[:flagged_slots] + quiet[:8 - flagged_slots]
    assert len(pairs) == 8
    plan = SlotPlan.uniform(8, VOLTAGES[0])
    engine = GpuWaveSim(circuit, library, compiled=compiled,
                        config=SimulationConfig(prune_inactive=False))
    seen = spied_capacities(engine)
    engine.run(pairs, plan=plan, kernel_table=kernel_table)
    assert seen[0] == (8, 2) and seen[1] == (flagged_slots, 16)
    assert engine.last_stats.slots_retried == flagged_slots
    assert engine._compact is not latched
    del seen[:]
    engine.run(pairs, plan=plan, kernel_table=kernel_table)
    assert seen[0] == ((8, 16) if latched else (8, 2))
    assert (engine.last_stats.retries == 0) == latched


# -- reports state the capacity that ran ------------------------------------------------


@pytest.fixture(scope="module")
def tight_setup(library, kernel_table):
    """The pinned circuit, stimuli that overflow capacity 2 and what an
    engine starting there goes through."""
    circuit = random_circuit("overflow", PINNED["num_inputs"],
                             PINNED["num_gates"], seed=PINNED["seed"])
    compiled = compile_circuit(circuit, library)
    pairs = make_pairs(PINNED["num_inputs"], ["dense"] * 4,
                       np.random.default_rng(PINNED["seed"]))
    engine = GpuWaveSim(circuit, library, compiled=compiled,
                        config=SimulationConfig(waveform_capacity=2))
    engine.run(pairs, plan=SlotPlan.uniform(len(pairs), 0.8),
               kernel_table=kernel_table)
    assert engine.last_stats.retries > 0
    return circuit, compiled, pairs, engine.last_stats


def test_explorer_report_reads_the_engine(tight_setup, library, kernel_table):
    from repro.avfs.explorer import DesignSpaceExplorer

    circuit, compiled, pairs, stats = tight_setup
    explorer = DesignSpaceExplorer(
        circuit, library, kernel_table,
        simulator=GpuWaveSim(circuit, library, compiled=compiled,
                             config=SimulationConfig(waveform_capacity=2)))
    explorer.sweep(pairs, [0.8])
    report = explorer.last_report
    assert report.max_capacity_used == stats.capacity_used > 2
    assert report.total_retries == stats.retries
    assert report.to_dict()["chunks"][0]["attempts"][0]["engine_retries"] \
        == stats.retries


def test_loop_report_reads_the_engine(tight_setup, library, kernel_table):
    from repro.avfs.controller import AvfsController
    from repro.avfs.explorer import DesignSpaceExplorer
    from repro.avfs.loop import ClosedLoopRunner, LoopConfig

    circuit, compiled, pairs, stats = tight_setup
    table = DesignSpaceExplorer(circuit, library, kernel_table) \
        .voltage_frequency_table(pairs, [0.7, 0.8, 1.0], guardband=0.05)
    runner = ClosedLoopRunner(
        circuit, library, kernel_table, AvfsController(table),
        LoopConfig(period=table.points[0].critical_delay * 2,
                   max_iterations=3, settle_iterations=3,
                   record_energy=False, use_delta=False),
        simulator=GpuWaveSim(circuit, library, compiled=compiled,
                             config=SimulationConfig(waveform_capacity=2)))
    report = runner.run(pairs).run_report
    assert report.max_capacity_used > 2
    assert report.total_retries >= len(report.chunks) > 0


def test_service_report_reads_the_engine(tight_setup, library, kernel_table):
    from repro.service import ServiceConfig, SimulationService

    circuit, compiled, pairs, stats = tight_setup
    with SimulationService(config=ServiceConfig()) as service:
        key = service.register_circuit(circuit, library, compiled=compiled)
        result = service.submit(
            key, pairs, voltage=0.8, kernel_table=kernel_table,
            config=SimulationConfig(waveform_capacity=2)).result(timeout=60)
    assert result.report.max_capacity_used == stats.capacity_used
    assert result.report.total_retries == stats.retries
