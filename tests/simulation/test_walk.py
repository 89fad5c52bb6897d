"""The native level walk against its references.

``ComputeBackend.run_levels`` has two implementations: the per-level
Python loop of the base class (run here on the numpy backend) and the C
gate-major walk of the cext backend, which reads and grows the activity
mask itself.  One generative property holds the second to the first —
bit for bit on the arena, the mask and every returned count — over
drawn circuits, stimuli, voltage planes, delay sources, Monte-Carlo
factors, capacities and both mask modes (none, growing).  Hand-built levels then put every chunk-boundary shape
and every arity body of the C walk against the scalar ``merge_single``
oracle.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.errors import ReproError
from repro.faults import FaultPlan
from repro.netlist.generate import random_circuit
from repro.simulation.backend import available_backends, resolve_backend
from repro.simulation.base import LAUNCH_TIME, PatternPair, SimulationConfig
from repro.simulation.compiled import ConcatPlans, compile_circuit
from repro.simulation.gpu import GpuWaveSim
from repro.simulation.grid import SlotPlan
from repro.simulation.kernels import merge_single
from repro.simulation.variation import ProcessVariation
from repro.waveform.waveform import Waveform

INF = np.inf
SUPPLIES = np.array([0.6, 0.75, 0.9])

needs_cext = pytest.mark.skipif("cext" not in available_backends(),
                                reason="cext backend not loadable")


# -- (i) native walk == base-class reference ----------------------------------------


def start_arena(compiled, first, toggles, capacity, rng):
    """What ``GpuWaveSim._execute`` hands a walk: a pooled arena still
    holding finite garbage in every gate-output row, the undriven rows
    reset and the stimuli launched."""
    num_slots = first.shape[0]
    shape = (compiled.num_nets + 1, num_slots, capacity)
    times = rng.uniform(1e-15, 1e-12, size=shape)
    initial = np.ones(shape[:2], dtype=np.uint8)
    undriven = np.ones(compiled.num_nets + 1, dtype=bool)
    undriven[compiled.gate_output] = False
    times[undriven] = INF
    initial[undriven] = 0
    launch(compiled, times, initial, first, toggles)
    return times, initial


def launch(compiled, times, initial, first, toggles):
    initial[compiled.input_net_ids] = first.T
    times[compiled.input_net_ids, :, 0] = np.where(toggles.T, LAUNCH_TIME, INF)


def walk(backend, plans, arena, slot_to_v, factors, capacity, source, mask):
    """One ``run_levels`` call on private copies; returns the result
    and everything the call may have written."""
    times, initial = (array.copy() for array in arena)
    mask = None if mask is None else mask.copy()
    result = backend.run_levels(plans, times, initial, slot_to_v, factors,
                                capacity, True, mask=mask, **source)
    return result, times, initial, mask


def assert_walks_agree(compiled, table, first, toggles, voltages,
                       factors, capacity, delay_source, mode, rng):
    """Native and reference ``run_levels`` from the same start state."""
    native = resolve_backend("cext")
    reference = resolve_backend("numpy")
    plans = compiled.plans()
    distinct, slot_to_v = np.unique(voltages, return_inverse=True)
    slot_to_v = np.ascontiguousarray(slot_to_v, dtype=np.int64)
    source = {}
    if delay_source == "poly":
        source = dict(kernel_table=table,
                      nv=plans.normalized_voltages(table.space, distinct),
                      delay_cache={})
    elif delay_source == "table":
        gates = plans.concat().gate_indices
        source = dict(delays=np.ascontiguousarray(native.delays_for_gates(
            table, compiled.gate_type_ids[gates], compiled.gate_loads[gates],
            compiled.nominal_delays[gates], distinct)))

    arena = start_arena(compiled, first, toggles, capacity, rng)
    mask = None
    if mode == "grow":
        mask = np.zeros(arena[1].shape, dtype=bool)
        mask[compiled.input_net_ids] = toggles.T

    ours = walk(native, plans, arena, slot_to_v, factors, capacity, source,
                mask)
    theirs = walk(reference, plans, arena, slot_to_v, factors, capacity,
                  source, mask)
    for field in ("lanes", "lanes_skipped", "kernel_calls", "overflow_lanes"):
        assert getattr(ours[0], field) == getattr(theirs[0], field), field
    if ours[0].overflow_lanes:         # the arena is unspecified
        return
    assert (ours[0].lanes + ours[0].lanes_skipped
            == compiled.num_gates * first.shape[0])
    np.testing.assert_array_equal(ours[1], theirs[1])
    np.testing.assert_array_equal(ours[2], theirs[2])
    if mask is not None:
        np.testing.assert_array_equal(ours[3], theirs[3])


def drawn_walk(seed, num_inputs, num_gates, kinds, num_supplies, variation,
               capacity, delay_source, mode, library, table):
    circuit = random_circuit("walk", num_inputs, num_gates, seed=seed)
    compiled = compile_circuit(circuit, library)
    rng = np.random.default_rng(seed)
    first = rng.integers(0, 2, size=(len(kinds), num_inputs), dtype=np.uint8)
    toggles = np.zeros(first.shape, dtype=bool)
    for slot, kind in enumerate(kinds):
        if kind == "dense":
            toggles[slot] = rng.integers(0, 2, size=num_inputs).astype(bool)
        elif kind == "single":
            toggles[slot, rng.integers(num_inputs)] = True
    voltages = (np.full(len(kinds), 0.8) if delay_source == "static"
                else rng.choice(SUPPLIES[:num_supplies], size=len(kinds)))
    factors = (ProcessVariation(sigma=0.1, seed=seed).factors(
        compiled.num_gates, np.arange(len(kinds))) if variation else None)
    assert_walks_agree(compiled, table, first, toggles, voltages,
                       factors, capacity, delay_source, mode, rng)


#: A plane with skipped lanes, dispatched lanes that keep a toggle and
#: dispatched lanes whose toggles all cancel: what the mutants below
#: must trip over.
PINNED = dict(seed=3, num_inputs=6, num_gates=40,
              kinds=["single", "dense", "quiet", "single", "single"],
              num_supplies=2, variation=True, capacity=16,
              delay_source="poly", mode="grow")


@needs_cext
@example(**PINNED)
@example(**{**PINNED, "mode": "none", "delay_source": "table"})
@example(**{**PINNED, "capacity": 1, "delay_source": "static"})
@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000), num_inputs=st.integers(4, 8),
       num_gates=st.integers(5, 60),
       kinds=st.lists(st.sampled_from(["dense", "single", "quiet"]),
                      min_size=1, max_size=9),
       num_supplies=st.integers(1, 3), variation=st.booleans(),
       capacity=st.sampled_from([1, 2, 4, 16]),
       delay_source=st.sampled_from(["poly", "table", "static"]),
       mode=st.sampled_from(["none", "grow"]))
def test_native_walk_matches_reference(seed, num_inputs, num_gates, kinds,
                                       num_supplies, variation, capacity,
                                       delay_source, mode, library,
                                       kernel_table):
    drawn_walk(seed, num_inputs, num_gates, kinds, num_supplies, variation,
               capacity, delay_source, mode, library, kernel_table)


MUTANTS = {
    # A skipped lane of a masked walk leaves its row as it found it.
    "no-inf-row": ("for (int64_t d = 0; d < cap; d++) out[d] = INFINITY;\n"
                   "            mask[out_net + slot] = 0;",
                   "mask[out_net + slot] = 0;"),
    # A dispatched lane whose toggles all cancelled stays active.
    "depth>=0": ("mask[out_net + slot] = depth > 0;",
                 "mask[out_net + slot] = depth >= 0;"),
}


@needs_cext
@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_property_catches_mask_mutants(mutant, monkeypatch, tmp_path, library,
                                       kernel_table):
    """The property above is only worth its run time if a broken walk
    fails it: build the C source with one mask rule broken, swap the
    library in and expect the pinned example to fail."""
    from repro.simulation import kernels_cext

    old, new = MUTANTS[mutant]
    assert kernels_cext._SOURCE.count(old) == 1
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    library_path = kernels_cext._build(kernels_cext._SOURCE.replace(old, new))
    monkeypatch.setattr(kernels_cext, "_lib", kernels_cext._bind(library_path))
    with pytest.raises(AssertionError):
        drawn_walk(library=library, table=kernel_table, **PINNED)


# -- (ii) chunk boundaries and arity bodies, against merge_single ---------------------


def hand_level(rng, arities, num_slots, capacity):
    """One level of synthetic gates over random multi-toggle inputs:
    ``(cat, times, initial, delays)`` with nets ``0..P-1`` the primary
    inputs, ``P`` the dummy net and one output net per gate after it."""
    arities = np.asarray(arities, dtype=np.int64)
    num_gates, max_pins, num_inputs = arities.size, int(arities.max()), 8
    dummy = num_inputs
    in_ids = np.full((num_gates, max_pins), dummy, dtype=np.int64)
    tables = np.zeros(num_gates, dtype=np.int64)
    for gate, arity in enumerate(arities):
        in_ids[gate, :arity] = rng.choice(num_inputs, size=arity, replace=False)
        tables[gate] = int(rng.integers(1, 2 ** min(2 ** arity, 63) - 1))
    cat = ConcatPlans(
        level_offsets=np.array([0, num_gates], dtype=np.int64),
        gate_indices=np.arange(num_gates, dtype=np.int64),
        arities=arities, in_ids=in_ids,
        out_ids=np.arange(num_gates, dtype=np.int64) + num_inputs + 1,
        tables=tables, type_ids=np.zeros(num_gates, dtype=np.int64),
        nominal=np.zeros((num_gates, max_pins, 2)))
    times = np.full((num_inputs + 1 + num_gates, num_slots, capacity), INF)
    # Six pins' toggles must fit one output row even when none cancels.
    counts = rng.integers(0, capacity // 8 + 1, size=(num_inputs, num_slots))
    stamps = np.sort(rng.uniform(0, 1e-9, size=(num_inputs, num_slots,
                                                capacity)), axis=2)
    times[:num_inputs] = np.where(
        np.arange(capacity) < counts[:, :, None], stamps, INF)
    times[num_inputs + 1:] = 1e-15            # poison: rows are written whole
    initial = np.ones(times.shape[:2], dtype=np.uint8)
    initial[:num_inputs] = rng.integers(0, 2, size=(num_inputs, num_slots))
    initial[dummy] = 0
    delays = rng.uniform(1e-12, 5e-11, size=(num_gates, max_pins, 2, 1))
    return cat, times, initial, delays


def assert_level_matches_oracle(cat, times, initial, delays, inertial=True):
    for gate in range(cat.arities.size):
        arity = int(cat.arities[gate])
        for slot in range(times.shape[1]):
            inputs = [Waveform(int(initial[net, slot]),
                               times[net, slot][np.isfinite(times[net, slot])])
                      for net in cat.in_ids[gate, :arity]]
            expected = merge_single(inputs, delays[gate, :arity, :, 0],
                                    int(cat.tables[gate]), inertial=inertial)
            row = times[cat.out_ids[gate], slot]
            count = expected.num_transitions
            assert initial[cat.out_ids[gate], slot] == expected.initial
            assert row[:count].tolist() == expected.times.tolist(), (gate, slot)
            assert np.all(np.isinf(row[count:])), (gate, slot)


@needs_cext
@pytest.mark.parametrize("inertial", [True, False])
@pytest.mark.parametrize("num_slots", [1, 30, 63, 64, 65])
def test_chunk_boundaries_and_arities(num_slots, inertial):
    """12 gates of arity 1..6 (5 and 6 exist in no library: the generic
    body) over planes whose 64-lane chunks start mid-gate, end mid-gate,
    span 64 gates (``S = 1``, also a level of fewer than 64 lanes) and
    span exactly three (``S = 30``); the widest planes cross the
    parallel threshold."""
    from repro.simulation import kernels_cext

    rng = np.random.default_rng(num_slots)
    capacity = 32
    cat, times, initial, delays = hand_level(
        rng, [1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6], num_slots, capacity)
    overflow, _, calls, lanes, skipped = kernels_cext.run_levels(
        times, initial, cat, delays, None, None, None,
        np.zeros(num_slots, dtype=np.int64), None, capacity, inertial)
    assert (overflow, calls, lanes, skipped) == (0, 1, 12 * num_slots, 0)
    assert_level_matches_oracle(cat, times, initial, delays, inertial)


@needs_cext
@pytest.mark.parametrize("out_capacity", [3, 32])
@pytest.mark.parametrize("pins", [1, 2, 3, 4, 5, 6])
def test_merge_kernel_shares_the_lane_body(pins, out_capacity):
    """``merge_kernel`` runs the same C body with ``cin != cout`` and
    lane-strided delays; an output row narrower than the waveform
    overflows on exactly the lanes the numpy kernel flags."""
    rng = np.random.default_rng(pins)
    lanes, capacity = 70, 8
    counts = rng.integers(0, capacity + 1, size=(pins, lanes))
    times = np.where(np.arange(capacity) < counts[:, :, None],
                     np.sort(rng.uniform(0, 1e-9, size=(pins, lanes, capacity)),
                             axis=2), INF)
    initial = rng.integers(0, 2, size=(pins, lanes)).astype(np.uint8)
    delays = rng.uniform(1e-12, 5e-11, size=(pins, 2, lanes))
    tables = rng.integers(1, 2 ** min(2 ** pins, 63) - 1, size=lanes)
    ours = resolve_backend("cext").merge_kernel(times, initial, delays, tables,
                                                out_capacity)
    theirs = resolve_backend("numpy").merge_kernel(times, initial, delays,
                                                   tables, out_capacity)
    np.testing.assert_array_equal(ours.overflow, theirs.overflow)
    assert ours.overflow.any() == (out_capacity == 3)
    for lane in np.flatnonzero(~ours.overflow):
        inputs = [Waveform(int(initial[p, lane]),
                           times[p, lane][np.isfinite(times[p, lane])])
                  for p in range(pins)]
        expected = merge_single(inputs, delays[:, :, lane], int(tables[lane]))
        count = int(ours.counts[lane])
        assert ours.initial[lane] == expected.initial
        assert ours.times[lane, :count].tolist() == expected.times.tolist()
        assert np.all(np.isinf(ours.times[lane, count:]))


# -- (iii) overflow in a masked walk ------------------------------------------------------


@pytest.mark.parametrize("backend_name", available_backends())
def test_masked_overflow_flags_the_slot_and_walks_on(backend_name, library):
    """A masked walk that overflows flags the slots it happened in and
    still walks every level: the healthy columns equal the unmasked
    arena, the flagged ones are garbage with well-formed rows, and the
    retry of the flagged slots alone at a capacity that fits reproduces
    their columns."""
    backend = resolve_backend(backend_name)
    circuit = random_circuit("walk_o", 8, 200, seed=5)
    compiled = compile_circuit(circuit, library)
    plans = compiled.plans()
    rng = np.random.default_rng(5)
    num_slots = 6
    first = rng.integers(0, 2, size=(num_slots, 8), dtype=np.uint8)
    toggles = rng.random((num_slots, 8)) < 0.5
    toggles[:, 0] = True
    toggles[2] = False                 # one slot that cannot overflow

    def grown(capacity, slots=slice(None)):
        arena = start_arena(compiled, first[slots], toggles[slots], capacity,
                            rng)
        mask = np.zeros(arena[1].shape, dtype=bool)
        mask[compiled.input_net_ids] = toggles[slots].T
        width = arena[1].shape[1]
        return walk(backend, plans, arena, np.zeros(width, dtype=np.int64),
                    None, capacity, {}, mask), arena

    (tight, times, initial, mask), _ = grown(2)
    flagged = np.flatnonzero(tight.overflow_slots)
    healthy = np.flatnonzero(tight.overflow_slots == 0)
    assert tight.overflow_lanes >= flagged.size > 0 and healthy.size > 0
    assert tight.lanes + tight.lanes_skipped == compiled.num_gates * num_slots
    # Every row is whole (toggles, then +inf), flagged columns included.
    assert np.all(np.diff(np.isfinite(times).astype(np.int8), axis=2) <= 0)

    (roomy, *_), arena = grown(16)
    assert not roomy.overflow_slots.any()
    dense, dense_times, dense_initial, _ = walk(
        backend, plans, arena, np.zeros(num_slots, dtype=np.int64), None, 16,
        {}, None)
    assert roomy.lanes + roomy.lanes_skipped == dense.lanes
    np.testing.assert_array_equal(times[:, healthy],
                                  dense_times[:, healthy, :2])
    assert np.all(np.isinf(dense_times[:, healthy, 2:]))
    np.testing.assert_array_equal(initial[:, healthy],
                                  dense_initial[:, healthy])
    # A flagged slot's dispatched lanes are those the mask still names.
    in_ids = plans.concat().in_ids
    dispatched = mask[:, flagged][in_ids].any(axis=1)
    assert 0 < np.count_nonzero(dispatched) < in_ids.shape[0] * flagged.size

    (retried, retried_times, retried_initial, _), _ = grown(16, flagged)
    assert not retried.overflow_slots.any()
    np.testing.assert_array_equal(retried_times, dense_times[:, flagged])
    np.testing.assert_array_equal(retried_initial, dense_initial[:, flagged])


# -- (iv) quiet-slot dedupe ------------------------------------------------------------------


@pytest.mark.parametrize("backend_name", available_backends())
def test_quiet_settle_dedupes_by_pattern_then_vector(backend_name, library):
    """Two pattern indices with equal vectors and one index named by
    many slots settle to the plane dense evaluation produces, and every
    lane counts as skipped."""
    circuit = random_circuit("walk_q", 8, 120, seed=9)
    rng = np.random.default_rng(9)
    vector = rng.integers(0, 2, size=8, dtype=np.uint8)
    other = vector.copy()
    other[3] ^= 1
    pairs = [PatternPair(vector, vector.copy()),
             PatternPair(vector.copy(), vector.copy()),   # same vector, new index
             PatternPair(other, other.copy())]
    plan = SlotPlan(np.array([0, 0, 1, 2, 0, 0, 2, 1, 0], dtype=np.int64),
                    np.full(9, 0.8))
    results = {}
    for prune in (True, False):
        engine = GpuWaveSim(circuit, library, config=SimulationConfig(
            backend=backend_name, prune_inactive=prune, record_all_nets=True))
        results[prune] = engine.run(pairs, plan=plan).plane
        if prune:
            assert engine.last_stats.lanes_skipped == circuit.num_gates * 9
            assert engine.last_stats.gate_evaluations == 0
    for ours, theirs in zip(results[True].packed(), results[False].packed()):
        np.testing.assert_array_equal(ours, theirs)


# -- fault seam --------------------------------------------------------------------------------


def test_retired_fault_site_is_refused():
    """``backend.merge_group`` named the per-level dispatch of a masked
    batch; every walk now crosses ``backend.run_levels`` once, and a
    plan naming the retired site is an error, not a rule that never
    fires."""
    with pytest.raises(ReproError, match="backend.merge_group"):
        FaultPlan.from_spec("backend.merge_group:raise@n=1")
    assert FaultPlan.from_spec("backend.run_levels:raise@n=1").rules
