"""Plane-backed results: one generative property over every engine path.

Whatever path a run takes — dense, lane-tracked, quiet / slot-compacted,
several memory-budget batches, an overflow retry, a full delta splice or
a partial one mixing spliced and simulated slots in one batch, a
precomputed delay table in place of the polynomial
kernels, recording all nets or only the outputs, on every available
backend — the result is one :class:`WaveformPlane`, and on it

* the waveforms materialized through ``result.waveforms[s][net]`` are
  bit-identical to the event-driven reference,
* the columnar analysis (``latest_arrivals``, ``switching_activity``,
  ``total_transitions``, ``final_values``) equals the object-loop
  definitions evaluated on a plain-dict copy of the same result,
* ``take`` ∘ ``concat`` round-trips,
* the content checksum does not depend on the ``starts`` layout (engine
  plane == ``take`` slice == checkpoint reload),
* the plane never aliases the engine's pooled arena, and
* no reader depends on an arena row it did not write or reset: every
  run starts from a pooled arena poisoned with finite garbage.
"""

import tempfile

import numpy as np
import pytest
from hypothesis import (HealthCheck, example, given, settings,
                        strategies as st)

from repro.analysis.activity import switching_activity
from repro.analysis.arrival import latest_arrivals
from repro.netlist.generate import random_circuit
from repro.runtime.checkpoint import CheckpointStore
from repro.simulation.backend import available_backends
from repro.simulation.base import (PatternPair, SimulationConfig,
                                   SimulationResult)
from repro.simulation.compiled import compile_circuit
from repro.simulation.delta import DeltaPlan, select_delta
from repro.simulation.event_driven import EventDrivenSimulator
from repro.simulation.gpu import GpuWaveSim
from repro.simulation.grid import SlotPlan
from repro.waveform.plane import WaveformPlane
from repro.waveform.waveform import Waveform

MODES = ("dense", "tracked", "compacted", "multi_batch", "overflow",
         "splice", "partial_splice", "lut")
VOLTAGES = (0.6, 0.9)


def make_pairs(width, kinds, rng):
    """Pairs by kind: ``dense`` toggles about half the inputs, ``single``
    one input (under the lane-tracking fraction for width >= 5) and
    ``quiet`` none."""
    pairs = []
    for kind in kinds:
        v1 = rng.integers(0, 2, size=width, dtype=np.uint8)
        v2 = v1.copy()
        if kind == "dense":
            v2 = rng.integers(0, 2, size=width, dtype=np.uint8)
        elif kind == "single":
            v2[rng.integers(width)] ^= 1
        pairs.append(PatternPair(v1, v2))
    return pairs


#: Capacity the poisoned pool is sized for (the overflow mode grows
#: from 2; nothing here needs more).
POISON_CAPACITY = 64


def poisoned_run(engine, pairs, plan, **kwargs):
    """``engine.run`` on a pooled arena pre-filled with finite garbage:
    toggle times that sort before every real toggle, initial values 1.
    A path that reads a row it neither wrote nor reset sees phantom
    toggles and fails the event-driven comparison."""
    pool = engine._arena_pool
    rows = (engine.compiled.num_nets + 1) * plan.num_slots
    pool._times = np.arange(1, rows * POISON_CAPACITY + 1,
                            dtype=np.float64) * 1e-15
    pool._initial = np.ones(rows, dtype=np.uint8)
    poisoned = pool._times
    result = engine.run(pairs, plan=plan, **kwargs)
    assert pool._times is poisoned      # not outgrown: the poison was live
    return result


def run_mode(mode, circuit, compiled, library, table, pairs, plan,
             record_all, backend, rng):
    """Drive ``mode``; returns ``(engine, result, stimuli simulated)``."""
    config = dict(record_all_nets=record_all, backend=backend,
                  prune_inactive=mode not in ("dense", "overflow"))
    extra = {}
    if mode == "overflow":
        config["waveform_capacity"] = 2
    if mode == "multi_batch":
        extra["memory_budget"] = 1          # floor: 4 slots per batch
    engine = GpuWaveSim(circuit, library, compiled=compiled,
                        config=SimulationConfig(**config), **extra)
    if mode not in ("splice", "partial_splice"):
        return engine, poisoned_run(engine, pairs, plan,
                                    kernel_table=table), pairs
    base = poisoned_run(engine, pairs, plan, kernel_table=table,
                        capture_base=True).base_arena
    if mode == "splice":
        delta = DeltaPlan(base, np.arange(plan.num_slots, dtype=np.int64))
    else:
        # Every other pattern flipped: one batch mixes spliced and
        # simulated slots over the poisoned arena.
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
        delta = selected[0]
    result = poisoned_run(engine, pairs, plan, kernel_table=table,
                          delta=delta)
    stats = engine.last_stats
    lanes = compiled.num_gates * plan.num_slots
    assert (stats.gate_evaluations + stats.lanes_spliced
            + stats.lanes_skipped) == lanes
    mapped = int((delta.base_slot >= 0).sum())
    assert stats.lanes_spliced == compiled.num_gates * mapped
    assert mapped == (plan.num_slots if mode == "splice"
                      else int((plan.pattern_indices % 2 == 0).sum()))
    return engine, result, pairs


def reference_result(circuit, compiled, library, table, pairs, record_all):
    """Event-driven waveforms in ``SlotPlan.cross`` (voltage-major) order."""
    reference = EventDrivenSimulator(
        circuit, library, compiled=compiled,
        config=SimulationConfig(record_all_nets=record_all))
    waveforms = []
    for voltage in VOLTAGES:
        waveforms += reference.run(pairs, voltage=voltage,
                                   kernel_table=table).waveforms
    return waveforms


def assert_same_plane(a: WaveformPlane, b: WaveformPlane):
    assert a.nets == b.nets
    for left, right in zip(a.packed(), b.packed()):
        np.testing.assert_array_equal(left, right)


def every_lowering_on_every_backend(test):
    """Pin one example per (mode, backend): the draw below is too small
    to promise each pair."""
    for backend in available_backends():
        for seed, mode in enumerate(MODES):
            test = example(
                seed=seed, num_inputs=6, num_gates=30, mode=mode,
                kinds=["dense", "single", "quiet", "single", "dense"],
                record_all=bool(seed % 2), backend=backend)(test)
    return test


# A fixed example budget: tier-1 must not depend on the draw.
@every_lowering_on_every_backend
@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000), num_inputs=st.integers(5, 8),
       num_gates=st.integers(5, 40),
       kinds=st.lists(st.sampled_from(["dense", "single", "quiet"]),
                      min_size=3, max_size=6),
       mode=st.sampled_from(MODES), record_all=st.booleans(),
       backend=st.sampled_from(available_backends()))
def test_plane_backed_result(seed, num_inputs, num_gates, kinds, mode,
                             record_all, backend, library, kernel_table,
                             lut_backend):
    if mode == "lut":
        # A delay model offering only ``delays_for_gates``, over the
        # same mixed dense / tracked / quiet plane as "compacted".
        kernel_table = lut_backend
    circuit = random_circuit("plane", num_inputs, num_gates, seed=seed)
    compiled = compile_circuit(circuit, library)
    rng = np.random.default_rng(seed)
    if mode == "tracked":
        kinds = ["single"] * len(kinds)
    elif mode in ("dense", "overflow", "partial_splice"):
        kinds = ["dense"] * len(kinds)
    pairs = make_pairs(num_inputs, kinds, rng)
    plan = SlotPlan.cross(len(pairs), VOLTAGES)
    engine, result, pairs = run_mode(
        mode, circuit, compiled, library, kernel_table, pairs, plan,
        record_all, backend, rng)
    plane = result.plane
    assert plane is not None and result.waveforms is plane
    assert plane.nets == compiled.result_nets(record_all)
    slots = range(result.num_slots)

    # Materialized waveforms == event-driven reference, bit for bit.
    expected = reference_result(circuit, compiled, library, kernel_table,
                                pairs, record_all)
    for slot in slots:
        assert set(result.waveforms[slot]) == set(expected[slot])
        for net, wave in expected[slot].items():
            got = result.waveforms[slot][net]
            assert got.initial == wave.initial, (slot, net)
            assert got.times.tolist() == wave.times.tolist(), (slot, net)

    # Columnar analysis == the object-loop definitions.
    loose = SimulationResult(
        result.circuit_name, result.slot_labels,
        [dict(nets) for nets in result.waveforms], 0.0, 0, result.engine)
    assert loose.plane is None
    outputs = list(circuit.outputs)
    assert (latest_arrivals(result, circuit, plan)
            == latest_arrivals(loose, circuit, plan))
    assert switching_activity(result) == switching_activity(loose)
    assert (switching_activity(result, slots=[1, 0, 1])
            == switching_activity(loose, slots=[1, 0, 1]))
    assert (result.slot_arrivals().tolist()
            == [loose.latest_arrival(slot) for slot in slots])
    assert (plane.transition_counts().tolist()
            == [loose.total_transitions(slot) for slot in slots])
    np.testing.assert_array_equal(
        plane.final_values(outputs),
        np.stack([loose.final_values(slot, outputs) for slot in slots],
                 axis=1))
    for slot in slots:
        assert (result.latest_arrival(slot, outputs)
                == loose.latest_arrival(slot, outputs))
        assert result.total_transitions(slot) == loose.total_transitions(slot)
        np.testing.assert_array_equal(result.final_values(slot, outputs),
                                      loose.final_values(slot, outputs))

    # take ∘ concat round-trips, also through a column permutation.
    assert_same_plane(
        WaveformPlane.concat([plane.take([slot]) for slot in slots]), plane)
    order = rng.permutation(result.num_slots)
    assert_same_plane(
        plane.take(order, copy=False).take(np.argsort(order)), plane)
    assert_same_plane(WaveformPlane.from_waveforms(loose.waveforms), plane)

    # The checksum is a function of the content, not of the layout.
    private = plane.take(list(slots))
    assert not np.shares_memory(private.times, plane.times)
    with tempfile.TemporaryDirectory() as directory:
        store = CheckpointStore(directory)
        store.save_chunk(0, plane)
        reloaded = store.load_chunk(0, result.num_slots)
    shuffled = WaveformPlane.concat(
        [plane.take([slot]) for slot in reversed(slots)]
    ).take(list(reversed(slots)), copy=False)
    assert (plane.checksum() == private.checksum() == reloaded.checksum()
            == shuffled.checksum())
    # ``private`` and ``reloaded`` were built packed and skip the layout
    # derivation; a row or column view of a packed plane must not
    # inherit that shortcut (its payload is the whole parent's).
    for view in (private.rows(private.nets[1:]),
                 private.take(list(reversed(slots)), copy=False)):
        assert view.layout_intact()
        assert (WaveformPlane.from_packed(view.nets, *view.packed()).checksum()
                == view.checksum())

    # The plane owns its memory: another run through the same pooled
    # arena leaves it unchanged.
    before = plane.checksum()
    pool = engine._arena_pool
    for pooled in (pool._times, pool._initial):
        if pooled is not None:      # an all-quiet plane never acquires
            assert not np.shares_memory(plane.times, pooled)
            assert not np.shares_memory(plane.initial, pooled)
    engine.run(make_pairs(num_inputs, ["dense"] * len(pairs), rng),
               plan=plan, kernel_table=kernel_table)
    assert plane.checksum() == before


def test_bulk_queries_construct_no_waveforms(monkeypatch, library,
                                             kernel_table):
    """``run()`` + ``latest_arrivals()`` over 64 slots builds no
    per-(net, slot) :class:`Waveform` object."""
    circuit = random_circuit("guard", 8, 120, seed=4)
    rng = np.random.default_rng(4)
    pairs = [PatternPair.random(8, rng) for _ in range(16)]
    pairs[3] = PatternPair(pairs[3].v1, pairs[3].v1.copy())
    plan = SlotPlan.cross(len(pairs), (0.6, 0.7, 0.8, 0.9))
    engine = GpuWaveSim(circuit, library,
                        config=SimulationConfig(record_all_nets=True))
    built = []
    trusted = Waveform.trusted.__func__
    monkeypatch.setattr(
        Waveform, "trusted",
        classmethod(lambda cls, *args: built.append(1) or trusted(cls, *args)))
    monkeypatch.setattr(Waveform, "__post_init__",
                        lambda self: built.append(1))
    result = engine.run(pairs, plan=plan, kernel_table=kernel_table,
                        capture_base=True)
    assert result.num_slots == 64
    report = latest_arrivals(result, circuit, plan)
    switching_activity(result)
    assert len(report.by_voltage) == 4
    assert built == []
    assert result.waveforms[5][circuit.outputs[0]] is not None
    assert built == [1]


def test_mapping_result_has_no_plane():
    result = SimulationResult(
        "hand", [(0, 0.8)], [{"a": Waveform.step(1, 1e-10)}], 0.0, 0, "test")
    assert result.plane is None
    assert result.latest_arrival(0) == pytest.approx(1e-10)
    assert result.slot_arrivals(["a"]).tolist() == [1e-10]
    with pytest.raises(KeyError, match="not recorded"):
        result.waveform(0, "missing")
