"""A batch's answer is assembled in place, not joined and re-sorted.

The parts of a batch that lowers several ways (QUIET, TRACKED, DENSE)
write their columns of one answer where their slots land
(``PlaneCanvas``); an overflow re-run writes its slots' columns of the
answer the walk left them out of.  Neither moves a payload block, so
the answer may be unpacked — and its content must not differ:

* mixed batches at capacities 2-4, where rows overflow, equal a
  ``prune_inactive=False`` run at a roomy capacity: ``packed()`` and
  ``checksum()``, on every backend;
* segmented results stay packed, private and ``layout_intact()``;
* ``latest()`` of a patched plane equals ``latest()`` of its ``copy()``;
* ``latest_arrivals`` equals the per-slot loop it replaced, ties (the
  first slot wins) and supplies where nothing toggled (left out)
  included.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis.arrival import latest_arrivals
from repro.netlist.generate import random_circuit
from repro.simulation import gpu
from repro.simulation.backend import available_backends
from repro.simulation.base import PatternPair, SimulationConfig, SimulationResult
from repro.simulation.gpu import GpuWaveSim
from repro.simulation.grid import Segments, SlotPlan
from repro.waveform.plane import WaveformPlane
from repro.waveform.waveform import Waveform

VOLTAGES = (0.6, 0.9, 1.1)
ROOMY = 128
BACKENDS = available_backends()


@pytest.fixture(scope="module")
def circuit():
    return random_circuit("assembly", 12, 300, seed=1)


def mixed_pairs(circuit, count, seed=0):
    """Quiet, single-toggle (lane-tracked) and dense pairs in turn."""
    rng = np.random.default_rng(seed)
    width = len(circuit.inputs)
    pairs = []
    for index in range(count):
        v1 = rng.integers(0, 2, size=width, dtype=np.uint8)
        v2 = v1.copy()
        if index % 3 == 1:
            v2[rng.integers(width)] ^= 1
        elif index % 3 == 2:
            v2[rng.choice(width, size=width // 2, replace=False)] ^= 1
        pairs.append(PatternPair(v1, v2))
    return pairs


def engine(circuit, library, backend, capacity, **config):
    return GpuWaveSim(circuit, library, config=SimulationConfig(
        backend=backend, waveform_capacity=capacity, **config))


def loop_arrivals(result, circuit, voltages):
    """The per-slot loop ``latest_arrivals`` ran before it reduced per
    supply: the oracle."""
    by_voltage, critical = {}, {}
    arrivals = result.slot_arrivals(list(circuit.outputs)).tolist()
    for slot, (voltage, arrival) in enumerate(zip(voltages, arrivals)):
        if arrival > by_voltage.get(voltage, float("-inf")):
            by_voltage[voltage] = arrival
            critical[voltage] = slot
    return by_voltage, critical


def assert_same_answer(report, oracle):
    by_voltage, critical = oracle
    assert list(report.by_voltage.items()) == list(by_voltage.items())
    assert list(report.critical_slot.items()) == list(critical.items())


def is_packed(plane):
    """Whether the payload is in dense net-major order as it stands."""
    return plane.packed()[2] is plane.times


def arrays(plane):
    return (plane.initial, plane.counts, plane.starts, plane.times)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("capacity", [2, 3, 4])
@pytest.mark.parametrize("record_all", [False, True])
def test_mixed_batch_equals_dense_roomy_run(circuit, library, kernel_table,
                                            backend, capacity, record_all):
    pairs = mixed_pairs(circuit, 12)
    plan = SlotPlan.cross(len(pairs), VOLTAGES)
    toggles = np.stack([pair.v1 != pair.v2 for pair in pairs])
    lowered = {lowering for _, lowering
               in gpu._lower(toggles[plan.pattern_indices], True, None)}
    assert lowered == {gpu.QUIET, gpu.TRACKED, gpu.DENSE}

    tight = engine(circuit, library, backend, capacity,
                   record_all_nets=record_all)
    result = tight.run(pairs, plan=plan, kernel_table=kernel_table)
    assert tight.last_stats.retries > 0      # rows overflowed
    reference = engine(circuit, library, backend, ROOMY,
                       record_all_nets=record_all, prune_inactive=False).run(
        pairs, plan=plan, kernel_table=kernel_table)
    assert result.plane.nets == reference.plane.nets
    for got, want in zip(result.plane.packed(), reference.plane.packed()):
        np.testing.assert_array_equal(got, want)
    assert result.plane.checksum() == reference.plane.checksum()
    assert (result.plane.latest() == reference.plane.latest()).all()
    assert_same_answer(latest_arrivals(result, circuit, plan),
                       loop_arrivals(result, circuit, plan.voltages.tolist()))


@pytest.mark.parametrize("backend", BACKENDS)
def test_segmented_overflow_stays_packed_and_private(circuit, library,
                                                     kernel_table, backend):
    pairs = mixed_pairs(circuit, 6, seed=1)
    plan = SlotPlan.cross(len(pairs), VOLTAGES)
    segments = Segments([2, 0, plan.num_slots - 3, 1])
    tight = engine(circuit, library, backend, 2, prune_inactive=False)
    result = tight.run(pairs, plan=plan, kernel_table=kernel_table,
                       segments=segments)
    assert tight.last_stats.retries > 0
    reference = engine(circuit, library, backend, ROOMY).run(
        pairs, plan=plan, kernel_table=kernel_table)
    assert len(result.segments) == 4
    for index, (plane, (lo, hi)) in enumerate(zip(
            result.segments, zip(segments.bounds, segments.bounds[1:]))):
        assert is_packed(plane) and plane.layout_intact()
        assert plane.checksum() == reference.plane.take(
            np.arange(lo, hi)).checksum()
        others = [array for other in result.segments[index + 1:]
                  for array in arrays(other)] + list(arrays(result.plane))
        for mine in arrays(plane):
            assert not any(np.shares_memory(mine, other) for other in others
                           if mine.size and other.size)


@pytest.mark.parametrize("backend", BACKENDS)
def test_patched_plane_reads_like_its_copy(circuit, library, kernel_table,
                                           backend):
    pairs = mixed_pairs(circuit, 9, seed=2)
    plan = SlotPlan.cross(len(pairs), VOLTAGES)
    tight = engine(circuit, library, backend, 2, prune_inactive=False,
                   record_all_nets=True)
    plane = tight.run(pairs, plan=plan, kernel_table=kernel_table).plane
    assert tight.last_stats.retries > 0
    assert not is_packed(plane)              # the re-run's columns patched in
    copy = plane.copy()
    assert is_packed(copy) and copy.checksum() == plane.checksum()
    nets = list(circuit.outputs)[::2]
    slots = np.arange(plan.num_slots)[::-3]
    for args in ((), (nets,), (None, slots), (nets, slots)):
        np.testing.assert_array_equal(plane.latest(*args), copy.latest(*args))


def hand_result(voltages, arrivals):
    """A two-output result whose slot ``s`` runs at ``voltages[s]`` and
    toggles last at ``arrivals[s]`` (``None``: no toggle)."""
    waveforms = []
    for arrival in arrivals:
        times = (np.empty(0) if arrival is None
                 else np.array([arrival / 2, arrival]))
        waveforms.append({"o1": Waveform.trusted(0, np.array([1e-12])),
                          "o2": Waveform.trusted(1, times)})
    plane = WaveformPlane.from_waveforms(waveforms, nets=("o1", "o2"))
    labels = [(slot, voltage) for slot, voltage in enumerate(voltages)]
    return SimulationResult(circuit_name="hand", slot_labels=labels,
                            waveforms=plane, runtime_seconds=0.0,
                            gate_evaluations=0, engine="hand")


def test_arrivals_ties_and_silent_supplies():
    circuit = SimpleNamespace(name="hand", outputs=("o2",))
    voltages = [0.9, 0.6, 0.6, 0.9, 1.0, 0.6, 0.9, 0.7]
    arrivals = [None, 5e-12, 7e-12, 3e-12, None, 7e-12, 3e-12, None]
    result = hand_result(voltages, arrivals)
    report = latest_arrivals(result, circuit)
    assert_same_answer(report, loop_arrivals(result, circuit, voltages))
    # The first of two tied slots wins; 1.0 V and 0.7 V never toggled.
    assert report.critical_slot == {0.6: 2, 0.9: 3}
    assert list(report.by_voltage) == [0.6, 0.9]
    # Watching a net that toggles everywhere reports every supply.
    watched = latest_arrivals(result, circuit, nets=["o1"])
    assert_same_answer(watched, loop_arrivals(
        result, SimpleNamespace(outputs=("o1",)), voltages))
    assert watched.critical_slot == {0.9: 0, 0.6: 1, 1.0: 4, 0.7: 7}
