"""The quiet settle and the in-place answer of mixed batches.

Slots whose pattern launches no transition are settled without an arena
(``ComputeBackend.settle``): once per pattern they name, bit-sliced 64
vectors to a word in the C backend, a byte plane swept level by level in
the numpy reference, and only the wanted rows unpacked, straight into
the columns of the batch's answer.  Two properties pin that down:

* the native settle equals the numpy settle and the bit-parallel
  ``ZeroDelaySimulator`` response over random circuits using every
  library arity, for vector counts around the 64-bit word edges and
  with all nets or the outputs only;
* a plane mixing every lowering — quiet, tracked and dense patterns
  under three supplies, two patterns sharing their ``v1`` row, a slot
  whose rows overflow and a slot spliced from a base — is bit-identical
  to a ``prune_inactive=False`` run, and its lane counters equal those
  of the same plane at a roomy capacity and on every backend.
"""

import numpy as np
import pytest

from repro.netlist.generate import random_circuit
from repro.simulation.backend import available_backends, resolve_backend
from repro.simulation.base import PatternPair, SimulationConfig
from repro.simulation.compiled import compile_circuit
from repro.simulation.delta import DeltaPlan
from repro.simulation import gpu
from repro.simulation.gpu import GpuWaveSim
from repro.simulation.grid import SlotPlan
from repro.simulation.zero_delay import ZeroDelaySimulator

BACKENDS = available_backends()
VOLTAGES = (0.6, 0.8, 1.0)
ROOMY = 128


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("num_vectors", [1, 63, 64, 65, 130])
@pytest.mark.parametrize("record_all", [False, True])
def test_settle_matches_zero_delay(library, seed, num_vectors, record_all):
    circuit = random_circuit("settle", 9, 220, seed=seed)
    compiled = compile_circuit(circuit, library)
    arities = {library[name].num_inputs for name in library.names()}
    assert set(compiled.gate_arity.tolist()) == arities
    rng = np.random.default_rng(seed)
    width = len(circuit.inputs)
    # More pattern rows than are settled, some repeated: the settle
    # reads only the rows it is given.
    v1 = rng.integers(0, 2, size=(num_vectors + 7, width), dtype=np.uint8)
    patterns = rng.permutation(v1.shape[0])[:num_vectors]
    nets = (compiled.result_nets(True) if record_all
            else list(circuit.outputs))
    rows = None if record_all else np.asarray(
        [compiled.net_index[net] for net in nets], dtype=np.int64)
    # Every vector lands in two columns of a wider answer, in a
    # shuffled order; the other columns stay as they were.
    vectors = rng.permutation(np.repeat(np.arange(num_vectors), 2))
    num_cols = vectors.size + 5
    cols = rng.permutation(num_cols)[:vectors.size]

    answers = {}
    for name in BACKENDS:
        out = np.full((len(nets), num_cols), 7, dtype=np.uint8)
        resolve_backend(name).settle(compiled.plans(), v1, patterns,
                                     compiled.num_nets, rows, vectors, out,
                                     cols)
        untouched = np.setdiff1d(np.arange(num_cols), cols)
        assert (out[:, untouched] == 7).all()
        answers[name] = out[:, cols]
    expected = ZeroDelaySimulator(circuit, library).evaluate(
        v1[patterns], nets)
    want = np.stack([expected[net] for net in nets])[:, vectors]
    for name, got in answers.items():
        np.testing.assert_array_equal(got, want, err_msg=name)


@pytest.mark.skipif("cext" not in BACKENDS, reason="needs the C backend")
def test_native_settle_refuses_what_it_cannot_index(library):
    circuit = random_circuit("settle", 4, 30, seed=1)
    compiled = compile_circuit(circuit, library)
    v1 = np.zeros((2, 4), dtype=np.uint8)
    out = np.zeros((1, 3), dtype=np.uint8)
    one = np.zeros(1, dtype=np.int64)
    backend = resolve_backend("cext")
    for rows, vectors, cols in (
            (np.array([compiled.num_nets + 1]), one, one),   # no such net
            (np.array([0]), one + 1, one),                   # no such vector
            (np.array([0]), one, one + 3)):                  # no such column
        with pytest.raises(ValueError):
            backend.settle(compiled.plans(), v1, one, compiled.num_nets,
                           rows, vectors, out, cols)


# -- a plane that lowers every way -------------------------------------------------


def mixed_pairs(circuit, seed=0):
    """Quiet, lane-tracked and dense patterns; pattern 4 repeats
    pattern 1's ``v1`` row (quiet beside tracked), pattern 5 repeats
    pattern 0 (quiet twice)."""
    rng = np.random.default_rng(seed)
    width = len(circuit.inputs)

    def flipped(v1, count):
        v2 = v1.copy()
        v2[rng.choice(width, size=count, replace=False)] ^= 1
        return v2

    rows = [rng.integers(0, 2, size=width, dtype=np.uint8) for _ in range(4)]
    return [PatternPair(rows[0], rows[0].copy()),          # quiet
            PatternPair(rows[1], flipped(rows[1], 1)),      # tracked
            PatternPair(rows[2], flipped(rows[2], width // 2)),   # dense
            PatternPair(rows[3], flipped(rows[3], width)),  # dense
            PatternPair(rows[1], rows[1].copy()),           # quiet, row 1
            PatternPair(rows[0], rows[0].copy())]           # quiet, row 0


def engine(circuit, library, backend, capacity, **config):
    return GpuWaveSim(circuit, library, config=SimulationConfig(
        backend=backend, waveform_capacity=capacity, **config))


def counters(stats):
    return stats.gate_evaluations, stats.lanes_skipped, stats.lanes_spliced


@pytest.mark.parametrize("record_all", [False, True])
def test_mixed_plane_is_bit_identical_to_dense(library, kernel_table,
                                               record_all):
    circuit = random_circuit("mixed", 12, 300, seed=5)
    pairs = mixed_pairs(circuit)
    plan = SlotPlan.cross(len(pairs), VOLTAGES)
    reference = engine(circuit, library, BACKENDS[0], ROOMY,
                       record_all_nets=record_all,
                       prune_inactive=False).run(
        pairs, plan=plan, kernel_table=kernel_table)
    # Capacity 2 makes some dense slots overflow and re-run; slot 2 (a
    # dense pattern) is spliced from a base captured at the same plane.
    base = engine(circuit, library, BACKENDS[0], ROOMY,
                  record_all_nets=record_all).run(
        pairs, plan=plan, kernel_table=kernel_table,
        capture_base=True).base_arena
    base_slot = np.full(plan.num_slots, -1, dtype=np.int64)
    base_slot[2] = 2
    delta = DeltaPlan(base, base_slot)
    toggles = np.stack([pair.v1 != pair.v2 for pair in pairs])
    assert {lowering for _, lowering in gpu._lower(
        toggles, True, delta, plan.pattern_indices)} == {
            gpu.QUIET, gpu.TRACKED, gpu.DENSE, gpu.SPLICE}

    seen = set()
    for backend in BACKENDS:
        for capacity in (2, ROOMY):
            sim = engine(circuit, library, backend, capacity,
                         record_all_nets=record_all)
            result = sim.run(pairs, plan=plan, kernel_table=kernel_table,
                             delta=delta)
            stats = sim.last_stats
            assert (stats.retries > 0) == (capacity == 2)
            assert result.plane.nets == reference.plane.nets
            for got, want in zip(result.plane.packed(),
                                 reference.plane.packed()):
                np.testing.assert_array_equal(got, want)
            assert result.plane.checksum() == reference.plane.checksum()
            np.testing.assert_array_equal(result.plane.latest(),
                                          reference.plane.latest())
            seen.add(counters(stats))
    (evaluated, skipped, spliced), = seen
    num_gates = len(circuit.gates)
    assert spliced == num_gates
    # Three quiet patterns under three supplies settle every lane.
    assert skipped >= 3 * len(VOLTAGES) * num_gates
    assert evaluated + skipped + spliced == num_gates * plan.num_slots
