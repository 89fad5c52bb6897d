"""Activity-driven sparse evaluation: correctness and accounting.

The contract under test (`gpu.py` module docstring): with
``prune_inactive=True`` the engine dispatches only lanes whose inputs
carry at least one surviving toggle; quiet lanes receive their settled
value from a vectorized truth-table lookup.  Pruning must be **bit
identical** to dense evaluation on every backend — it changes
accounting and throughput, never waveforms — and the lane counters must
be deterministic: ``gate_evaluations + lanes_skipped`` equals the dense
lane count regardless of backend or chunking.
"""

import numpy as np
import pytest

from repro.netlist.generate import random_circuit
from repro.simulation.base import PatternPair, SimulationConfig
from repro.simulation.compiled import compile_circuit
from repro.simulation.gpu import GpuWaveSim, _ArenaPool
from repro.simulation.backend import available_backends
from repro.simulation.grid import SlotPlan
from repro.simulation.variation import ProcessVariation

CONCRETE = available_backends()


def make_pairs(circuit, count, seed=0):
    rng = np.random.default_rng(seed)
    return [PatternPair.random(len(circuit.inputs), rng) for _ in range(count)]


def quiet_pairs(circuit, count, seed=0):
    """Pairs with v2 == v1: zero launched toggles on every input."""
    rng = np.random.default_rng(seed)
    vectors = rng.integers(0, 2, size=(count, len(circuit.inputs)))
    return [PatternPair(v, v.copy()) for v in vectors]


def single_toggle_pairs(circuit, count, seed=0):
    """Pairs toggling exactly one input: the toggle fraction sits below
    the lane-tracking threshold, so these slots exercise the activity
    mask and the backends' lane-compaction entry path."""
    rng = np.random.default_rng(seed)
    width = len(circuit.inputs)
    pairs = []
    for i in range(count):
        v1 = rng.integers(0, 2, size=width).astype(np.uint8)
        v2 = v1.copy()
        v2[i % width] ^= 1
        pairs.append(PatternPair(v1, v2))
    return pairs


def toggle_all_pairs(circuit, count):
    """Pairs where every single input toggles."""
    width = len(circuit.inputs)
    pairs = []
    for i in range(count):
        v1 = np.full(width, i % 2, dtype=np.uint8)
        pairs.append(PatternPair(v1, 1 - v1))
    return pairs


def assert_identical(reference, candidate, num_slots, nets):
    for slot in range(num_slots):
        for net in nets:
            wa = reference.waveform(slot, net)
            wb = candidate.waveform(slot, net)
            assert wa.initial == wb.initial, (slot, net)
            # Bit-identical: list equality on raw float64, no tolerance.
            assert wa.times.tolist() == wb.times.tolist(), (slot, net)


def run_engine(circuit, compiled, library, pairs, *, backend, prune,
               plan=None, kernel_table=None, variation=None, capacity=None):
    kwargs = dict(record_all_nets=True, backend=backend,
                  prune_inactive=prune)
    if capacity is not None:
        kwargs["waveform_capacity"] = capacity
    sim = GpuWaveSim(circuit, library, config=SimulationConfig(**kwargs),
                     compiled=compiled)
    result = sim.run(pairs, plan=plan, kernel_table=kernel_table,
                     variation=variation)
    return result, sim.last_stats


class TestBitIdentity:
    """Sparse output must equal dense output bit for bit, per backend."""

    @pytest.mark.parametrize("backend_name", CONCRETE)
    def test_static_mixed_activity(self, library, backend_name):
        circuit = random_circuit("sparse_s", 8, 150, seed=21)
        compiled = compile_circuit(circuit, library)
        # Mix of all three slot classes: dense (random pairs), lane
        # tracked (single-toggle pairs) and quiet.
        pairs = (make_pairs(circuit, 4, 21) +
                 single_toggle_pairs(circuit, 4, 23) +
                 quiet_pairs(circuit, 4, 22))
        dense, dstats = run_engine(circuit, compiled, library, pairs,
                                   backend=backend_name, prune=False)
        sparse, sstats = run_engine(circuit, compiled, library, pairs,
                                    backend=backend_name, prune=True)
        assert_identical(dense, sparse, len(pairs), circuit.nets())
        assert sstats.lanes_skipped > 0
        assert sstats.gate_evaluations + sstats.lanes_skipped == \
            dstats.gate_evaluations

    @pytest.mark.parametrize("backend_name", CONCRETE)
    def test_parametric_multi_voltage(self, library, kernel_table,
                                      backend_name):
        circuit = random_circuit("sparse_v", 8, 120, seed=5)
        compiled = compile_circuit(circuit, library)
        pairs = (make_pairs(circuit, 3, 5) +
                 single_toggle_pairs(circuit, 3, 7) +
                 quiet_pairs(circuit, 3, 6))
        plan = SlotPlan.cross(len(pairs), [0.6, 0.8, 1.0])
        dense, _ = run_engine(circuit, compiled, library, pairs,
                              backend=backend_name, prune=False,
                              plan=plan, kernel_table=kernel_table)
        sparse, sstats = run_engine(circuit, compiled, library, pairs,
                                    backend=backend_name, prune=True,
                                    plan=plan, kernel_table=kernel_table)
        assert_identical(dense, sparse, plan.num_slots, circuit.nets())
        assert sstats.lanes_skipped > 0

    @pytest.mark.parametrize("backend_name", CONCRETE)
    def test_monte_carlo_variation(self, library, kernel_table,
                                   backend_name):
        circuit = random_circuit("sparse_mc", 8, 120, seed=9)
        compiled = compile_circuit(circuit, library)
        pairs = (make_pairs(circuit, 2, 9) +
                 single_toggle_pairs(circuit, 2, 11) +
                 quiet_pairs(circuit, 2, 10))
        variation = ProcessVariation(sigma=0.1, seed=42)
        dense, _ = run_engine(circuit, compiled, library, pairs,
                              backend=backend_name, prune=False,
                              kernel_table=kernel_table,
                              variation=variation)
        sparse, _ = run_engine(circuit, compiled, library, pairs,
                               backend=backend_name, prune=True,
                               kernel_table=kernel_table,
                               variation=variation)
        assert_identical(dense, sparse, len(pairs), circuit.nets())

    @pytest.mark.parametrize("backend_name", CONCRETE)
    def test_overflow_retry_path(self, library, backend_name):
        """Capacity-doubling retries discard the arena; pruning must
        not leak activity state from the abandoned attempt."""
        circuit = random_circuit("sparse_o", 12, 200, seed=6)
        compiled = compile_circuit(circuit, library)
        pairs = (make_pairs(circuit, 4, 6) +
                 single_toggle_pairs(circuit, 2, 8) +
                 quiet_pairs(circuit, 2, 7))
        dense, _ = run_engine(circuit, compiled, library, pairs,
                              backend=backend_name, prune=False,
                              capacity=2)
        sparse, sstats = run_engine(circuit, compiled, library, pairs,
                                    backend=backend_name, prune=True,
                                    capacity=2)
        assert sstats.retries >= 1, "workload must exercise the retry"
        assert_identical(dense, sparse, len(pairs), circuit.nets())


class TestLaneCompaction:
    """Single-toggle stimuli: every slot is lane-tracked (no quiet
    slots), so all skipped lanes come from the per-level activity mask
    and the backends' lane-restricted ``run_level`` path runs."""

    @pytest.mark.parametrize("backend_name", CONCRETE)
    def test_partial_activity_within_slots(self, library, backend_name):
        circuit = random_circuit("sparse_l", 8, 150, seed=17)
        compiled = compile_circuit(circuit, library)
        pairs = single_toggle_pairs(circuit, 8, 17)
        dense, dstats = run_engine(circuit, compiled, library, pairs,
                                   backend=backend_name, prune=False)
        sparse, sstats = run_engine(circuit, compiled, library, pairs,
                                    backend=backend_name, prune=True)
        assert 0 < sstats.gate_evaluations < dstats.gate_evaluations
        assert sstats.lanes_skipped > 0
        assert sstats.gate_evaluations + sstats.lanes_skipped == \
            dstats.gate_evaluations
        assert_identical(dense, sparse, len(pairs), circuit.nets())


class TestActivityExtremes:
    @pytest.mark.parametrize("backend_name", CONCRETE)
    def test_zero_toggle_stimulus(self, library, backend_name):
        """A stimulus with no launched transition settles the whole
        circuit through the truth-table path: zero lanes dispatched."""
        circuit = random_circuit("sparse_z", 8, 100, seed=3)
        compiled = compile_circuit(circuit, library)
        pairs = quiet_pairs(circuit, 5, 3)
        dense, dstats = run_engine(circuit, compiled, library, pairs,
                                   backend=backend_name, prune=False)
        sparse, sstats = run_engine(circuit, compiled, library, pairs,
                                    backend=backend_name, prune=True)
        assert sstats.gate_evaluations == 0
        assert sstats.lanes_skipped == dstats.gate_evaluations
        assert sstats.active_fraction == 0.0
        assert_identical(dense, sparse, len(pairs), circuit.nets())

    @pytest.mark.parametrize("backend_name", CONCRETE)
    def test_all_toggle_stimulus(self, library, backend_name):
        """Every input toggles: the slots classify as dense and run the
        plain path — pruning adds no overhead and changes nothing."""
        circuit = random_circuit("sparse_a", 8, 100, seed=4)
        compiled = compile_circuit(circuit, library)
        pairs = toggle_all_pairs(circuit, 4)
        dense, dstats = run_engine(circuit, compiled, library, pairs,
                                   backend=backend_name, prune=False)
        sparse, sstats = run_engine(circuit, compiled, library, pairs,
                                    backend=backend_name, prune=True)
        assert sstats.gate_evaluations + sstats.lanes_skipped == \
            dstats.gate_evaluations
        assert sstats.gate_evaluations > 0
        assert_identical(dense, sparse, len(pairs), circuit.nets())


class TestStatsDeterminism:
    def test_counters_backend_invariant(self, library):
        """The activity mask is derived from arena contents that are
        bit-identical across backends, so the lane split must agree."""
        circuit = random_circuit("sparse_d", 8, 130, seed=12)
        compiled = compile_circuit(circuit, library)
        pairs = (make_pairs(circuit, 4, 12) +
                 single_toggle_pairs(circuit, 4, 16) +
                 quiet_pairs(circuit, 4, 13))
        splits = set()
        for name in CONCRETE:
            _, stats = run_engine(circuit, compiled, library, pairs,
                                  backend=name, prune=True)
            splits.add((stats.gate_evaluations, stats.lanes_skipped))
        assert len(splits) == 1

    def test_kernel_iterations_prune_invariant(self, library):
        """Skipped lanes contribute zero iterations in dense mode too
        (they converge instantly), so total iterations of *dispatched*
        work cannot be told apart — but gate_evaluations can."""
        circuit = random_circuit("sparse_i", 8, 130, seed=14)
        compiled = compile_circuit(circuit, library)
        pairs = (make_pairs(circuit, 3, 14) +
                 single_toggle_pairs(circuit, 3, 18) +
                 quiet_pairs(circuit, 3, 15))
        _, dense = run_engine(circuit, compiled, library, pairs,
                              backend="numpy", prune=False)
        _, sparse = run_engine(circuit, compiled, library, pairs,
                               backend="numpy", prune=True)
        assert sparse.gate_evaluations < dense.gate_evaluations
        assert sparse.gate_evaluations + sparse.lanes_skipped == \
            dense.gate_evaluations
        assert dense.lanes_skipped == 0
        assert dense.active_fraction == 1.0
        assert 0.0 < sparse.active_fraction < 1.0


#: Reset rows that name every net row of an arena.
ALL = slice(None)


class TestArenaPool:
    def test_buffers_reused_across_acquires(self):
        pool = _ArenaPool()
        t1, i1 = pool.acquire(10, 4, 8, ALL)
        assert t1.shape == (10, 4, 8) and i1.shape == (10, 4)
        assert np.all(np.isinf(t1)) and np.all(i1 == 0)
        t1[3, 2, 1] = 7.5
        i1[3, 2] = 1
        t2, i2 = pool.acquire(10, 4, 8, ALL)
        # Same backing memory, reset in place.
        assert t2.base is t1.base or t2 is t1
        assert np.all(np.isinf(t2)) and np.all(i2 == 0)

    def test_growth_and_shrink(self):
        pool = _ArenaPool()
        small_t, _ = pool.acquire(4, 2, 2, ALL)
        big_t, big_i = pool.acquire(16, 8, 4, ALL)
        assert big_t.shape == (16, 8, 4)
        assert np.all(np.isinf(big_t)) and np.all(big_i == 0)
        again_t, again_i = pool.acquire(4, 2, 2, ALL)
        assert again_t.shape == (4, 2, 2)
        assert np.all(np.isinf(again_t)) and np.all(again_i == 0)

    def test_toggle_buffer_is_a_private_mapping(self):
        """Off the malloc heap (regrowth and teardown return the pages
        to the OS), writable, and released with its last view."""
        import mmap
        import weakref

        pool = _ArenaPool()
        times, _ = pool.acquire(6, 3, 4, ALL)
        assert isinstance(pool._times.base.obj, mmap.mmap)
        assert times.flags.writeable and times.flags.c_contiguous
        times[5, 2, 3] = 1.25
        assert pool._times[6 * 3 * 4 - 1] == 1.25
        gone = weakref.ref(pool._times)
        pool.acquire(60, 30, 4, ALL)  # regrow: the old mapping has no owner
        del times
        assert gone() is None

    def test_engine_reuses_pool_between_runs(self, library):
        circuit = random_circuit("sparse_p", 6, 60, seed=2)
        sim = GpuWaveSim(circuit, library,
                         config=SimulationConfig(backend="numpy"))
        pairs = make_pairs(circuit, 3, 2)
        first = sim.run(pairs)
        buffer_id = id(sim._arena_pool._times)
        second = sim.run(pairs)
        assert id(sim._arena_pool._times) == buffer_id
        assert_identical(first, second, len(pairs), circuit.outputs)
