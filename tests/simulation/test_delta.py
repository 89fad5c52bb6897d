"""Bit-identity and accounting contracts of incremental re-simulation.

The delta path (``docs/architecture.md`` §12) must be invisible in the
output: splicing the slots that match a cached :class:`BaseArena`
exactly and simulating the rest must produce waveforms
**bit-identical** to a from-scratch run on every backend, across
multi-voltage slot planes, Monte-Carlo variation, sparse (pruned)
dispatch, polynomial and table delay sources, batch chunking and
overflow-retry capacity growth.

The accounting contract is exact, not approximate: every (gate, slot)
lane is evaluated, skipped or spliced, never two of them and never
dropped — ``gate_evaluations + lanes_skipped + lanes_spliced == gates *
slots``.  A plan that maps a slot onto a base slot it does not match is
refused, not answered with the base's waveforms.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.netlist.generate import random_circuit
from repro.simulation.backend import available_backends
from repro.simulation.base import PatternPair, SimulationConfig
from repro.simulation.compiled import compile_circuit
from repro.simulation.delta import BaseArena, DeltaPlan, select_delta
from repro.simulation.gpu import GpuWaveSim
from repro.simulation.grid import Segments, SlotPlan
from repro.simulation.variation import ProcessVariation
from repro.waveform.plane import WaveformPlane

CONCRETE = available_backends()


@pytest.fixture(scope="module")
def circuit():
    return random_circuit("delta", 12, 200, seed=3)


@pytest.fixture(scope="module")
def compiled(circuit, library):
    return compile_circuit(circuit, library)


def make_pairs(circuit, count, seed):
    rng = np.random.default_rng(seed)
    return [PatternPair.random(len(circuit.inputs), rng)
            for _ in range(count)]


def stack(pairs):
    return (np.stack([p.v1 for p in pairs]),
            np.stack([p.v2 for p in pairs]))


def flip_bits(pairs, flips, seed):
    """Return a copy of ``pairs`` with ``flips`` random v2 bits flipped."""
    rng = np.random.default_rng(seed)
    v1, v2 = stack(pairs)
    v2 = v2.copy()
    width = v1.shape[1]
    for _ in range(flips):
        v2[rng.integers(len(pairs)), rng.integers(width)] ^= 1
    return [PatternPair(v1[i], v2[i]) for i in range(len(pairs))]


def make_engine(circuit, compiled, library, *, backend,
                prune=False, capacity=None, memory_budget=None):
    kwargs = dict(record_all_nets=True, backend=backend,
                  prune_inactive=prune)
    if capacity is not None:
        kwargs["waveform_capacity"] = capacity
    extra = {} if memory_budget is None else {"memory_budget": memory_budget}
    return GpuWaveSim(circuit, library, config=SimulationConfig(**kwargs),
                      compiled=compiled, **extra)


def assert_identical(circuit, reference, result):
    for slot in range(reference.num_slots):
        for net in circuit.nets():
            ref = reference.waveform(slot, net)
            got = result.waveform(slot, net)
            assert got.initial == ref.initial, (slot, net)
            assert got.times.tolist() == ref.times.tolist(), (slot, net)


def capture_and_select(engine, base_pairs, var_pairs, plan, kernel_table,
                       variation, threshold=0.99):
    """Run the base with capture, then select a delta plan for the
    variant against the captured arena."""
    base_result = engine.run(base_pairs, plan=plan,
                             kernel_table=kernel_table, variation=variation,
                             capture_base=True)
    arena = base_result.base_arena
    assert arena is not None
    v1, v2 = stack(var_pairs)
    selected = select_delta([arena], v1, v2, plan.pattern_indices,
                            plan.voltages, None, variation, threshold)
    return base_result, arena, selected


def changed_patterns(base_pairs, var_pairs):
    """Indices of the variant's patterns that differ from the base's."""
    return {index for index, (base, var) in enumerate(zip(base_pairs,
                                                          var_pairs))
            if not (np.array_equal(base.v1, var.v1)
                    and np.array_equal(base.v2, var.v2))}


def assert_splices_only_matches(delta_plan, frac, plan, changed):
    """A slot is mapped iff its pattern is unchanged (one base, the
    same plane), and the fraction is the unmapped share."""
    unmapped = np.isin(plan.pattern_indices, sorted(changed))
    assert ((delta_plan.base_slot < 0) == unmapped).all()
    assert frac == unmapped.sum() / plan.num_slots


def assert_covered(stats, compiled, plan, spliced_slots):
    """Every lane counted once, and the mapped slots' all spliced."""
    assert (stats.gate_evaluations + stats.lanes_skipped
            + stats.lanes_spliced) == compiled.num_gates * plan.num_slots
    assert stats.lanes_spliced == compiled.num_gates * spliced_slots


class TestFullSplice:
    """Zero-diff resubmission: every lane spliced, nothing dispatched."""

    @pytest.mark.parametrize("backend_name", CONCRETE)
    @pytest.mark.parametrize("voltages", [[0.8], [0.6, 0.8, 1.0]])
    def test_zero_diff_splices_everything(self, circuit, compiled, library,
                                          kernel_table, backend_name,
                                          voltages):
        pairs = make_pairs(circuit, 6, seed=21)
        plan = SlotPlan.cross(len(pairs), voltages)
        engine = make_engine(circuit, compiled, library,
                             backend=backend_name)
        base_result, _, selected = capture_and_select(
            engine, pairs, pairs, plan, kernel_table, None)
        assert selected is not None
        delta_plan, frac = selected
        assert frac == 0.0
        assert (delta_plan.base_slot >= 0).all()

        redo = make_engine(circuit, compiled, library, backend=backend_name)
        result = redo.run(pairs, plan=plan, kernel_table=kernel_table,
                          delta=delta_plan)
        assert_identical(circuit, base_result, result)
        stats = redo.last_stats
        assert stats.gate_evaluations == 0
        assert stats.lanes_spliced == compiled.num_gates * plan.num_slots
        assert stats.bytes_spliced > 0
        assert ",delta" in result.engine

    def test_monte_carlo_zero_diff(self, circuit, compiled, library,
                                   kernel_table):
        pairs = make_pairs(circuit, 4, seed=22)
        plan = SlotPlan.cross(len(pairs), [0.6, 1.0])
        variation = ProcessVariation(sigma=0.1, seed=42)
        engine = make_engine(circuit, compiled, library, backend="numpy")
        base_result, _, selected = capture_and_select(
            engine, pairs, pairs, plan, kernel_table, variation)
        assert selected is not None
        redo = make_engine(circuit, compiled, library, backend="numpy")
        result = redo.run(pairs, plan=plan, kernel_table=kernel_table,
                          variation=variation, delta=selected[0])
        assert_identical(circuit, base_result, result)
        assert redo.last_stats.gate_evaluations == 0


def shares_payload(plane, other):
    """Whether any array of ``plane`` overlaps any array of ``other``."""
    def arrays(p):
        return p.initial, p.counts, p.starts, p.times
    return any(np.shares_memory(a, b)
               for a in arrays(plane) for b in arrays(other))


def splice_counters(stats):
    return stats.gate_evaluations, stats.lanes_spliced, stats.bytes_spliced


@pytest.mark.parametrize("backend_name", CONCRETE)
@pytest.mark.parametrize("record_all", [True, False])
class TestSpliceByReference:
    """A run mapping slot-for-slot onto its base, every slot spliced,
    answers with the base's own payload unless it captures a base or
    names segments; every other splice answers with a private copy."""

    def captured(self, circuit, compiled, library, kernel_table,
                 backend_name, record_all, pairs, plan):
        engine = GpuWaveSim(circuit, library, compiled=compiled,
                            config=SimulationConfig(
                                record_all_nets=record_all,
                                backend=backend_name))
        arena = engine.run(pairs, plan=plan, kernel_table=kernel_table,
                           capture_base=True).base_arena
        return engine, arena

    @staticmethod
    def assert_same_waveforms(reference, result):
        assert result.plane.nets == reference.plane.nets
        assert result.plane.checksum() == reference.plane.checksum()
        for slot in range(reference.num_slots):
            for net in reference.plane.nets:
                ref = reference.waveform(slot, net)
                got = result.waveform(slot, net)
                assert got.initial == ref.initial, (slot, net)
                assert got.times.tolist() == ref.times.tolist(), (slot, net)

    def test_identity_splice_returns_the_base_payload(
            self, circuit, compiled, library, kernel_table, backend_name,
            record_all):
        pairs = make_pairs(circuit, 4, seed=51)
        plan = SlotPlan.cross(len(pairs), [0.6, 0.8])
        engine, arena = self.captured(circuit, compiled, library,
                                      kernel_table, backend_name,
                                      record_all, pairs, plan)
        delta = DeltaPlan(arena, np.arange(plan.num_slots, dtype=np.int64))
        result = engine.run(pairs, plan=plan, kernel_table=kernel_table,
                            delta=delta)
        if record_all:
            assert result.plane is arena.plane
        else:
            assert result.plane.times is arena.plane.times
            assert result.plane.num_nets < arena.plane.num_nets
        stats = splice_counters(engine.last_stats)

        reference = engine.run(pairs, plan=plan, kernel_table=kernel_table)
        self.assert_same_waveforms(reference, result)

        # One segment over the same plane takes the copying path.
        copied = engine.run(pairs, plan=plan, kernel_table=kernel_table,
                            delta=delta,
                            segments=Segments([plan.num_slots]))
        assert not shares_payload(copied.plane, arena.plane)
        self.assert_same_waveforms(reference, copied)
        assert splice_counters(engine.last_stats) == stats
        assert stats == (
            0, compiled.num_gates * plan.num_slots,
            int(arena.plane.counts.sum()) * 8
            + compiled.num_nets * plan.num_slots)

    @pytest.mark.parametrize("case", ["permuted", "partial", "extended",
                                      "segments", "capture"])
    def test_other_splices_stay_private(self, circuit, compiled, library,
                                        kernel_table, backend_name,
                                        record_all, case):
        pairs = make_pairs(circuit, 3, seed=52)
        engine, arena = self.captured(
            circuit, compiled, library, kernel_table, backend_name,
            record_all, pairs, SlotPlan.uniform(len(pairs), 0.8))
        base_slot, kwargs = {
            "permuted": ([2, 0, 1], {}),
            "partial": ([0, 1], {}),
            # Every base slot in order, plus one slot run from scratch.
            "extended": ([0, 1, 2, -1], {}),
            "segments": ([0, 1, 2], {"segments": Segments([1, 2])}),
            "capture": ([0, 1, 2], {"capture_base": True}),
        }[case]
        fresh = make_pairs(circuit, 1, seed=53)[0]
        job = [pairs[slot] if slot >= 0 else fresh for slot in base_slot]
        plan = SlotPlan.uniform(len(job), 0.8)
        delta = DeltaPlan(arena, np.asarray(base_slot, dtype=np.int64))
        result = engine.run(job, plan=plan, kernel_table=kernel_table,
                            delta=delta, **kwargs)
        spliced = sum(slot >= 0 for slot in base_slot)
        assert engine.last_stats.lanes_spliced == \
            compiled.num_gates * spliced
        assert not shares_payload(result.plane, arena.plane)
        if case == "capture":
            assert not shares_payload(result.base_arena.plane, arena.plane)
        self.assert_same_waveforms(
            engine.run(job, plan=plan, kernel_table=kernel_table), result)


class TestConeBitIdentity:
    """Mixed splice-plus-run planes: slots whose pattern changed are
    simulated like any slot, the rest are spliced whole — and the
    merged result is bit-identical to a from-scratch run.  (The class
    keeps the name of the cone-of-influence walk it once held to the
    same contract.)"""

    @pytest.mark.parametrize("backend_name", CONCRETE)
    @pytest.mark.parametrize("voltages,variation", [
        ([0.8], None),
        ([0.6, 0.8, 1.0], None),
        ([0.8], ProcessVariation(sigma=0.1, seed=42)),
        ([0.6, 1.0], ProcessVariation(sigma=0.15, seed=7)),
    ])
    def test_single_flip_cone(self, circuit, compiled, library, kernel_table,
                              backend_name, voltages, variation):
        base_pairs = make_pairs(circuit, 6, seed=23)
        var_pairs = flip_bits(base_pairs, 1, seed=24)
        plan = SlotPlan.cross(len(base_pairs), voltages)
        engine = make_engine(circuit, compiled, library,
                             backend=backend_name)
        _, _, selected = capture_and_select(
            engine, base_pairs, var_pairs, plan, kernel_table, variation)
        assert selected is not None
        delta_plan, frac = selected
        changed = changed_patterns(base_pairs, var_pairs)
        assert len(changed) == 1
        assert_splices_only_matches(delta_plan, frac, plan, changed)

        delta_engine = make_engine(circuit, compiled, library,
                                   backend=backend_name)
        delta_result = delta_engine.run(
            var_pairs, plan=plan, kernel_table=kernel_table,
            variation=variation, delta=delta_plan)
        full_engine = make_engine(circuit, compiled, library,
                                  backend=backend_name)
        full_result = full_engine.run(
            var_pairs, plan=plan, kernel_table=kernel_table,
            variation=variation)
        assert_identical(circuit, full_result, delta_result)

        stats = delta_engine.last_stats
        assert_covered(stats, compiled, plan, plan.num_slots - len(voltages))
        assert stats.gate_evaluations > 0

    @pytest.mark.parametrize("backend_name", CONCRETE)
    @pytest.mark.parametrize("seed", [101, 202, 303, 404])
    def test_property_random_variants(self, circuit, compiled, library,
                                      kernel_table, backend_name, seed):
        """Property check: random base/variant pairs with a random
        number of flipped bits stay bit-identical and fully accounted."""
        rng = np.random.default_rng(seed)
        count = int(rng.integers(3, 8))
        base_pairs = make_pairs(circuit, count, seed=seed)
        flips = int(rng.integers(1, 5))
        var_pairs = flip_bits(base_pairs, flips, seed=seed + 1)
        voltages = [0.8] if rng.integers(2) else [0.6, 0.8]
        plan = SlotPlan.cross(count, voltages)
        engine = make_engine(circuit, compiled, library,
                             backend=backend_name)
        _, _, selected = capture_and_select(
            engine, base_pairs, var_pairs, plan, kernel_table, None)
        assert selected is not None
        delta_plan, frac = selected
        changed = changed_patterns(base_pairs, var_pairs)
        assert_splices_only_matches(delta_plan, frac, plan, changed)
        delta_engine = make_engine(circuit, compiled, library,
                                   backend=backend_name)
        delta_result = delta_engine.run(var_pairs, plan=plan,
                                        kernel_table=kernel_table,
                                        delta=delta_plan)
        full_result = make_engine(circuit, compiled, library,
                                  backend=backend_name).run(
            var_pairs, plan=plan, kernel_table=kernel_table)
        assert_identical(circuit, full_result, delta_result)
        assert_covered(delta_engine.last_stats, compiled, plan,
                       int((delta_plan.base_slot >= 0).sum()))

    @pytest.mark.parametrize("backend_name", CONCRETE)
    def test_static_delays(self, circuit, compiled, library, backend_name):
        """The delta path also serves static (nominal SDF) delay mode."""
        base_pairs = make_pairs(circuit, 5, seed=41)
        var_pairs = flip_bits(base_pairs, 1, seed=42)
        plan = SlotPlan.uniform(len(base_pairs), 0.8)
        engine = make_engine(circuit, compiled, library,
                             backend=backend_name)
        _, _, selected = capture_and_select(
            engine, base_pairs, var_pairs, plan, None, None)
        assert selected is not None
        delta_engine = make_engine(circuit, compiled, library,
                                   backend=backend_name)
        delta_result = delta_engine.run(var_pairs, plan=plan,
                                        delta=selected[0])
        full_result = make_engine(circuit, compiled, library,
                                  backend=backend_name).run(var_pairs,
                                                            plan=plan)
        assert_identical(circuit, full_result, delta_result)
        assert_covered(delta_engine.last_stats, compiled, plan,
                       plan.num_slots - 1)

    @pytest.mark.parametrize("lut,prune", [(False, False), (True, True),
                                           (False, True)])
    def test_dispatch_mode_variants(self, circuit, compiled, library,
                                    kernel_table, lut_backend, lut, prune):
        """A precomputed delay table (a model offering only
        ``delays_for_gates``) and sparse dispatch honour the splice
        contract: with pruning, skipped + spliced + evaluated still
        covers every lane."""
        table = lut_backend if lut else kernel_table
        base_pairs = make_pairs(circuit, 5, seed=25)
        var_pairs = flip_bits(base_pairs, 2, seed=26)
        plan = SlotPlan.cross(len(base_pairs), [0.6, 0.8])
        engine = make_engine(circuit, compiled, library, backend="numpy",
                             prune=prune)
        _, _, selected = capture_and_select(
            engine, base_pairs, var_pairs, plan, table, None)
        assert selected is not None
        delta_engine = make_engine(circuit, compiled, library,
                                   backend="numpy", prune=prune)
        delta_result = delta_engine.run(var_pairs, plan=plan,
                                        kernel_table=table,
                                        delta=selected[0])
        full_result = make_engine(circuit, compiled, library,
                                  backend="numpy", prune=prune).run(
            var_pairs, plan=plan, kernel_table=table)
        assert_identical(circuit, full_result, delta_result)
        assert_covered(delta_engine.last_stats, compiled, plan,
                       int((selected[0].base_slot >= 0).sum()))

    def test_chunked_batches(self, circuit, compiled, library, kernel_table):
        """A tiny memory budget splits the plane into several batches;
        the delta plan is sliced per batch and must still be exact."""
        base_pairs = make_pairs(circuit, 8, seed=27)
        var_pairs = flip_bits(base_pairs, 1, seed=28)
        plan = SlotPlan.cross(len(base_pairs), [0.6, 0.8])
        budget = (compiled.num_nets + 1) * 16 * 8 * 4  # ~4 slots per batch
        engine = make_engine(circuit, compiled, library, backend="numpy",
                             memory_budget=budget)
        _, _, selected = capture_and_select(
            engine, base_pairs, var_pairs, plan, kernel_table, None)
        assert selected is not None
        delta_engine = make_engine(circuit, compiled, library,
                                   backend="numpy", memory_budget=budget)
        delta_result = delta_engine.run(var_pairs, plan=plan,
                                        kernel_table=kernel_table,
                                        delta=selected[0])
        assert delta_engine.last_stats.batches > 1
        full_result = make_engine(circuit, compiled, library,
                                  backend="numpy").run(
            var_pairs, plan=plan, kernel_table=kernel_table)
        assert_identical(circuit, full_result, delta_result)
        assert_covered(delta_engine.last_stats, compiled, plan,
                       plan.num_slots - 2)

    def test_overflow_retry_grows_capacity(self, circuit, compiled, library,
                                           kernel_table):
        """The simulated slots of a mixed plane overflow a tight
        capacity and re-run doubled, exactly like a plain run; the
        spliced ones are copied whatever the capacity."""
        base_pairs = make_pairs(circuit, 4, seed=29)
        var_pairs = flip_bits(base_pairs, 1, seed=30)
        plan = SlotPlan.cross(len(base_pairs), [0.8])
        engine = make_engine(circuit, compiled, library, backend="numpy")
        _, arena, selected = capture_and_select(
            engine, base_pairs, var_pairs, plan, kernel_table, None)
        assert selected is not None
        mapped = selected[0].base_slot >= 0
        # The spliced rows do not fit the capacity either.
        assert int(arena.plane.counts[:, mapped].max()) > 2
        delta_engine = make_engine(circuit, compiled, library,
                                   backend="numpy", capacity=2)
        delta_result = delta_engine.run(var_pairs, plan=plan,
                                        kernel_table=kernel_table,
                                        delta=selected[0])
        stats = delta_engine.last_stats
        # The retries are the simulated slot's, as in a run of it alone.
        changed = sorted(changed_patterns(base_pairs, var_pairs))
        alone = make_engine(circuit, compiled, library, backend="numpy",
                            capacity=2)
        alone.run([var_pairs[index] for index in changed],
                  plan=SlotPlan.uniform(len(changed), 0.8),
                  kernel_table=kernel_table)
        assert stats.slots_retried == alone.last_stats.slots_retried > 0
        full_result = make_engine(circuit, compiled, library,
                                  backend="numpy").run(
            var_pairs, plan=plan, kernel_table=kernel_table)
        assert_identical(circuit, full_result, delta_result)
        assert_covered(stats, compiled, plan, int(mapped.sum()))


class TestSelection:
    """The base-selection policy: eligibility, threshold, arena algebra."""

    def test_threshold_fallback(self, circuit, compiled, library,
                                kernel_table):
        """A job the base serves too little of must refuse the delta
        path: here half its patterns are new."""
        base_pairs = make_pairs(circuit, 4, seed=31)
        other_pairs = base_pairs[:2] + make_pairs(circuit, 2, seed=99)
        plan = SlotPlan.cross(len(base_pairs), [0.8])
        engine = make_engine(circuit, compiled, library, backend="numpy")
        result = engine.run(base_pairs, plan=plan, kernel_table=kernel_table,
                            capture_base=True)
        v1, v2 = stack(other_pairs)
        selected = select_delta([result.base_arena], v1, v2,
                                plan.pattern_indices, plan.voltages, None,
                                None, 0.35)
        assert selected is None
        # With the threshold effectively off, the same job is accepted.
        selected = select_delta([result.base_arena], v1, v2,
                                plan.pattern_indices, plan.voltages, None,
                                None, 1.0)
        assert selected is not None
        assert selected[1] == 0.5
        assert selected[0].base_slot.tolist() == [0, 1, -1, -1]

    def test_voltage_eligibility(self, circuit, compiled, library,
                                 kernel_table):
        """A base at different operating points cannot serve any slot."""
        pairs = make_pairs(circuit, 4, seed=32)
        plan = SlotPlan.cross(len(pairs), [0.8])
        engine = make_engine(circuit, compiled, library, backend="numpy")
        result = engine.run(pairs, plan=plan, kernel_table=kernel_table,
                            capture_base=True)
        v1, v2 = stack(pairs)
        shifted = SlotPlan.cross(len(pairs), [0.6])
        selected = select_delta([result.base_arena], v1, v2,
                                shifted.pattern_indices, shifted.voltages,
                                None, None, 0.35)
        assert selected is None

    def test_monte_carlo_global_slot_eligibility(self, circuit, compiled,
                                                 library, kernel_table):
        """Under variation a base slot only matches the same global slot
        (per-die factors derive from it); a shifted plane is refused."""
        pairs = make_pairs(circuit, 4, seed=33)
        plan = SlotPlan.cross(len(pairs), [0.8])
        variation = ProcessVariation(sigma=0.1, seed=42)
        engine = make_engine(circuit, compiled, library, backend="numpy")
        offset = np.arange(plan.num_slots, dtype=np.int64) + 100
        result = engine.run(pairs, plan=plan, kernel_table=kernel_table,
                            variation=variation, global_slots=offset,
                            capture_base=True)
        v1, v2 = stack(pairs)
        # Same stimuli, but job global slots 0..3 vs base 100..103.
        selected = select_delta([result.base_arena], v1, v2,
                                plan.pattern_indices, plan.voltages,
                                None, variation, 0.99)
        assert selected is None
        # Matching global slots are accepted as a full splice.
        selected = select_delta([result.base_arena], v1, v2,
                                plan.pattern_indices, plan.voltages,
                                offset, variation, 0.99)
        assert selected is not None
        assert selected[1] == 0.0
        # Without variation the global-slot pin does not apply.
        selected = select_delta([result.base_arena], v1, v2,
                                plan.pattern_indices, plan.voltages,
                                None, None, 0.99)
        assert selected is not None

    def test_partial_slot_coverage_mixes_paths(self, circuit, compiled,
                                               library, kernel_table):
        """Slots with no eligible base slot (here: a voltage the base
        never ran) simulate from scratch inside the same batch as
        spliced slots, and the merge is bit-identical."""
        base_pairs = make_pairs(circuit, 4, seed=34)
        plan = SlotPlan.cross(len(base_pairs), [0.8])
        engine = make_engine(circuit, compiled, library, backend="numpy")
        base_result = engine.run(base_pairs, plan=plan,
                                 kernel_table=kernel_table,
                                 capture_base=True)
        # Same stimuli, but half the job plane runs at 0.6 V, which the
        # base never visited: those slots are unmapped.
        v1, v2 = stack(base_pairs)
        job_plan = SlotPlan.cross(len(base_pairs), [0.8, 0.6])
        selected = select_delta([base_result.base_arena], v1, v2,
                                job_plan.pattern_indices, job_plan.voltages,
                                None, None, 0.75)
        assert selected is not None
        delta_plan, _ = selected
        mapped = delta_plan.base_slot >= 0
        assert mapped.sum() == 4
        assert (job_plan.voltages[mapped] == 0.8).all()
        delta_engine = make_engine(circuit, compiled, library,
                                   backend="numpy")
        delta_result = delta_engine.run(base_pairs, plan=job_plan,
                                        kernel_table=kernel_table,
                                        delta=delta_plan)
        full_result = make_engine(circuit, compiled, library,
                                  backend="numpy").run(
            base_pairs, plan=job_plan, kernel_table=kernel_table)
        assert_identical(circuit, full_result, delta_result)
        stats = delta_engine.last_stats
        assert stats.lanes_spliced == compiled.num_gates * 4

    def test_newest_base_wins_ties(self, circuit, compiled, library,
                                   kernel_table):
        pairs = make_pairs(circuit, 3, seed=35)
        plan = SlotPlan.cross(len(pairs), [0.8])
        engine = make_engine(circuit, compiled, library, backend="numpy")
        result = engine.run(pairs, plan=plan, kernel_table=kernel_table,
                            capture_base=True)
        first = result.base_arena
        second = engine.run(pairs, plan=plan, kernel_table=kernel_table,
                            capture_base=True).base_arena
        v1, v2 = stack(pairs)
        selected = select_delta([second, first], v1, v2,
                                plan.pattern_indices, plan.voltages,
                                None, None, 0.99)
        assert selected is not None
        assert selected[0].base is second


class TestPlanIsChecked:
    """The engine refuses a plan mapping a slot onto a base slot it
    does not match, naming the slot — the splice would answer it with
    the base's waveforms."""

    def captured(self, circuit, compiled, library, kernel_table,
                 variation=None):
        pairs = make_pairs(circuit, 3, seed=61)
        plan = SlotPlan.cross(len(pairs), [0.6, 0.8])
        engine = make_engine(circuit, compiled, library, backend="numpy")
        arena = engine.run(pairs, plan=plan, kernel_table=kernel_table,
                           variation=variation, capture_base=True).base_arena
        return engine, pairs, plan, arena

    def test_a_different_stimulus_is_refused(self, circuit, compiled,
                                             library, kernel_table):
        engine, pairs, plan, arena = self.captured(circuit, compiled,
                                                   library, kernel_table)
        job = flip_bits(pairs, 1, seed=62)
        changed = changed_patterns(pairs, job).pop()
        identity = DeltaPlan(arena, np.arange(plan.num_slots,
                                              dtype=np.int64))
        slot = int(np.flatnonzero(plan.pattern_indices == changed)[0])
        with pytest.raises(SimulationError, match=f"slot {slot} "):
            engine.run(job, plan=plan, kernel_table=kernel_table,
                       delta=identity)
        # Unmapping the changed pattern's slots makes the plan sound.
        base_slot = np.where(plan.pattern_indices == changed, -1,
                             np.arange(plan.num_slots))
        result = engine.run(job, plan=plan, kernel_table=kernel_table,
                            delta=DeltaPlan(arena, base_slot))
        assert_identical(circuit, engine.run(job, plan=plan,
                                             kernel_table=kernel_table),
                         result)

    def test_a_different_voltage_is_refused(self, circuit, compiled, library,
                                            kernel_table):
        engine, pairs, plan, arena = self.captured(circuit, compiled,
                                                   library, kernel_table)
        # Slot 0 (0.6 V) mapped onto base slot 3 (pattern 0 at 0.8 V).
        base_slot = np.arange(plan.num_slots, dtype=np.int64)
        base_slot[0] = 3
        with pytest.raises(SimulationError, match="slot 0 onto base slot 3"):
            engine.run(pairs, plan=plan, kernel_table=kernel_table,
                       delta=DeltaPlan(arena, base_slot))

    def test_the_global_slot_counts_under_variation(
            self, circuit, compiled, library, kernel_table):
        variation = ProcessVariation(sigma=0.1, seed=5)
        engine, pairs, plan, arena = self.captured(
            circuit, compiled, library, kernel_table, variation)
        # Two runs of one pattern at one supply: same stimulus and
        # voltage, other die factors.
        job_plan = SlotPlan.zip([0, 0], [0.6, 0.6])
        swapped = DeltaPlan(arena, np.array([0, 0], dtype=np.int64))
        with pytest.raises(SimulationError, match="slot 1 onto base slot 0"):
            engine.run(pairs, plan=job_plan, kernel_table=kernel_table,
                       variation=variation, delta=swapped)
        # Without variation the global slot does not matter.
        engine.run(pairs, plan=job_plan, kernel_table=kernel_table,
                   delta=swapped)


def select_delta_per_base(bases, v1, v2, pattern_indices, voltages,
                          global_slots, variation, threshold):
    """The exact-match selection policy as loops over bases, job slots
    and base slots, kept as the oracle of the one-pass ``select_delta``.
    Returns ``(base index, base_slot, frac)`` or ``None``."""
    width = v1.shape[1]
    if not bases or width == 0:
        return None
    pattern_indices = np.asarray(pattern_indices, dtype=np.int64)
    num_slots = pattern_indices.shape[0]
    voltages = np.asarray(voltages, dtype=np.float64)
    if global_slots is None:
        global_slots = np.arange(num_slots, dtype=np.int64)
    best = None
    for index, base in enumerate(bases):
        if base.v1.shape[1] != width or base.v1.shape[0] == 0:
            continue
        base_slot = np.full(num_slots, -1, dtype=np.int64)
        for slot, pattern in enumerate(pattern_indices):
            for row in range(base.v1.shape[0]):
                if (np.array_equal(v1[pattern], base.v1[row])
                        and np.array_equal(v2[pattern], base.v2[row])
                        and voltages[slot] == base.voltages[row]
                        and (variation is None or global_slots[slot]
                             == base.global_slots[row])):
                    base_slot[slot] = row
                    break
        unmapped = int((base_slot < 0).sum())
        if best is None or unmapped < best[0]:
            best = (unmapped, base_slot, index)
    if best is None:
        return None
    unmapped, base_slot, index = best
    frac = unmapped / float(num_slots)
    if frac >= threshold:
        return None
    return index, base_slot, frac


def drawn_ring(seed, width, num_bases, monte_carlo):
    """A job and a ring built to collide: bases copy the job's patterns
    with 0–2 flipped bits (near-duplicates), repeat each other (ties
    between bases) and repeat slots (ties between slots); two supplies
    and four global slots keep eligibility partial; some bases are
    empty, single-slot or of a foreign width."""
    rng = np.random.default_rng(seed)
    num_patterns = int(rng.integers(1, 4))
    v1 = rng.integers(0, 2, size=(num_patterns, width)).astype(np.uint8)
    v2 = rng.integers(0, 2, size=(num_patterns, width)).astype(np.uint8)
    num_slots = int(rng.integers(1, 7))
    supplies = np.array([0.6, 0.8])
    pattern_indices = rng.integers(0, num_patterns, size=num_slots)
    voltages = supplies[rng.integers(0, 2, size=num_slots)]
    global_slots = (rng.integers(0, 4, size=num_slots)
                    if monte_carlo and rng.random() < 0.7 else None)

    def arena(slots, base_width):
        picks = rng.integers(0, num_patterns, size=slots)
        b1 = np.resize(v1[picks], (slots, base_width)).copy()
        b2 = np.resize(v2[picks], (slots, base_width)).copy()
        for plane in (b1, b2):
            for _ in range(int(rng.integers(0, 3))):
                if plane.size:
                    plane[rng.integers(slots), rng.integers(base_width)] ^= 1
        if slots > 1 and rng.random() < 0.5:
            b1[-1], b2[-1] = b1[0], b2[0]
        return BaseArena(
            plane=WaveformPlane.constant(
                ("n",), np.zeros((1, slots), dtype=np.uint8)),
            v1=b1, v2=b2,
            voltages=supplies[rng.integers(0, 2, size=slots)],
            global_slots=rng.integers(0, 4, size=slots))

    bases = []
    for _ in range(num_bases):
        kind = rng.random()
        if bases and kind < 0.25:
            twin = bases[int(rng.integers(len(bases)))]
            bases.append(BaseArena(twin.plane, twin.v1.copy(),
                                   twin.v2.copy(), twin.voltages.copy(),
                                   twin.global_slots.copy()))
        elif kind < 0.35:
            bases.append(arena(0, width))
        elif kind < 0.45:
            bases.append(arena(int(rng.integers(1, 4)), width + 1))
        else:
            bases.append(arena(int(rng.integers(1, 6)), width))
    return bases, v1, v2, pattern_indices, voltages, global_slots


class TestSelectionOracle:
    """The one-pass ``select_delta`` against the per-base loop: same
    base (first minimum), same slot map, same fraction — bit for bit,
    including every tie."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 100_000), width=st.integers(1, 6),
           num_bases=st.integers(1, 6), monte_carlo=st.booleans(),
           threshold=st.sampled_from([0.2, 0.35, 0.6, 1.0, 2.0]))
    def test_matches_the_per_base_loop(self, seed, width, num_bases,
                                       monte_carlo, threshold):
        bases, v1, v2, pattern_indices, voltages, global_slots = \
            drawn_ring(seed, width, num_bases, monte_carlo)
        variation = ProcessVariation(sigma=0.05) if monte_carlo else None
        args = (bases, v1, v2, pattern_indices, voltages, global_slots,
                variation, threshold)
        expected = select_delta_per_base(*args)
        got = select_delta(*args)
        if expected is None:
            assert got is None
            return
        index, base_slot, frac = expected
        plan, got_frac = got
        assert plan.base is bases[index]
        assert plan.base_slot.dtype == np.int64
        assert plan.base_slot.tolist() == base_slot.tolist()
        assert got_frac == frac

    def test_draws_cover_the_hard_cases(self):
        """The generator above really produces ties, refusals, partial
        maps, empty and foreign-width bases (a vacuous oracle passes)."""
        seen = set()
        for seed in range(400):
            monte_carlo = bool(seed % 2)
            bases, v1, v2, idx, volts, slots = drawn_ring(
                seed, 1 + seed % 4, 1 + seed % 6, monte_carlo)
            width = v1.shape[1]
            if any(b.v1.shape[0] == 0 for b in bases):
                seen.add("empty base")
            if any(b.v1.shape[1] != width for b in bases):
                seen.add("foreign width")
            variation = ProcessVariation(sigma=0.05) if monte_carlo else None
            outcome = select_delta_per_base(bases, v1, v2, idx, volts, slots,
                                            variation, 0.6)
            if outcome is None:
                seen.add("refused")
                continue
            index, base_slot, frac = outcome
            seen.add("accepted")
            if (base_slot < 0).any() and (base_slot >= 0).any():
                seen.add("partial map")
            if frac == 0.0:
                seen.add("full splice")
            if index > 0:
                seen.add("later base wins")
            picked = bases[index]
            if any(other is not picked
                   and all(np.array_equal(getattr(other, name),
                                          getattr(picked, name))
                           for name in ("v1", "v2", "voltages",
                                        "global_slots"))
                   for other in bases):
                seen.add("tie between bases")
        assert seen >= {"empty base", "foreign width", "refused", "accepted",
                        "partial map", "full splice", "later base wins",
                        "tie between bases"}
