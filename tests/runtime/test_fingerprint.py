"""Tests for the shared fingerprint module (service cache + checkpoints).

``campaign_fingerprint`` determinism/sensitivity is covered by
``test_checkpoint.py``; this file covers what the extraction added: the
service-facing identities and the compatibility key the batcher groups
by — and the digest contract itself: hex digests pinned for hand-written
inputs (the campaign digest is stored in checkpoint manifests and the
circuit / compatibility digests cross the shard pipe, so they may never
move), and the per-object memos behind them (a forked ``feed_compiled``
prefix, a memoized compatibility state) checked against the plain
feed-everything composition.  ``job_fingerprint`` is the one identity
that never leaves the process: a fork of the compatibility state plus
the job's stimuli and plan, held here to "decided by the same fields as
the campaign digest, hashed from per-job bytes only".
"""

import copy
import gc
import sys
import threading
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

import repro.runtime.fingerprint as fingerprint_module
from repro.core.delay_kernel import DelayKernelTable
from repro.core.parameters import ParameterSpace
from repro.netlist.generate import random_circuit
from repro.runtime.fingerprint import (
    Fingerprinter,
    campaign_fingerprint,
    circuit_fingerprint,
    compatibility_fingerprint,
    feed_compiled,
    feed_config,
    feed_kernel_table,
    feed_plan,
    feed_stimuli,
    feed_variation,
    job_fingerprint,
    job_identity,
)
from repro.simulation.base import PatternPair, SimulationConfig
from repro.simulation.compiled import compile_circuit
from repro.simulation.grid import SlotPlan
from repro.simulation.variation import (
    ProcessVariation,
    StateDependentVariation,
)


@pytest.fixture(scope="module")
def compiled(library):
    return compile_circuit(random_circuit("fp", 8, 60, seed=2), library)


@pytest.fixture(scope="module")
def other_compiled(library):
    return compile_circuit(random_circuit("fp2", 8, 60, seed=3), library)


class TestFingerprinter:
    def test_framing_separates_boundaries(self):
        # (b"ab", b"c") and (b"a", b"bc") must not collide: each feed is
        # framed with its tag and an 8-byte length.
        one = Fingerprinter()
        one.feed("x", b"ab")
        one.feed("y", b"c")
        two = Fingerprinter()
        two.feed("x", b"a")
        two.feed("y", b"bc")
        assert one.hexdigest() != two.hexdigest()

    def test_array_feed_covers_dtype(self):
        as_i64 = Fingerprinter()
        as_i64.feed_array("a", np.arange(4, dtype=np.int64))
        as_i32 = Fingerprinter()
        as_i32.feed_array("a", np.arange(4, dtype=np.int32))
        assert as_i64.hexdigest() != as_i32.hexdigest()


class TestIdentities:
    def test_job_fingerprint_follows_the_campaign_fields(self, compiled,
                                                         other_compiled):
        """The job digest is its own composition, never a campaign or
        compatibility digest of the same state, and moves with exactly
        the fields the campaign digest moves with."""
        rng = np.random.default_rng(4)
        pairs = [PatternPair.random(8, rng) for _ in range(2)]
        plan = SlotPlan.cross(2, [0.6, 0.8])
        config = SimulationConfig()
        table = small_table()
        variation = ProcessVariation(sigma=0.05, seed=1)
        args = (compiled, pairs, plan, config, table, variation)
        job = job_fingerprint(*args)
        assert job == job_fingerprint(*args)
        assert job != campaign_fingerprint(*args)
        assert job not in {
            compatibility_fingerprint(compiled, config, table, variation),
            compatibility_fingerprint(compiled, config, table, variation,
                                      static_voltages=plan.voltages),
            compatibility_fingerprint(compiled, config, None, variation,
                                      static_voltages=plan.voltages)}

        flipped = [PatternPair(p.v1, p.v2 ^ 1) for p in pairs]
        variants = {
            "circuit": (other_compiled,) + args[1:],
            "stimuli": (compiled, flipped) + args[2:],
            "plan_voltages": (compiled, pairs, SlotPlan.cross(2, [0.6, 0.9]),
                              config, table, variation),
            "plan_patterns": (compiled, pairs, SlotPlan.uniform(2, 0.6),
                              config, table, variation),
            "config": (compiled, pairs, plan,
                       SimulationConfig(record_all_nets=True), table,
                       variation),
            "table": args[:4] + (small_table(scale=32.0), variation),
            "no_table": args[:4] + (None, variation),
            "variation": args[:5] + (ProcessVariation(sigma=0.05, seed=2),),
            "no_variation": args[:5] + (None,),
            # Neither digest sees an operational knob or object identity.
            "backend": (compiled, pairs, plan,
                        SimulationConfig(backend="numpy"), table, variation),
            "equal_table": args[:4] + (small_table(), variation),
            "equal_pairs": (compiled, [PatternPair(p.v1.copy(), p.v2.copy())
                                       for p in pairs]) + args[2:],
        }
        campaign = campaign_fingerprint(*args)
        for name, other in variants.items():
            moved = name not in ("backend", "equal_table", "equal_pairs")
            assert (campaign_fingerprint(*other) != campaign) == moved, name
            assert (job_fingerprint(*other) != job) == moved, name
        assert len({job_fingerprint(*other)
                    for other in variants.values()}) == 10

    def test_circuit_fingerprint_distinguishes_circuits(self, compiled,
                                                        other_compiled):
        assert circuit_fingerprint(compiled) == circuit_fingerprint(compiled)
        assert circuit_fingerprint(compiled) != \
            circuit_fingerprint(other_compiled)


class TestCompatibilityKey:
    def test_same_inputs_same_key(self, compiled):
        config = SimulationConfig()
        assert compatibility_fingerprint(compiled, config, None, None) == \
            compatibility_fingerprint(compiled, config, None, None)

    def test_circuit_and_config_split_groups(self, compiled, other_compiled):
        config = SimulationConfig()
        base = compatibility_fingerprint(compiled, config, None, None)
        assert compatibility_fingerprint(other_compiled, config,
                                         None, None) != base
        assert compatibility_fingerprint(
            compiled, SimulationConfig(record_all_nets=True),
            None, None) != base

    def test_static_mode_splits_distinct_voltages(self, compiled):
        config = SimulationConfig()
        at_08 = compatibility_fingerprint(
            compiled, config, None, None,
            static_voltages=np.full(4, 0.8))
        at_06 = compatibility_fingerprint(
            compiled, config, None, None,
            static_voltages=np.full(4, 0.6))
        assert at_08 != at_06
        # Slot multiplicity does not matter, only the distinct values.
        assert compatibility_fingerprint(
            compiled, config, None, None,
            static_voltages=np.full(9, 0.8)) == at_08

    def test_parametric_mode_ignores_voltages(self, compiled, kernel_table):
        config = SimulationConfig()
        base = compatibility_fingerprint(compiled, config, kernel_table,
                                         None, static_voltages=None)
        assert compatibility_fingerprint(compiled, config, kernel_table,
                                         None, static_voltages=None) == base

    def test_variation_splits_groups(self, compiled, kernel_table):
        from repro.simulation.variation import ProcessVariation

        config = SimulationConfig()
        base = compatibility_fingerprint(compiled, config, kernel_table, None)
        varied = compatibility_fingerprint(
            compiled, config, kernel_table, ProcessVariation(sigma=0.05))
        assert base != varied


class TestBackendDoesNotSplitIdentity:
    def test_backend_outside_fingerprint(self, compiled):
        rng = np.random.default_rng(0)
        pairs = [PatternPair.random(len(compiled.circuit.inputs), rng)
                 for _ in range(2)]
        from repro.simulation.grid import SlotPlan
        plan = SlotPlan.uniform(2, 0.8)
        a = job_fingerprint(compiled, pairs, plan,
                            SimulationConfig(backend="numpy"), None, None)
        b = job_fingerprint(compiled, pairs, plan,
                            SimulationConfig(backend=None), None, None)
        assert a == b


def plain_job_digest(compiled, pairs, plan, config, kernel_table, variation):
    """The job composition, every field fed per call (no memo): the
    compatibility state, then the job's own bytes."""
    fp = Fingerprinter()
    feed_compiled(fp, compiled)
    feed_config(fp, config)
    feed_kernel_table(fp, kernel_table)
    feed_variation(fp, variation)
    feed_stimuli(fp, pairs)
    feed_plan(fp, plan)
    return fp.hexdigest()


def plain_compat_digest(compiled, config, kernel_table, variation):
    fp = Fingerprinter()
    feed_compiled(fp, compiled)
    feed_config(fp, config)
    feed_kernel_table(fp, kernel_table)
    feed_variation(fp, variation)
    return fp.hexdigest()


def small_table(scale=64.0):
    return DelayKernelTable(
        coefficients=np.arange(48, dtype=np.float64).reshape(3, 2, 2, 2, 2)
        / scale,
        pin_counts=np.array([1, 2, 2]),
        type_names=("INV_X1", "NAND2_X1", "NOR2_X1"),
        space=ParameterSpace.paper_default())


class PinnedCompiled:
    """Exactly the attributes ``feed_compiled`` reads, hand-written so
    the pinned digests depend on the feed contract alone — not on the
    netlist generator or the library's delay numbers."""

    def __init__(self):
        self.circuit = SimpleNamespace(
            name="pinned", inputs=["a", "b", "c"], outputs=["y", "z"])
        self.gate_type_ids = np.array([2, 0, 1], dtype=np.int64)
        self.gate_inputs = np.array([[0, 1], [3, -1], [4, 2]],
                                    dtype=np.int64)
        self.nominal_delays = (
            np.arange(12, dtype=np.float64).reshape(3, 2, 2) + 1.0) * 2.5e-12


class TestDigestContract:
    """Hex digests recorded at the commit before the prefix was forked
    (feeding every field per call).  A mismatch here means existing
    checkpoint directories stop resuming and shard group keys move.
    The job digest is the exception: it lives in memory only, and its
    pin (re-recorded when it stopped being the campaign digest) holds
    the composition still, not a stored format."""

    @pytest.fixture(scope="class")
    def pinned(self):
        bits = (np.arange(18).reshape(3, 2, 3) * 7 % 5 % 2).astype(np.uint8)
        return SimpleNamespace(
            compiled=PinnedCompiled(),
            pairs=[PatternPair(row[0], row[1]) for row in bits],
            plan=SlotPlan.cross(3, [0.6, 0.8]),
            config=SimulationConfig(pulse_filtering="transport",
                                    record_all_nets=True),
            table=small_table(),
            plain=ProcessVariation(sigma=0.05, seed=3),
            state=StateDependentVariation(
                sigma=0.05, seed=3, voltage_sensitivity=1.5, v_ref=0.8,
                slot_voltages=(0.6, 0.8, 0.6, 0.8, 0.6, 0.8)))

    def test_circuit_fingerprint(self, pinned):
        assert circuit_fingerprint(pinned.compiled) == (
            "2b5e87ae99dba21525b23299a6ca2ffa"
            "0c4d656cc4a0e898e2ce7847331ebcb1")

    def test_campaign_fingerprint(self, pinned):
        assert campaign_fingerprint(
            pinned.compiled, pinned.pairs, pinned.plan, SimulationConfig(),
            None, None) == (
            "659ac16e3868fbdc3effb7143d263d51"
            "28c694303af7ac5706d1fe076c82b405")
        assert campaign_fingerprint(
            pinned.compiled, pinned.pairs, pinned.plan, pinned.config,
            pinned.table, pinned.state) == (
            "dee93b9ef51dae2311610be718b74db2"
            "926d33264a343a679e1fb34c83e3fc33")

    def test_job_fingerprint(self, pinned):
        assert job_fingerprint(
            pinned.compiled, pinned.pairs, pinned.plan, pinned.config,
            pinned.table, pinned.plain) == (
            "fb5a85c7c7444cb225482f2e1fa75ce4"
            "b0de536f0050ee8ff78ce070f31d2417")

    def test_compatibility_fingerprint(self, pinned):
        assert compatibility_fingerprint(
            pinned.compiled, pinned.config, pinned.table, pinned.plain) == (
            "99b3cf3f4ee413cb75bd61d355604127"
            "5c1a034433bfa862ae011e87dd628b1b")
        assert compatibility_fingerprint(
            pinned.compiled, pinned.config, pinned.table, pinned.state) == (
            "0cf76b3c8336098558ec33b29d30a301"
            "94b7b57c71f3be4f13821769436cf840")
        assert compatibility_fingerprint(
            pinned.compiled, SimulationConfig(), None, None,
            static_voltages=pinned.plan.voltages) == (
            "dfa1521e14f0599484003fd17b50f0d0"
            "3dc6b94809d0a35eae08a1729a3a9c07")

    def test_repeat_calls_keep_the_digest(self, pinned):
        """Second and later calls ride the memos."""
        args = (pinned.compiled, pinned.pairs, pinned.plan, pinned.config,
                pinned.table, pinned.state)
        assert {job_fingerprint(*args) for _ in range(3)} == {
            plain_job_digest(*args)}


class TestJobIdentity:
    """``job_identity`` — the service's one-pass identity — is
    ``(job_fingerprint, compatibility_fingerprint)`` over the digest
    contract's inputs, the key taking the plan's voltages in static
    mode."""

    BITS = (np.arange(18).reshape(3, 2, 3) * 7 % 5 % 2).astype(np.uint8)
    TRANSPORT = SimulationConfig(pulse_filtering="transport",
                                 record_all_nets=True)

    @pytest.mark.parametrize("config, table, variation, plan, first_slot", [
        (SimulationConfig(), None, None, SlotPlan.cross(3, [0.6, 0.8]), 0),
        (SimulationConfig(), None, None, SlotPlan.uniform(3, 0.7), 5),
        (TRANSPORT, None, ProcessVariation(sigma=0.05, seed=3),
         SlotPlan.uniform(3, 0.8), 0),
        (TRANSPORT, small_table(), ProcessVariation(sigma=0.05, seed=3),
         SlotPlan.cross(3, [0.6, 0.8]), 0),
        (TRANSPORT, small_table(), StateDependentVariation(
            sigma=0.05, seed=3, voltage_sensitivity=1.5, v_ref=0.8,
            slot_voltages=(0.6, 0.8, 0.6, 0.8, 0.6, 0.8)),
         SlotPlan.cross(3, [0.6, 0.8]), 2),
    ], ids=["static-cross", "static-uniform", "static-variation",
            "table-plain", "table-state"])
    def test_matches_the_pinned_identities(self, config, table, variation,
                                           plan, first_slot):
        compiled = PinnedCompiled()
        pairs = [PatternPair(row[0], row[1]) for row in self.BITS]
        digest, key = job_identity(compiled, pairs, plan, config, table,
                                   variation, first_slot)
        assert digest == job_fingerprint(compiled, pairs, plan, config,
                                         table, variation, first_slot)
        assert key == compatibility_fingerprint(
            compiled, config, table, variation,
            static_voltages=plan.voltages if table is None else None)


def fresh_compiled(library, seed):
    return compile_circuit(random_circuit(f"memo{seed}", 6, 30, seed=seed),
                           library)


class TestMemoLifetime:
    def test_prefix_fed_once_per_compiled_object(self, library, monkeypatch):
        compiled = fresh_compiled(library, 5)
        calls = []
        real = fingerprint_module.feed_compiled
        monkeypatch.setattr(
            fingerprint_module, "feed_compiled",
            lambda fp, target: (calls.append(target), real(fp, target))[1])
        rng = np.random.default_rng(1)
        plan = SlotPlan.uniform(2, 0.8)
        config = SimulationConfig()
        for _ in range(20):
            pairs = [PatternPair.random(6, rng) for _ in range(2)]
            assert job_fingerprint(compiled, pairs, plan, config) == \
                plain_job_digest(compiled, pairs, plan, config, None, None)
            compatibility_fingerprint(compiled, config, None, None,
                                      static_voltages=plan.voltages)
        circuit_fingerprint(compiled)
        # One memo build; the reference composition above feeds through
        # the imported name, not the patched module attribute.
        assert len(calls) == 1 and calls[0] is compiled

    def test_job_digest_hashes_per_job_bytes_only(self, library,
                                                  kernel_table, monkeypatch):
        """100 submits' worth of job digests feed the (tens of KB)
        kernel table once, and once the state is memoized no payload
        reaches the size at which ``hashlib`` releases the GIL."""
        compiled = fresh_compiled(library, 11)
        assert kernel_table.coefficients.nbytes > 2048
        feeds = []
        real = Fingerprinter.feed
        monkeypatch.setattr(
            Fingerprinter, "feed",
            lambda self, tag, payload: (feeds.append((tag, len(payload))),
                                        real(self, tag, payload))[1])
        rng = np.random.default_rng(2)
        plan = SlotPlan.cross(2, [0.6, 0.9])
        config = SimulationConfig()
        digests = set()
        for call in range(100):
            if call == 1:
                warm = len(feeds)
            pairs = [PatternPair.random(6, rng) for _ in range(2)]
            digests.add(job_fingerprint(compiled, pairs, plan, config,
                                        kernel_table))
        assert len(digests) == 100
        assert [tag for tag, _ in feeds].count("kernels") == 1
        assert {tag for tag, _ in feeds[warm:]} == {
            "v1", "v2", "plan_patterns", "plan_voltages"}
        assert max(size for _, size in feeds[warm:]) < 2048
        # The group key of the same submits forks the same state.
        compatibility_fingerprint(compiled, config, kernel_table, None)
        assert [tag for tag, _ in feeds].count("kernels") == 1

    def test_memo_does_not_keep_objects_alive(self, library):
        compiled = fresh_compiled(library, 6)
        table = small_table()
        circuit_fingerprint(compiled)
        compatibility_fingerprint(compiled, SimulationConfig(), table, None)
        refs = [weakref.ref(compiled), weakref.ref(table)]
        del compiled, table
        gc.collect()
        assert [ref() for ref in refs] == [None, None]

    def test_second_object_after_the_first_is_collected(self, library):
        """A recycled ``id()`` must not serve the dead object's state:
        churn through short-lived compiled circuits of alternating
        content and check every digest against the plain composition."""
        templates = [fresh_compiled(library, seed) for seed in (7, 8)]
        expected = [plain_compat_digest(t, SimulationConfig(), None, None)
                    for t in templates]
        for round_ in range(40):
            which = round_ % 2
            # CPython usually hands the freed address straight back.
            compiled = copy.copy(templates[which])
            assert compatibility_fingerprint(
                compiled, SimulationConfig(), None, None) == expected[which]
            assert circuit_fingerprint(compiled) == \
                circuit_fingerprint(templates[which])
            del compiled
            gc.collect()

    def test_entry_under_a_recycled_id_is_rebuilt(self):
        """Deterministic form of the above: an entry filed under a live
        object's ``id()`` but referencing another object is not served."""
        memo = fingerprint_module._IdentityMemo()
        first, second = PinnedCompiled(), PinnedCompiled()
        assert memo.lookup((first, None), "x", lambda: "first") == "first"
        assert memo.lookup((first, None), "x", lambda: "again") == "first"
        stale = memo._entries.pop(((id(first), id(None)), "x"))
        memo._entries[((id(second), id(None)), "x")] = stale
        assert memo.lookup((second, None), "x", lambda: "second") == "second"
        assert memo.lookup((second, None), "x", lambda: "again") == "second"

    def test_copy_and_mutate_hashes_afresh(self, library):
        compiled = fresh_compiled(library, 9)
        before = circuit_fingerprint(compiled)
        faulty = copy.copy(compiled)
        faulty.nominal_delays = compiled.nominal_delays.copy()
        faulty.nominal_delays[0, 0, :] += 1e-9
        assert circuit_fingerprint(faulty) != before
        assert circuit_fingerprint(compiled) == before

    def test_table_config_and_variation_split_one_circuit(self, compiled):
        config = SimulationConfig()
        table, same_table, other_table = (
            small_table(), small_table(), small_table(scale=32.0))
        plain = ProcessVariation(sigma=0.05)
        mild = StateDependentVariation(sigma=0.05, voltage_sensitivity=0.5,
                                       v_ref=0.8)
        steep = StateDependentVariation(sigma=0.05, voltage_sensitivity=2.0,
                                        v_ref=0.8)
        keys = {}
        for _ in range(2):  # second round: every key from its memo entry
            for name, args in (
                    ("table", (config, table, None)),
                    ("other_table", (config, other_table, None)),
                    ("all_nets", (SimulationConfig(record_all_nets=True),
                                  table, None)),
                    ("plain", (config, table, plain)),
                    ("mild", (config, table, mild)),
                    ("steep", (config, table, steep))):
                key = compatibility_fingerprint(compiled, *args)
                assert keys.setdefault(name, key) == key
                assert key == plain_compat_digest(compiled, *args)
        assert len(set(keys.values())) == len(keys)
        # Identity keys the memo, content keys the digest.
        assert compatibility_fingerprint(
            compiled, config, same_table, None) == keys["table"]
        # An operational knob reuses the semantic entry.
        assert compatibility_fingerprint(
            compiled, SimulationConfig(backend="numpy"), table,
            None) == keys["table"]

    def test_static_groups_still_split_through_the_memo(self, compiled):
        config = SimulationConfig()
        keys = [compatibility_fingerprint(
            compiled, config, None, None, static_voltages=np.full(4, v))
            for v in (0.6, 0.8, 0.6, 0.8)]
        assert keys[0] == keys[2] and keys[1] == keys[3]
        assert keys[0] != keys[1]
        assert compatibility_fingerprint(compiled, config, None,
                                         None) not in keys


class TestConcurrentForks:
    def test_eight_threads_fork_one_prefix(self, library):
        """More threads than cores, a short switch interval, and a fresh
        compiled object so the first build itself is raced: every digest
        must equal the plain composition (a fork that shared state with
        a sibling would mix two jobs' stimuli)."""
        compiled = fresh_compiled(library, 10)
        table = small_table()
        config = SimulationConfig()
        plan = SlotPlan.cross(2, [0.6, 0.9])
        rounds = 60
        failures = []
        start = threading.Barrier(8)

        def work(seed):
            rng = np.random.default_rng(seed)
            start.wait(timeout=30)
            for _ in range(rounds):
                pairs = [PatternPair.random(6, rng) for _ in range(2)]
                got = job_fingerprint(compiled, pairs, plan, config, table)
                if got != plain_job_digest(compiled, pairs, plan, config,
                                           table, None):
                    failures.append((seed, got))
                if compatibility_fingerprint(
                        compiled, config, table, None) != expected_compat:
                    failures.append((seed, "compat"))

        expected_compat = plain_compat_digest(compiled, config, table, None)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(seed,))
                       for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
