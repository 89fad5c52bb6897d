"""Tests for the campaign checkpoint store and fingerprint."""

import numpy as np
import pytest

from repro.errors import CheckpointError
from repro.netlist.generate import random_circuit
from repro.runtime import CheckpointStore, campaign_fingerprint
from repro.simulation.base import PatternPair, SimulationConfig
from repro.simulation.compiled import compile_circuit
from repro.simulation.grid import SlotPlan
from repro.simulation.variation import ProcessVariation
from repro.waveform.waveform import Waveform


def make_chunk(num_slots=3):
    rng = np.random.default_rng(5)
    chunk = []
    for slot in range(num_slots):
        chunk.append({
            "a": Waveform(initial=slot % 2,
                          times=np.sort(rng.uniform(0, 1e-9, 4))),
            "b": Waveform.constant(1),
            "c": Waveform(initial=0, times=np.asarray([3.2e-10])),
        })
    return chunk


class TestChunkRoundTrip:
    def test_save_load(self, tmp_path):
        store = CheckpointStore(tmp_path)
        chunk = make_chunk()
        store.save_chunk(4, chunk)
        assert store.has_chunk(4) and not store.has_chunk(3)
        loaded = store.load_chunk(4, 3)
        for slot in range(3):
            for net in ("a", "b", "c"):
                assert chunk[slot][net].equivalent(loaded[slot][net], 0.0)

    def test_wrong_slot_count_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save_chunk(0, make_chunk(3))
        with pytest.raises(CheckpointError, match="slots"):
            store.load_chunk(0, 5)

    def test_corrupt_file_treated_as_missing(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save_chunk(1, make_chunk())
        store.chunk_path(1).write_bytes(b"not a valid npz file")
        assert store.try_load_chunk(1, 3) is None
        assert not store.has_chunk(1)

    def test_missing_chunk(self, tmp_path):
        store = CheckpointStore(tmp_path)
        assert store.try_load_chunk(9, 3) is None
        assert not store.has_chunk(9)


class TestManifest:
    def test_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        assert store.load_manifest() is None
        store.write_manifest({"fingerprint": "abc", "chunk_slots": 7})
        manifest = store.load_manifest()
        assert manifest["fingerprint"] == "abc"
        assert manifest["chunk_slots"] == 7

    def test_bad_format_version(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.write_manifest({"fingerprint": "abc"})
        text = store.manifest_path.read_text().replace(
            '"format_version": 1', '"format_version": 99')
        store.manifest_path.write_text(text)
        with pytest.raises(CheckpointError, match="format version"):
            store.load_manifest()

    def test_unreadable_manifest(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.directory.mkdir(exist_ok=True)
        store.manifest_path.write_text("{ not json")
        with pytest.raises(CheckpointError, match="unreadable"):
            store.load_manifest()


class TestFingerprint:
    @pytest.fixture(scope="class")
    def setup(self, library):
        circuit = random_circuit("fp", 8, 80, seed=3)
        compiled = compile_circuit(circuit, library)
        rng = np.random.default_rng(3)
        pairs = [PatternPair.random(8, rng) for _ in range(4)]
        plan = SlotPlan.cross(len(pairs), [0.6, 0.9])
        return compiled, pairs, plan

    def test_deterministic(self, setup, kernel_table):
        compiled, pairs, plan = setup
        config = SimulationConfig()
        first = campaign_fingerprint(compiled, pairs, plan, config,
                                     kernel_table)
        second = campaign_fingerprint(compiled, pairs, plan, config,
                                      kernel_table)
        assert first == second

    def test_sensitive_to_semantic_inputs(self, setup, kernel_table):
        compiled, pairs, plan = setup
        config = SimulationConfig()
        base = campaign_fingerprint(compiled, pairs, plan, config,
                                    kernel_table)
        assert campaign_fingerprint(compiled, pairs[:-1],
                                    SlotPlan.cross(len(pairs) - 1, [0.6, 0.9]),
                                    config, kernel_table) != base
        assert campaign_fingerprint(
            compiled, pairs, plan, config, kernel_table,
            variation=ProcessVariation(sigma=0.05)) != base
        assert campaign_fingerprint(compiled, pairs, plan, config,
                                    kernel_table=None) != base
        assert campaign_fingerprint(
            compiled, pairs, plan,
            SimulationConfig(record_all_nets=True), kernel_table) != base

    def test_insensitive_to_operational_knobs(self, setup, kernel_table):
        """Capacity/overflow policy never change results, so they must
        not invalidate a checkpoint directory."""
        compiled, pairs, plan = setup
        base = campaign_fingerprint(compiled, pairs, plan,
                                    SimulationConfig(), kernel_table)
        tweaked = campaign_fingerprint(
            compiled, pairs, plan,
            SimulationConfig(waveform_capacity=128, grow_on_overflow=False),
            kernel_table)
        assert tweaked == base
