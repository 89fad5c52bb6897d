"""Integration tests for the checkpointed campaign runner.

The acceptance property: a campaign — run in-process or on service
shards, fresh or resumed from its checkpoint directory — produces
waveforms bit-identical to one whole-plane ``GpuWaveSim.run``, including
the Monte-Carlo variation case, where die factors are indexed by global
slot and therefore survive chunking and resume.  Failures are the
service's to recover; a chunk whose job still fails is reported, the
others are checkpointed, and a re-run executes only that chunk.
"""

import json

import numpy as np
import pytest

from repro import faults
from repro.errors import CheckpointError, ChunkExecutionError, CampaignError
from repro.netlist.generate import random_circuit
from repro.runtime import CampaignConfig, CampaignRunner
from repro.service import SimulationService
from repro.simulation import gpu
from repro.simulation.backend import available_backends
from repro.simulation.base import PatternPair, SimulationConfig
from repro.simulation.compiled import compile_circuit
from repro.simulation.gpu import GpuWaveSim
from repro.simulation.grid import SlotPlan
from repro.simulation.variation import ProcessVariation


@pytest.fixture(scope="module")
def setup(library):
    circuit = random_circuit("campaign", 10, 120, seed=17)
    compiled = compile_circuit(circuit, library)
    rng = np.random.default_rng(17)
    pairs = [PatternPair.random(10, rng) for _ in range(8)]
    # Two quiet pairs: their slots settle by lookup, so the campaign's
    # lanes_skipped has something to sum.
    pairs[2] = PatternPair(pairs[2].v1, pairs[2].v1)
    pairs[5] = PatternPair(pairs[5].v2, pairs[5].v2)
    return circuit, compiled, pairs


@pytest.fixture(params=["in-process", "shards"])
def workers(request, shard_count):
    return 0 if request.param == "in-process" else shard_count


CONFIG = SimulationConfig(record_all_nets=True)


def make_runner(setup, library, config=CONFIG, **overrides):
    circuit, compiled, _pairs = setup
    campaign = CampaignConfig(**dict(dict(chunk_slots=3), **overrides))
    return CampaignRunner(circuit, library, config=config, compiled=compiled,
                          campaign=campaign)


def whole_plane(setup, library, pairs, **run_kwargs):
    circuit, compiled, _pairs = setup
    engine = GpuWaveSim(circuit, library, config=CONFIG, compiled=compiled)
    return engine.run(pairs, **run_kwargs), engine.last_stats


def assert_bit_identical(reference, result, circuit):
    assert result.slot_labels == reference.slot_labels
    for slot in range(reference.num_slots):
        for net in circuit.nets():
            assert reference.waveform(slot, net).equivalent(
                result.waveform(slot, net), 0.0), (slot, net)


def chunk_files(directory):
    return {int(path.stem.split("_")[-1])
            for path in directory.glob("chunk_*.npz")}


class TestHappyPath:
    def test_matches_single_device(self, setup, library, kernel_table,
                                   shard_count):
        circuit, compiled, pairs = setup
        plan = SlotPlan.cross(len(pairs), [0.6, 0.9])
        reference, _stats = whole_plane(setup, library, pairs, plan=plan,
                                        kernel_table=kernel_table)
        result = make_runner(setup, library, num_workers=shard_count).run(
            pairs, plan=plan, kernel_table=kernel_table)
        assert result.engine == f"campaign[{shard_count}]"
        assert_bit_identical(reference, result, circuit)
        report = result.report
        assert report.num_chunks == 6
        assert report.chunks_executed == 6
        assert report.total_retries == 0
        assert result.gate_evaluations == reference.gate_evaluations

    def test_in_process_mode(self, setup, library):
        """num_workers=0 (the default) runs every chunk in-process."""
        circuit, compiled, pairs = setup
        reference, _stats = whole_plane(setup, library, pairs)
        result = make_runner(setup, library).run(pairs)
        assert result.engine == "campaign[0]"
        assert_bit_identical(reference, result, circuit)
        (engine,) = result.report.engines_used()
        assert engine.startswith("service:gpu-static")

    def test_empty_pairs_rejected(self, setup, library):
        with pytest.raises(CampaignError):
            make_runner(setup, library).run([])

    def test_report_is_json_serializable(self, setup, library):
        _circuit, _compiled, pairs = setup
        result = make_runner(setup, library).run(pairs)
        payload = json.loads(json.dumps(result.report.to_dict()))
        assert payload["num_slots"] == len(pairs)
        assert len(payload["chunks"]) == result.report.num_chunks
        assert "degraded_chunks" not in payload
        assert "memory_budget" not in payload["chunks"][0]["attempts"][0]


class TestWholePlane:
    def test_variation_campaign_matches_whole_plane(self, setup, library,
                                                    kernel_table, workers,
                                                    tmp_path):
        """Fresh and resumed, on either transport: the waveforms and the
        lane counters are the whole-plane run's."""
        circuit, compiled, pairs = setup
        variation = ProcessVariation(sigma=0.08, seed=3)
        plan = SlotPlan.cross(len(pairs), [0.6, 0.9])
        reference, stats = whole_plane(setup, library, pairs, plan=plan,
                                       kernel_table=kernel_table,
                                       variation=variation)
        assert stats.lanes_skipped > 0
        runner = make_runner(setup, library, num_workers=workers)
        directory = tmp_path / "campaign"
        fresh = runner.run(pairs, plan=plan, kernel_table=kernel_table,
                           variation=variation, checkpoint_dir=str(directory))
        assert_bit_identical(reference, fresh, circuit)
        assert fresh.report.gate_evaluations == stats.gate_evaluations
        assert fresh.report.lanes_skipped == stats.lanes_skipped

        for index in (1, 4):
            (directory / f"chunk_{index:05d}.npz").unlink()
        resumed = runner.run(pairs, plan=plan, kernel_table=kernel_table,
                             variation=variation,
                             checkpoint_dir=str(directory))
        assert resumed.report.resumed
        assert [c.index for c in resumed.report.chunks
                if c.attempts] == [1, 4]
        assert_bit_identical(reference, resumed, circuit)


class TestServiceRecovery:
    def test_shard_death_is_absorbed(self, setup, library, monkeypatch):
        """The last chunk's first dispatch kills its shard: the service
        respawns it and re-queues the chunk once, and the campaign never
        sees the loss.  The plan reaches the shard the one way a plan
        can: the environment it inherits."""
        circuit, compiled, pairs = setup
        reference, _stats = whole_plane(setup, library, pairs)
        metrics = []
        close = SimulationService.close

        def recording_close(service, drain=True):
            metrics.append(service.metrics())
            close(service, drain)

        monkeypatch.setattr(SimulationService, "close", recording_close)
        # One shard runs the three chunks in order; its third dispatch
        # dies, and the respawned shard's first dispatch is that chunk.
        monkeypatch.setenv(faults.ENV_VAR, "shard.dispatch:die@n=3")
        faults.reset()
        config = SimulationConfig(record_all_nets=True)
        try:
            result = make_runner(setup, library, config=config,
                                 num_workers=1).run(pairs)
        finally:
            faults.reset()
        assert_bit_identical(reference, result, circuit)
        assert result.report.chunks_executed == 3
        (snapshot,) = metrics
        assert snapshot.workers_replaced == 1
        assert snapshot.batches_requeued == 1
        assert snapshot.jobs_failed == 0

    @pytest.mark.skipif("cext" not in available_backends(),
                        reason="needs the native backend to demote from")
    def test_report_names_the_backend_after_demotion(self, setup, library,
                                                     monkeypatch):
        """A chunk whose kernel faulted ran on the demoted backend, and
        every later one too: the report names that backend.  (The
        campaign's service runs in-process, so the patched constant
        reaches its engines.)"""
        circuit, compiled, pairs = setup
        reference, _stats = whole_plane(setup, library, pairs)
        monkeypatch.setattr(gpu, "DEMOTE_AFTER", 1)
        config = SimulationConfig(record_all_nets=True, backend="cext")
        with faults.injected("backend.run_levels:raise@n=1"):
            result = make_runner(setup, library, config=config,
                                 chunk_slots=4).run(pairs)
        report = result.report
        assert report.backend_demotions == ["cext->numpy"]
        assert report.backend == "numpy"
        assert_bit_identical(reference, result, circuit)

    def test_failed_chunk_raises_after_the_others_checkpoint(
            self, setup, library, tmp_path):
        circuit, compiled, pairs = setup
        reference, _stats = whole_plane(setup, library, pairs)
        directory = tmp_path / "campaign"
        runner = make_runner(setup, library)
        # The second chunk's job fails (in-process, its one dispatch).
        with faults.injected("service.demux:raise@n=2"):
            with pytest.raises(ChunkExecutionError) as excinfo:
                runner.run(pairs, checkpoint_dir=str(directory))
        assert excinfo.value.chunk_index == 1
        assert "InjectedFaultError" in excinfo.value.attempts[-1].error
        assert chunk_files(directory) == {0, 2}

        result = runner.run(pairs, checkpoint_dir=str(directory))
        report = result.report
        assert report.resumed
        assert [c.index for c in report.chunks if c.attempts] == [1]
        assert report.chunks_from_checkpoint == 2
        assert_bit_identical(reference, result, circuit)


class TestCheckpointResume:
    def run_interrupted(self, setup, library, tmp_path, **run_kwargs):
        """First invocation: every chunk from the third on fails, so
        exactly chunks 0 and 1 are checkpointed."""
        _circuit, _compiled, pairs = setup
        directory = tmp_path / "campaign"
        with faults.injected("service.demux:raise@n=3,count=100"):
            with pytest.raises(ChunkExecutionError) as excinfo:
                make_runner(setup, library).run(
                    pairs, checkpoint_dir=str(directory), **run_kwargs)
        assert excinfo.value.chunk_index == 2
        assert chunk_files(directory) == {0, 1}
        return str(directory)

    def test_interrupted_campaign_resumes(self, setup, library, kernel_table,
                                          tmp_path):
        """The acceptance scenario: interrupt mid-run, resume, compare."""
        circuit, compiled, pairs = setup
        plan = SlotPlan.cross(len(pairs), [0.6, 0.9])
        reference, _stats = whole_plane(setup, library, pairs, plan=plan,
                                        kernel_table=kernel_table)
        directory = self.run_interrupted(setup, library, tmp_path, plan=plan,
                                         kernel_table=kernel_table)
        result = make_runner(setup, library).run(
            pairs, plan=plan, kernel_table=kernel_table,
            checkpoint_dir=directory)
        report = result.report
        assert report.resumed
        assert report.chunks_from_checkpoint == 2
        assert report.chunks_executed == report.num_chunks - 2
        assert all(not report.chunks[i].attempts for i in (0, 1))
        assert_bit_identical(reference, result, circuit)

    def test_interrupted_variation_campaign_resumes(self, setup, library,
                                                    kernel_table, tmp_path):
        """Monte-Carlo die factors are global-slot-indexed and must be
        unaffected by which chunks were checkpointed before the crash."""
        circuit, compiled, pairs = setup
        variation = ProcessVariation(sigma=0.08, seed=3)
        plan = SlotPlan.cross(len(pairs), [0.6, 0.9])
        reference, _stats = whole_plane(setup, library, pairs, plan=plan,
                                        kernel_table=kernel_table,
                                        variation=variation)
        directory = self.run_interrupted(setup, library, tmp_path, plan=plan,
                                         kernel_table=kernel_table,
                                         variation=variation)
        result = make_runner(setup, library).run(
            pairs, plan=plan, kernel_table=kernel_table, variation=variation,
            checkpoint_dir=directory)
        assert result.report.resumed
        assert result.report.chunks_from_checkpoint == 2
        assert_bit_identical(reference, result, circuit)

    def test_completed_campaign_resumes_entirely(self, setup, library,
                                                 tmp_path):
        circuit, compiled, pairs = setup
        directory = str(tmp_path / "done")
        runner = make_runner(setup, library)
        first = runner.run(pairs, checkpoint_dir=directory)
        second = runner.run(pairs, checkpoint_dir=directory)
        assert second.report.chunks_from_checkpoint == \
            second.report.num_chunks
        assert second.report.chunks_executed == 0
        assert_bit_identical(first, second, circuit)

    def test_foreign_checkpoint_rejected(self, setup, library, tmp_path):
        """A directory written by a different campaign must not be
        silently mixed into this one."""
        circuit, compiled, pairs = setup
        directory = str(tmp_path / "foreign")
        runner = make_runner(setup, library)
        runner.run(pairs, checkpoint_dir=directory)
        rng = np.random.default_rng(99)
        other_pairs = [PatternPair.random(10, rng) for _ in range(8)]
        with pytest.raises(CheckpointError, match="different campaign"):
            runner.run(other_pairs, checkpoint_dir=directory)

    def test_corrupt_chunk_is_recomputed(self, setup, library, tmp_path):
        circuit, compiled, pairs = setup
        directory = tmp_path / "corrupt"
        runner = make_runner(setup, library)
        first = runner.run(pairs, checkpoint_dir=str(directory))
        victim = sorted(directory.glob("chunk_*.npz"))[0]
        victim.write_bytes(b"garbage")
        second = runner.run(pairs, checkpoint_dir=str(directory))
        assert second.report.chunks_executed == 1
        assert second.report.chunks_from_checkpoint == \
            second.report.num_chunks - 1
        assert_bit_identical(first, second, circuit)

    def test_resume_adopts_manifest_chunking(self, setup, library, tmp_path):
        """A resume with a different chunk_slots setting follows the
        manifest so chunk files keep lining up."""
        circuit, compiled, pairs = setup
        directory = str(tmp_path / "rechunk")
        make_runner(setup, library, chunk_slots=3).run(
            pairs, checkpoint_dir=directory)
        result = make_runner(setup, library, chunk_slots=5).run(
            pairs, checkpoint_dir=directory)
        assert result.report.chunk_slots == 3
        assert result.report.chunks_from_checkpoint == 3
