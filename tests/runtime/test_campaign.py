"""Integration tests for the fault-tolerant campaign runner.

The acceptance property: a campaign interrupted mid-run resumes from
its checkpoint directory, re-executes only the missing chunks, and
produces waveforms bit-identical to an uninterrupted single-device run
— including the Monte-Carlo variation case, where die factors must be
indexed by global slot and therefore survive chunking and resume.
"""

import json
import os
import time

import numpy as np
import pytest

from repro.errors import CheckpointError, ChunkExecutionError, CampaignError
from repro.netlist.generate import random_circuit
from repro.runtime import CampaignConfig, CampaignRunner
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
    return circuit, compiled, pairs


CONFIG = SimulationConfig(record_all_nets=True)


def fast_campaign(**overrides):
    defaults = dict(chunk_slots=3, num_workers=2, backoff_seconds=0.0)
    defaults.update(overrides)
    return CampaignConfig(**defaults)


def make_runner(setup, library, **overrides):
    circuit, compiled, _pairs = setup
    return CampaignRunner(circuit, library, config=CONFIG, compiled=compiled,
                          campaign=fast_campaign(**overrides))


def assert_bit_identical(reference, result, circuit):
    assert result.slot_labels == reference.slot_labels
    for slot in range(reference.num_slots):
        for net in circuit.nets():
            assert reference.waveform(slot, net).equivalent(
                result.waveform(slot, net), 0.0), (slot, net)


# -- fault-injection hooks (module level: must pickle into workers) ----------


def crash_chunk_one(chunk_index, attempt):
    if chunk_index == 1:
        os._exit(13)


def fail_chunk_zero_once(chunk_index, attempt):
    if chunk_index == 0 and attempt == 0:
        raise RuntimeError("transient glitch")


def fail_always(chunk_index, attempt):
    raise RuntimeError("worker permanently broken")


def fail_from_chunk_two(chunk_index, attempt):
    if chunk_index >= 2:
        raise RuntimeError("injected mid-run failure")


def hang_chunk_zero_once(chunk_index, attempt):
    if chunk_index == 0 and attempt == 0:
        time.sleep(3600)


class TestHappyPath:
    def test_matches_single_device(self, setup, library, kernel_table):
        circuit, compiled, pairs = setup
        plan = SlotPlan.cross(len(pairs), [0.6, 0.9])
        reference = GpuWaveSim(circuit, library, config=CONFIG,
                               compiled=compiled).run(
            pairs, plan=plan, kernel_table=kernel_table)
        result = make_runner(setup, library).run(pairs, plan=plan,
                                                 kernel_table=kernel_table)
        assert result.engine == "campaign[2]"
        assert_bit_identical(reference, result, circuit)
        report = result.report
        assert report.num_chunks == 6
        assert report.chunks_executed == 6
        assert report.total_retries == 0
        assert report.degraded_chunks == 0
        assert result.gate_evaluations == reference.gate_evaluations

    def test_in_process_mode(self, setup, library):
        """num_workers=0 runs the whole plane without a process pool."""
        circuit, compiled, pairs = setup
        reference = GpuWaveSim(circuit, library, config=CONFIG,
                               compiled=compiled).run(pairs)
        result = make_runner(setup, library, num_workers=0).run(pairs)
        assert result.engine == "campaign[0]"
        assert_bit_identical(reference, result, circuit)
        assert result.report.engines_used() == ["in-process"]

    def test_empty_pairs_rejected(self, setup, library):
        with pytest.raises(CampaignError):
            make_runner(setup, library).run([])

    def test_report_is_json_serializable(self, setup, library):
        _circuit, _compiled, pairs = setup
        result = make_runner(setup, library).run(pairs)
        payload = json.loads(json.dumps(result.report.to_dict()))
        assert payload["num_slots"] == len(pairs)
        assert len(payload["chunks"]) == result.report.num_chunks


class TestWorkerRecovery:
    def test_worker_crash_degrades_in_process(self, setup, library):
        """A chunk that keeps killing its worker (BrokenProcessPool)
        lands on the in-process engine; results stay bit-identical."""
        circuit, compiled, pairs = setup
        reference = GpuWaveSim(circuit, library, config=CONFIG,
                               compiled=compiled).run(pairs)
        runner = make_runner(setup, library, max_worker_attempts=2,
                             worker_fault=crash_chunk_one)
        result = runner.run(pairs)
        assert_bit_identical(reference, result, circuit)
        chunk = result.report.chunks[1]
        assert chunk.final_engine == "in-process"
        assert chunk.retries >= 2
        assert any("crashed" in (a.error or "") for a in chunk.attempts)
        assert result.report.degraded_chunks >= 1

    def test_transient_failure_retries_with_growth(self, setup, library):
        """Retry k runs with doubled capacity and halved budget."""
        circuit, compiled, pairs = setup
        reference = GpuWaveSim(circuit, library, config=CONFIG,
                               compiled=compiled).run(pairs)
        runner = make_runner(setup, library,
                             worker_fault=fail_chunk_zero_once)
        result = runner.run(pairs)
        assert_bit_identical(reference, result, circuit)
        chunk = result.report.chunks[0]
        assert chunk.final_engine == "worker"
        assert chunk.retries == 1
        failed, succeeded = chunk.attempts
        assert "transient glitch" in failed.error
        assert succeeded.waveform_capacity == 2 * failed.waveform_capacity
        assert succeeded.memory_budget <= failed.memory_budget

    def test_event_driven_last_resort(self, setup, library, kernel_table):
        """With workers always failing and the in-process rung disabled,
        chunks land on the reference engine — still bit-identical."""
        circuit, compiled, pairs = setup
        plan = SlotPlan.cross(len(pairs), [0.6, 0.9])
        reference = GpuWaveSim(circuit, library, config=CONFIG,
                               compiled=compiled).run(
            pairs, plan=plan, kernel_table=kernel_table)
        runner = make_runner(setup, library, max_worker_attempts=1,
                             degrade_in_process=False,
                             worker_fault=fail_always)
        result = runner.run(pairs, plan=plan, kernel_table=kernel_table)
        assert_bit_identical(reference, result, circuit)
        assert result.report.engines_used() == ["event-driven"]
        assert all(c.final_engine == "event-driven"
                   for c in result.report.chunks)

    def test_stuck_worker_is_killed_and_chunk_retried(self, setup, library,
                                                      monkeypatch):
        """No wait in the runtime is unbounded: a worker that never
        returns is killed after the bound and its chunk retried."""
        import repro.runtime.campaign as campaign

        monkeypatch.setattr(campaign, "WORKER_WAIT_SECONDS", 5.0)
        circuit, compiled, pairs = setup
        reference = GpuWaveSim(circuit, library, config=CONFIG,
                               compiled=compiled).run(pairs)
        runner = make_runner(setup, library,
                             worker_fault=hang_chunk_zero_once)
        result = runner.run(pairs)
        assert_bit_identical(reference, result, circuit)
        chunk = result.report.chunks[0]
        assert chunk.retries >= 1
        assert "crashed" in chunk.attempts[0].error

    def test_exhausted_ladder_raises(self, setup, library):
        _circuit, _compiled, pairs = setup
        runner = make_runner(setup, library, max_worker_attempts=1,
                             degrade_in_process=False,
                             degrade_event_driven=False,
                             worker_fault=fail_always)
        with pytest.raises(ChunkExecutionError) as excinfo:
            runner.run(pairs)
        assert excinfo.value.attempts


class TestCheckpointResume:
    def test_interrupted_campaign_resumes(self, setup, library, kernel_table,
                                          tmp_path):
        """The acceptance scenario: interrupt mid-run, resume, compare."""
        circuit, compiled, pairs = setup
        plan = SlotPlan.cross(len(pairs), [0.6, 0.9])
        directory = str(tmp_path / "campaign")
        reference = GpuWaveSim(circuit, library, config=CONFIG,
                               compiled=compiled).run(
            pairs, plan=plan, kernel_table=kernel_table)

        # First invocation dies on chunk 2 (no fallback engines), with
        # chunks 0 and 1 already checkpointed.
        broken = make_runner(setup, library, num_workers=1,
                             max_worker_attempts=1,
                             degrade_in_process=False,
                             degrade_event_driven=False,
                             worker_fault=fail_from_chunk_two)
        with pytest.raises(ChunkExecutionError):
            broken.run(pairs, plan=plan, kernel_table=kernel_table,
                       checkpoint_dir=directory)
        healthy = make_runner(setup, library)
        completed = set(
            int(p.stem.split("_")[-1])
            for p in (tmp_path / "campaign").glob("chunk_*.npz"))
        assert completed == {0, 1}

        # Resume with a healthy runner: only the missing chunks run.
        result = healthy.run(pairs, plan=plan, kernel_table=kernel_table,
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
        directory = str(tmp_path / "campaign_mc")
        reference = GpuWaveSim(circuit, library, config=CONFIG,
                               compiled=compiled).run(
            pairs, plan=plan, kernel_table=kernel_table, variation=variation)

        broken = make_runner(setup, library, num_workers=1,
                             max_worker_attempts=1,
                             degrade_in_process=False,
                             degrade_event_driven=False,
                             worker_fault=fail_from_chunk_two)
        with pytest.raises(ChunkExecutionError):
            broken.run(pairs, plan=plan, kernel_table=kernel_table,
                       variation=variation, checkpoint_dir=directory)

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
