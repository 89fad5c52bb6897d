"""End-to-end fault matrix: the hardened service under an injected storm.

The load-bearing acceptance test is ``test_fault_matrix_64_jobs``: a
64-job run absorbing a worker death, a hung worker, a repeated native
kernel fault and a corrupted cache entry, where every job still
succeeds and every waveform is bit-identical to the fault-free run.
"""

import functools
import io
import json
import time

import numpy as np
import pytest

from repro import faults
from repro.errors import (
    CircuitOpenError,
    InjectedFaultError,
    JobCancelledError,
    JobDeadlineError,
)
from repro.netlist.generate import random_circuit
from repro.service import ServiceConfig, SimulationService
from repro.service import core as service_core
from repro.service.breaker import CircuitBreaker
from repro.simulation import gpu
from repro.simulation.backend import available_backends
from repro.simulation.base import PatternPair, SimulationConfig
from repro.simulation.compiled import compile_circuit


@pytest.fixture(scope="module")
def circuit():
    return random_circuit("hrd", 10, 90, seed=23)


@pytest.fixture(scope="module")
def compiled(circuit, library):
    return compile_circuit(circuit, library)


def make_jobs(circuit, count, pairs_each=2, seed=0):
    rng = np.random.default_rng(seed)
    return [[PatternPair.random(len(circuit.inputs), rng)
             for _ in range(pairs_each)] for _ in range(count)]


def hardened_config(**overrides):
    """Flush on fullness only; aggressive supervision for fast tests."""
    defaults = dict(max_batch_slots=8, max_wait_ms=2000.0, idle_ms=500.0,
                    workers=1, cache_entries=256, hang_timeout_s=0.5,
                    supervisor_tick_s=0.02)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def run_service(circuit, library, compiled, jobs, service_config,
                **submit_kwargs):
    with SimulationService(config=service_config) as service:
        key = service.register_circuit(circuit, library, compiled=compiled)
        handles = [service.submit(key, pairs, **submit_kwargs)
                   for pairs in jobs]
        results = [handle.result(timeout=120) for handle in handles]
    return results


def assert_same_waveforms(reference, result):
    assert reference.num_slots == result.num_slots
    for slot in range(reference.num_slots):
        ref_nets = reference.waveforms[slot]
        got_nets = result.waveforms[slot]
        assert set(ref_nets) == set(got_nets)
        for net, ref in ref_nets.items():
            got = got_nets[net]
            assert got.initial == ref.initial, (slot, net)
            assert np.array_equal(got.times, ref.times), (slot, net)


class TestFaultMatrix:
    #: One worker death, one repeated kernel fault (absorbed by poison
    #: isolation at the numpy demotion floor), one hung demux, and a
    #: corrupted cache entry on the first hit.  Single worker + flush on
    #: fullness keep every nth-call trigger on a deterministic batch.
    PLAN = ("seed=11; backend.run_levels:die@n=3; "
            "backend.run_levels:raise@n=7,count=2; "
            "service.demux:hang@n=10,ms=1500; "
            "cache.get:corrupt@n=1")

    def test_fault_matrix_64_jobs(self, circuit, library, compiled):
        jobs = make_jobs(circuit, 64, seed=2)
        baseline = run_service(circuit, library, compiled, jobs,
                               hardened_config())

        with faults.injected(self.PLAN) as plan:
            with SimulationService(config=hardened_config()) as service:
                key = service.register_circuit(circuit, library,
                                               compiled=compiled)
                handles = [service.submit(key, pairs) for pairs in jobs]
                results = [handle.result(timeout=120) for handle in handles]
                # First cache hit: the corrupt rule rots the entry, the
                # checksum catches it, and the job silently recomputes.
                redo = service.submit(key, jobs[0]).result(timeout=120)
                metrics = service.metrics()

        # Every job survived the storm...
        assert metrics.jobs_completed == 65
        assert metrics.jobs_failed == 0
        # ...bit-identical to the fault-free run.
        for ref, got in zip(baseline, results):
            assert_same_waveforms(ref, got)
        assert not redo.cache_hit
        assert_same_waveforms(baseline[0], redo)

        # The storm actually happened, and the metrics show it.
        fired = plan.stats()["fired"]
        assert fired["backend.run_levels:die"] == 1
        assert fired["backend.run_levels:raise"] == 2
        assert fired["service.demux:hang"] == 1
        assert fired["cache.get:corrupt"] == 1
        assert metrics.workers_replaced == 2
        assert metrics.workers_hung == 1
        assert metrics.batches_requeued == 2
        assert metrics.integrity_evictions == 1

    def test_poison_fault_fails_exactly_one_job(self, circuit, library,
                                                compiled):
        jobs = make_jobs(circuit, 6, seed=4)
        baseline = run_service(circuit, library, compiled, jobs,
                               hardened_config(max_batch_slots=2))
        with faults.injected("service.demux:raise@n=3"):
            with SimulationService(
                    config=hardened_config(max_batch_slots=2)) as service:
                key = service.register_circuit(circuit, library,
                                               compiled=compiled)
                handles = [service.submit(key, pairs) for pairs in jobs]
                outcomes = [handle.exception(timeout=120)
                            for handle in handles]
                metrics = service.metrics()
        failures = [i for i, exc in enumerate(outcomes) if exc is not None]
        assert failures == [2]
        assert isinstance(outcomes[2], InjectedFaultError)
        assert metrics.jobs_failed == 1
        assert metrics.jobs_completed == 5
        for index, handle in enumerate(handles):
            if index != 2:
                assert_same_waveforms(baseline[index],
                                      handle.result(timeout=1))


class TestIsolationClock:
    def test_isolated_jobs_get_their_own_hang_clock(self, circuit, library,
                                                    compiled):
        """A failed batch's jobs re-run as batches of their own, each
        timed from when a worker takes it: eight 120 ms re-runs after a
        120 ms failed batch are not one 0.5 s hang."""
        jobs = make_jobs(circuit, 8, pairs_each=1, seed=14)
        config = hardened_config(cache_entries=0)
        baseline = run_service(circuit, library, compiled, jobs, config)
        with faults.injected("service.demux:raise@n=1; "
                             "backend.run_levels:delay@p=1,ms=120"):
            with SimulationService(config=config) as service:
                key = service.register_circuit(circuit, library,
                                               compiled=compiled)
                handles = [service.submit(key, pairs) for pairs in jobs]
                results = [handle.result(timeout=120) for handle in handles]
                metrics = service.metrics()
        assert metrics.workers_hung == 0
        assert metrics.workers_replaced == 0
        assert metrics.batches_requeued == 0
        for ref, got in zip(baseline, results):
            assert_same_waveforms(ref, got)


class TestCircuitBreaker:
    def test_open_half_open_close_transitions(self, circuit, library,
                                              compiled, monkeypatch):
        jobs = make_jobs(circuit, 8, seed=6)
        monkeypatch.setattr(service_core, "CircuitBreaker", functools.partial(
            CircuitBreaker, failure_threshold=2, reset_seconds=0.3))
        config = hardened_config(max_batch_slots=2)
        with SimulationService(config=config) as service:
            key = service.register_circuit(circuit, library,
                                           compiled=compiled)
            # Healthy traffic first (also seeds the cache).
            assert service.submit(key, jobs[0]).result(timeout=60)

            with faults.injected("service.demux:raise@p=1"):
                for pairs in jobs[1:3]:
                    exc = service.submit(key, pairs).exception(timeout=60)
                    assert isinstance(exc, InjectedFaultError)
                # Two consecutive failures: the group's breaker is open.
                with pytest.raises(CircuitOpenError) as info:
                    service.submit(key, jobs[3])
                assert info.value.retry_after_seconds > 0
                # Cache hits bypass the breaker entirely.
                assert service.submit(key, jobs[0]).result(timeout=60)

                # Half-open: one probe gets through — and fails.
                time.sleep(0.35)
                exc = service.submit(key, jobs[4]).exception(timeout=60)
                assert isinstance(exc, InjectedFaultError)
                with pytest.raises(CircuitOpenError):
                    service.submit(key, jobs[5])

            # Fault cleared: the next probe closes the breaker.
            time.sleep(0.35)
            assert service.submit(key, jobs[6]).result(timeout=60)
            assert service.submit(key, jobs[7]).result(timeout=60)
            metrics = service.metrics()

        assert metrics.breaker_rejections >= 2
        states = {stats["state"] for stats in metrics.breakers.values()}
        assert states == {"closed"}
        assert any(stats["times_opened"] == 2
                   for stats in metrics.breakers.values())


def blocking_config():
    """A service whose batcher never flushes on its own (held jobs)."""
    return hardened_config(max_batch_slots=4096, max_wait_ms=60_000.0,
                           idle_ms=60_000.0)


class TestDeadlinesAndCancellation:
    def test_deadline_fails_queued_job(self, circuit, library, compiled):
        jobs = make_jobs(circuit, 1, seed=8)
        with SimulationService(config=blocking_config()) as service:
            key = service.register_circuit(circuit, library,
                                           compiled=compiled)
            handle = service.submit(key, jobs[0], deadline_ms=80)
            exc = handle.exception(timeout=30)
            assert isinstance(exc, JobDeadlineError)
            assert exc.deadline_ms == 80
            metrics = service.metrics()
        assert metrics.jobs_timed_out == 1
        assert metrics.jobs_failed == 0

    def test_deadline_must_be_positive(self, circuit, library, compiled):
        from repro.errors import ServiceError
        jobs = make_jobs(circuit, 1, seed=8)
        with SimulationService(config=blocking_config()) as service:
            key = service.register_circuit(circuit, library,
                                           compiled=compiled)
            with pytest.raises(ServiceError, match="deadline_ms"):
                service.submit(key, jobs[0], deadline_ms=0)

    def test_cancel_settles_job_and_releases_backlog(self, circuit, library,
                                                     compiled):
        jobs = make_jobs(circuit, 2, seed=9)
        with SimulationService(config=blocking_config()) as service:
            key = service.register_circuit(circuit, library,
                                           compiled=compiled)
            handle = service.submit(key, jobs[0])
            assert handle.cancel() is True
            assert handle.cancel() is False  # already settled
            assert isinstance(handle.exception(timeout=5), JobCancelledError)
            metrics = service.metrics()
        assert metrics.jobs_cancelled == 1

    def test_cancel_after_completion_returns_false(self, circuit, library,
                                                   compiled):
        jobs = make_jobs(circuit, 1, seed=10)
        with SimulationService(config=hardened_config()) as service:
            key = service.register_circuit(circuit, library,
                                           compiled=compiled)
            handle = service.submit(key, jobs[0])
            handle.result(timeout=60)
            assert handle.cancel() is False


class TestServeJsonlDeadline:
    def test_timeout_response_is_structured(self, library):
        from repro.cli import _load_circuit
        from repro.service import ServiceClient, serve_jsonl
        with SimulationService(config=blocking_config()) as service:
            client = ServiceClient(service, library, _load_circuit,
                                   backend="numpy")
            out = io.StringIO()
            line = json.dumps({"id": "t", "circuit": "random:60:2",
                               "patterns": 2, "deadline_ms": 60})
            status = serve_jsonl(io.StringIO(line + "\n"), out, client)
        assert status == 0
        response = json.loads(out.getvalue().strip())
        assert response["id"] == "t"
        assert not response["ok"]
        assert response["timeout"] is True
        assert response["deadline_ms"] == 60
        assert "JobDeadlineError" in response["error"]


class TestServiceDemotion:
    @pytest.mark.skipif("cext" not in available_backends(),
                        reason="needs the C extension backend")
    def test_demotion_reaches_label_report_and_metrics(self, circuit,
                                                       library, compiled,
                                                       monkeypatch):
        monkeypatch.setattr(gpu, "DEMOTE_AFTER", 1)
        jobs = make_jobs(circuit, 4, seed=12)
        baseline = run_service(
            circuit, library, compiled, jobs, hardened_config(),
            config=SimulationConfig(backend="numpy"))
        with faults.injected("backend.run_levels:raise@n=1"):
            results = run_service(
                circuit, library, compiled, jobs, hardened_config(),
                config=SimulationConfig(backend="cext"))
        assert any("demoted:cext->numpy" in result.engine
                   for result in results)
        demoted = [r for r in results if "demoted" in r.engine]
        assert demoted
        for result in demoted:
            assert result.report.backend == "numpy"
            assert result.report.backend_demotions == ["cext->numpy"]
        for ref, got in zip(baseline, results):
            assert_same_waveforms(ref, got)
