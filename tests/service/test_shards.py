"""Tests for the multi-process sharded service (``ServiceConfig(shards=N)``).

Contracts under test (``docs/architecture.md`` §11):

* results coming back over a shard's control pipe are
  **bit-identical** to a standalone ``GpuWaveSim.run`` of the same
  request, including Monte-Carlo sampling, and messages larger than the
  pipe buffer cross both ways without deadlock;
* a shard does exactly the engine work an in-process service does with
  the cache (and so the delta path) off: equal per-job
  ``gate_evaluations``, nothing spliced, on every pass of a stream;
* a shard's ``done`` reply carries the engine's stats whole: each job's
  report — lane counters, backend, phases, attempt capacity and
  retries — reads the same as in-process;
* the ``ipc_*_bytes`` counters carry the payload: stimuli out, packed
  result planes back;
* every shard's level-plan cache is warmed at registration time, before
  its first batch;
* a shard SIGKILLed mid-batch is respawned with its registry replayed
  and its in-flight batch re-queued exactly once, with every job still
  settling correctly; a batch lost twice fails with ``WorkerLostError``;
* a free shard takes the next batch: batches of one group run on
  distinct shards, and no shard pipelines a second batch while another
  ready shard holds none;
* a batch's hang clock starts when its shard is ready, not while the
  shard boots;
* two submitting threads racing the first batches of fresh groups
  never put a batch on a shard ahead of its group registration;
* the ``shard.spawn`` / ``shard.dispatch`` fault seams drive the
  retry, error-propagation and poison-isolation paths.

The shard count comes from the ``--shards`` pytest option (default 2).
"""

import multiprocessing
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro import faults
from repro.errors import (
    AdmissionError,
    InjectedFaultError,
    ServiceError,
    ShardError,
    WorkerLostError,
)
from repro.netlist.generate import random_circuit
from repro.service import ServiceConfig, SimulationService
from repro.service import router as router_module
from repro.service.metrics import MetricsRecorder
from repro.simulation.base import PatternPair, SimulationConfig
from repro.simulation.compiled import compile_circuit
from repro.simulation.gpu import GpuWaveSim
from repro.simulation.variation import ProcessVariation


@pytest.fixture(scope="module")
def circuit():
    return random_circuit("svc", 10, 90, seed=11)


@pytest.fixture(scope="module")
def compiled(circuit, library):
    return compile_circuit(circuit, library)


@pytest.fixture(scope="module")
def sharded(circuit, library, compiled, shard_count):
    """One sharded service shared by the read-only tests below."""
    service = SimulationService(config=sharded_config(shard_count))
    key = service.register_circuit(circuit, library, compiled=compiled)
    yield service, key
    service.close()


def make_jobs(circuit, count, pairs_each=2, seed=0):
    rng = np.random.default_rng(seed)
    return [[PatternPair.random(len(circuit.inputs), rng)
             for _ in range(pairs_each)] for _ in range(count)]


def sharded_config(shard_count, **overrides):
    """Deterministic batching over ``shard_count`` worker processes."""
    defaults = dict(shards=shard_count, max_batch_slots=16,
                    max_wait_ms=2000.0, idle_ms=500.0, cache_entries=0)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def assert_bit_identical(job_pairs, result, engine, **run_kwargs):
    reference = engine.run(job_pairs, **run_kwargs)
    assert len(reference.waveforms) == result.num_slots
    for slot in range(result.num_slots):
        ref_nets = reference.waveforms[slot]
        got_nets = result.waveforms[slot]
        assert set(ref_nets) == set(got_nets)
        for net, ref in ref_nets.items():
            got = got_nets[net]
            assert got.initial == ref.initial, (slot, net)
            assert np.array_equal(got.times, ref.times), (slot, net)


class TestShardedBitIdentity:
    def test_results_bit_identical_to_standalone(self, sharded, circuit,
                                                 library, compiled):
        service, key = sharded
        jobs = make_jobs(circuit, 8, seed=3)
        handles = [service.submit(key, pairs) for pairs in jobs]
        results = [h.result(timeout=180) for h in handles]
        engine = GpuWaveSim(circuit, library, compiled=compiled,
                            config=SimulationConfig())
        for pairs, result in zip(jobs, results):
            assert_bit_identical(pairs, result, engine)

    def test_pipe_result_transport(self, sharded, circuit):
        service, key = sharded
        before = service.metrics()
        jobs = make_jobs(circuit, 4, seed=21)
        handles = [service.submit(key, pairs) for pairs in jobs]
        results = [handle.result(timeout=180) for handle in handles]
        metrics = service.metrics()
        # The payload rides the control pipe: at least the stimuli went
        # out and at least the packed result planes came back.
        stimuli = sum(2 * pair.v1.nbytes for pairs in jobs for pair in pairs)
        planes = sum(array.nbytes for result in results
                     for array in result.plane.packed())
        assert metrics.ipc_tx_bytes - before.ipc_tx_bytes >= stimuli
        assert metrics.ipc_rx_bytes - before.ipc_rx_bytes >= planes
        assert metrics.shards  # per-shard metrics dimension exists
        for direction in ("ipc_tx_bytes", "ipc_rx_bytes"):
            assert sum(s[direction] for s in metrics.shards.values()) == \
                getattr(metrics, direction)
        assert sum(s["dispatches"] for s in metrics.shards.values()) >= 1
        assert metrics.shard_latency_ms  # shard dimension on percentiles
        assert all(pcts["p95"] >= pcts["p50"] >= 0.0
                   for pcts in metrics.shard_latency_ms.values())

    def test_large_messages_both_ways(self, library, shard_count):
        """Batch messages over the 64 KiB pipe buffer and replies over
        1 MiB, two batches at once, all nets recorded: bit-identical to
        standalone and no deadlock."""
        big = random_circuit("svc_big", 160, 600, seed=5)
        compiled = compile_circuit(big, library)
        config = SimulationConfig(record_all_nets=True)
        jobs = make_jobs(big, 8, pairs_each=64, seed=51)
        service = SimulationService(
            config=sharded_config(shard_count, max_batch_slots=256))
        try:
            key = service.register_circuit(big, library, compiled=compiled)
            handles = [service.submit(key, pairs, config=config)
                       for pairs in jobs]
            results = [h.result(timeout=180) for h in handles]
            shards = service.metrics().shards
        finally:
            service.close()
        # Two batches of four jobs: each sends 2 x 256 x 160 stimulus
        # bytes and gets a packed plane of over 1 MiB back.
        assert sum(s["dispatches"] for s in shards.values()) == 2
        assert 2 * 256 * len(big.inputs) > 64 * 1024
        plane_bytes = [sum(array.nbytes for result in batch
                           for array in result.plane.packed())
                       for batch in (results[:4], results[4:])]
        assert min(plane_bytes) > 1 << 20
        assert sum(s["ipc_rx_bytes"] for s in shards.values()) > \
            sum(plane_bytes)
        engine = GpuWaveSim(big, library, compiled=compiled, config=config)
        for pairs, result in zip(jobs, results):
            reference = engine.run(pairs).plane
            assert result.plane.nets == reference.nets
            for got, ref in zip(result.plane.packed(), reference.packed()):
                assert np.array_equal(got, ref)

    def test_plan_cache_warm_before_first_batch(self, sharded):
        # Registration broadcasts the parent's already-built CircuitPlans
        # to every shard, so no shard — busy or idle — has ever missed.
        service, _ = sharded
        router = service._router
        for index in range(router.num_workers):
            info = router.ping(index, timeout_s=30.0)
            assert info is not None, f"shard {index} did not answer ping"
            stats = info["plan_cache"]
            assert stats["entries"] >= 1
            assert stats["misses"] == 0

    def test_monte_carlo_bit_identical(self, sharded, circuit, library,
                                       compiled, kernel_table):
        # Monte-Carlo die factors must use job-local slot indices no
        # matter which shard and batch position a job landed in.
        service, key = sharded
        variation = ProcessVariation(sigma=0.05, seed=9)
        jobs = make_jobs(circuit, 4, seed=7)
        handles = [service.submit(key, pairs, kernel_table=kernel_table,
                                  variation=variation)
                   for pairs in jobs]
        results = [h.result(timeout=180) for h in handles]
        engine = GpuWaveSim(circuit, library, compiled=compiled,
                            config=SimulationConfig())
        for pairs, result in zip(jobs, results):
            assert_bit_identical(pairs, result, engine,
                                 kernel_table=kernel_table,
                                 variation=variation)


class TestShardedRegistration:
    def test_pooled_compile_is_broadcast(self, library, shard_count,
                                         monkeypatch):
        # Registration without ``compiled`` takes the pooled compile —
        # three calls, one compile — and still warms every shard.
        import repro.simulation.pool as pool
        compiles = []
        original = pool.compile_circuit
        monkeypatch.setattr(pool, "compile_circuit",
                            lambda *args: (compiles.append(1)
                                           or original(*args)))
        circuit = random_circuit("register-sharded", 8, 60, seed=22)
        pairs = make_jobs(circuit, 1, seed=23)[0]
        with SimulationService(config=sharded_config(shard_count)) as service:
            keys = {service.register_circuit(circuit, library)
                    for _ in range(3)}
            assert len(keys) == 1 and len(compiles) == 1
            router = service._router
            for index in range(router.num_workers):
                info = router.ping(index, timeout_s=30.0)
                assert info is not None, f"shard {index} did not answer"
                assert info["plan_cache"]["misses"] == 0
            key = keys.pop()
            result = service.submit(key, pairs).result(timeout=180)
            engine = GpuWaveSim(circuit, library,
                                compiled=service.circuit(key),
                                config=SimulationConfig())
        assert_bit_identical(pairs, result, engine)


class TestEqualWork:
    def test_shards_do_the_same_work_as_in_process(self, circuit, library,
                                                   compiled, shard_count):
        # One stream, two passes, cache off: a shard keeps nothing
        # between batches, so every pass evaluates what the in-process
        # service evaluates and splices nothing.
        jobs = make_jobs(circuit, 16, seed=61)

        def per_job_work(config):
            with SimulationService(config=config) as service:
                key = service.register_circuit(circuit, library,
                                               compiled=compiled)
                passes = []
                for _ in range(2):
                    handles = [service.submit(key, pairs) for pairs in jobs]
                    passes.append([h.result(timeout=180) for h in handles])
            return passes

        in_process = per_job_work(sharded_config(0))
        sharded = per_job_work(sharded_config(shard_count))
        for inproc_pass, sharded_pass in zip(in_process, sharded):
            assert ([r.gate_evaluations for r in sharded_pass]
                    == [r.gate_evaluations for r in inproc_pass])
            assert all(r.report.lanes_spliced == 0 for r in sharded_pass)
            assert all(r.gate_evaluations > 0 for r in sharded_pass)


class TestConcurrentRegistration:
    def test_racing_first_batches_of_fresh_groups(
            self, circuit, library, compiled, kernel_table, shard_count,
            monkeypatch):
        """Submitters register their jobs' groups and dispatch the
        batches they fill, so two threads can race the first batches of
        a fresh group to the shards.  Every group message must land
        before any batch of its group — a slow registration send
        (20 ms) holds the window open."""
        real_send = router_module.ShardRouter._send

        def slow_group_send(self, handle, message, generation=None):
            if message[0] == "group":
                time.sleep(0.02)
            return real_send(self, handle, message, generation)

        monkeypatch.setattr(router_module.ShardRouter, "_send",
                            slow_group_send)
        variations = [ProcessVariation(sigma=0.05, seed=seed)
                      for seed in range(8)]  # eight compatibility groups
        jobs = {name: make_jobs(circuit, len(variations), seed=seed)
                for name, seed in (("a", 81), ("b", 82))}
        results, errors = {}, []
        barrier = threading.Barrier(len(jobs))
        # Two slots per job: every job fills its batch, and its
        # submitting thread dispatches it.
        with SimulationService(config=sharded_config(
                shard_count, max_batch_slots=2)) as service:
            key = service.register_circuit(circuit, library,
                                           compiled=compiled)

            def client(name):
                try:
                    handles = []
                    for pairs, variation in zip(jobs[name], variations):
                        barrier.wait(timeout=60)
                        handles.append(service.submit(
                            key, pairs, kernel_table=kernel_table,
                            variation=variation))
                    results[name] = [h.result(timeout=180)
                                     for h in handles]
                except Exception as error:  # noqa: BLE001 - reported below
                    errors.append(repr(error))

            threads = [threading.Thread(target=client, args=(name,))
                       for name in jobs]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=240)
            metrics = service.metrics()
        assert errors == []
        assert metrics.jobs_failed == 0 and metrics.shard_errors == 0
        engine = GpuWaveSim(circuit, library, compiled=compiled,
                            config=SimulationConfig())
        for name, job_pairs in jobs.items():
            for pairs, variation, result in zip(job_pairs, variations,
                                                results[name]):
                assert_bit_identical(pairs, result, engine,
                                     kernel_table=kernel_table,
                                     variation=variation)


class TestWholeStats:
    def test_shard_reply_carries_the_whole_record(self, circuit, library,
                                                  compiled, shard_count):
        """Each job's report reads the same in-process and on shards:
        the ``done`` reply carries the engine's stats whole, not a
        chosen few of its counters."""
        jobs = make_jobs(circuit, 8, seed=67)
        # Quiet pairs settle by lookup, so lanes_skipped has something
        # to carry.
        for pairs in jobs[::2]:
            pairs[0] = PatternPair(pairs[0].v1, pairs[0].v1)

        def reports(config):
            with SimulationService(config=config) as service:
                key = service.register_circuit(circuit, library,
                                               compiled=compiled)
                handles = [service.submit(key, pairs) for pairs in jobs]
                return [h.result(timeout=180).report for h in handles]

        def record(report):
            (attempt,) = report.chunks[0].attempts
            return (report.gate_evaluations, report.lanes_skipped,
                    report.lanes_spliced, report.backend,
                    sorted(report.phase_seconds), attempt.waveform_capacity,
                    attempt.engine_retries)

        in_process = [record(r) for r in reports(sharded_config(0))]
        sharded = [record(r) for r in reports(sharded_config(shard_count))]
        assert sharded == in_process
        assert all(lanes_skipped > 0 and backend and phases
                   for _, lanes_skipped, _, backend, phases, *_ in sharded)


class TestShardDeath:
    def test_shard_death_storm(self, circuit, library, compiled,
                               shard_count, monkeypatch):
        """SIGKILL one shard mid-batch during a 64-job run.

        Every job must still settle with correct bits, the dead shard
        must be respawned exactly once, and the single in-flight batch
        (window 1) re-queued exactly once.
        """
        # Hold every batch in the shard for 250 ms so the kill lands
        # while one is provably in flight (spawned children inherit the
        # environment and resolve it at their first seam crossing).
        monkeypatch.setenv("REPRO_FAULTS", "shard.dispatch:delay@p=1,ms=250")
        faults.reset()
        monkeypatch.setattr(router_module, "SHARD_WINDOW", 1)
        jobs = make_jobs(circuit, 64, pairs_each=1, seed=13)
        config = sharded_config(shard_count, max_batch_slots=8)
        service = SimulationService(config=config)
        try:
            key = service.register_circuit(circuit, library,
                                           compiled=compiled)
            handles = [service.submit(key, pairs) for pairs in jobs]
            router = service._router
            victim = None
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                stats = router.stats()
                busy = [int(idx) for idx, s in stats["shards"].items()
                        if s["inflight"] >= 1]
                if busy:
                    victim = busy[0]
                    break
                time.sleep(0.01)
            assert victim is not None, "no shard ever had an in-flight batch"
            os.kill(router.shard_pid(victim), signal.SIGKILL)

            results = [h.result(timeout=300) for h in handles]
            engine = GpuWaveSim(circuit, library, compiled=compiled,
                                config=SimulationConfig())
            for pairs, result in zip(jobs, results):
                assert_bit_identical(pairs, result, engine)

            metrics = service.metrics()
            assert metrics.jobs_completed >= 64
            assert metrics.workers_replaced == 1
            # window 1 => exactly the one in-flight batch re-queued
            assert metrics.batches_requeued == 1
            stats = router.stats()
            assert stats["shards"][str(victim)]["respawns"] == 1
            assert stats["shards"][str(victim)]["requeues"] == 1
            # One hot group, one queue: every shard took batches.
            assert all(s["dispatches"] >= 1
                       for s in stats["shards"].values())
        finally:
            service.close()
            faults.reset()


class TestShardDispatch:
    """Work conservation: a free shard takes the next batch.  Each batch
    is held 300 ms in its shard, so the batches of one group overlap,
    and every shard is ready before the first is submitted."""

    def dispatch(self, circuit, library, compiled, shard_count,
                 monkeypatch, batches):
        """Run ``batches`` one-job batches of one group; returns, per
        take, the taking shard and every shard's in-flight count then
        (None while a shard is not ready), and the per-shard stats."""
        monkeypatch.setenv("REPRO_FAULTS", "shard.dispatch:delay@p=1,ms=300")
        faults.reset()
        jobs = make_jobs(circuit, batches, pairs_each=8, seed=91)
        service = SimulationService(config=sharded_config(
            shard_count, max_batch_slots=8))
        takes = []
        try:
            key = service.register_circuit(circuit, library,
                                           compiled=compiled)
            router = service._router
            for index in range(shard_count):
                assert router.ping(index, timeout_s=60.0) is not None
            dispatch = router._on_dispatch

            def spy(batch, shard):
                takes.append((shard, [
                    len(handle.inflight) if handle.ready_at is not None
                    else None for handle in router._workers]))
                return dispatch(batch, shard)

            router._on_dispatch = spy
            handles = [service.submit(key, pairs) for pairs in jobs]
            results = [h.result(timeout=180) for h in handles]
            shards = router.stats()["shards"]
        finally:
            service.close()
            faults.reset()
        assert all(result.gate_evaluations > 0 for result in results)
        return takes, shards

    def test_fewer_batches_than_shards_run_on_distinct_shards(
            self, circuit, library, compiled, shard_count, monkeypatch):
        takes, shards = self.dispatch(circuit, library, compiled,
                                      shard_count, monkeypatch, shard_count)
        assert len(takes) == shard_count
        assert all(entry["dispatches"] <= 1 for entry in shards.values())
        assert sorted(shard for shard, _ in takes) == list(range(shard_count))

    def test_no_shard_pipelines_while_another_idles(
            self, circuit, library, compiled, shard_count, monkeypatch):
        takes, shards = self.dispatch(circuit, library, compiled,
                                      shard_count, monkeypatch,
                                      2 * shard_count)
        assert len(takes) == 2 * shard_count
        for shard, inflight in takes:
            if inflight[shard]:
                assert 0 not in inflight, (shard, inflight)
        assert all(entry["dispatches"] >= 1 for entry in shards.values())


class TestBootClock:
    def test_hang_clock_starts_when_the_shard_is_ready(self, circuit,
                                                       library, compiled):
        """A full batch reaches a fresh shard while it still boots
        (~0.5 s of imports); a hang timeout below the boot time must
        not declare that shard hung."""
        jobs = make_jobs(circuit, 8, pairs_each=1, seed=71)
        service = SimulationService(config=sharded_config(
            1, max_batch_slots=8, hang_timeout_s=0.4))
        try:
            key = service.register_circuit(circuit, library,
                                           compiled=compiled)
            handles = [service.submit(key, pairs) for pairs in jobs]
            results = [h.result(timeout=180) for h in handles]
            metrics = service.metrics()
        finally:
            service.close()
        assert metrics.workers_hung == 0
        assert metrics.workers_replaced == 0
        assert metrics.batches_requeued == 0
        engine = GpuWaveSim(circuit, library, compiled=compiled,
                            config=SimulationConfig())
        for pairs, result in zip(jobs, results):
            assert_bit_identical(pairs, result, engine)


class TestShardFaultSeams:
    def test_spawn_fault_is_retried(self, circuit, library, compiled):
        # first spawn attempt dies; the router's single retry succeeds
        with faults.injected("shard.spawn:raise@n=1"):
            service = SimulationService(config=sharded_config(1))
            try:
                key = service.register_circuit(circuit, library,
                                               compiled=compiled)
                pairs = make_jobs(circuit, 1, seed=31)[0]
                result = service.submit(key, pairs).result(timeout=180)
                engine = GpuWaveSim(circuit, library, compiled=compiled,
                                    config=SimulationConfig())
                assert_bit_identical(pairs, result, engine)
            finally:
                service.close()

    def test_persistent_spawn_failure_surfaces_and_leaks_nothing(self):
        # Shard 0 spawns, shard 1 fails both attempts: construction
        # raises and takes the already-running shard 0 down with it.
        before = set(multiprocessing.active_children())
        with faults.injected("shard.spawn:raise@n=2,count=2"):
            with pytest.raises(ShardError):
                SimulationService(config=sharded_config(2))
        assert set(multiprocessing.active_children()) - before == set()

    def test_dispatch_fault_propagates_original_type(self, circuit, library,
                                                     compiled, monkeypatch):
        # a single-job batch failing inside the shard must fail that
        # job's future with the reconstructed exception type
        monkeypatch.setenv("REPRO_FAULTS", "shard.dispatch:raise@n=1")
        faults.reset()
        service = SimulationService(config=sharded_config(1))
        try:
            key = service.register_circuit(circuit, library,
                                           compiled=compiled)
            handle = service.submit(key, make_jobs(circuit, 1, seed=41)[0])
            with pytest.raises(InjectedFaultError):
                handle.result(timeout=180)
        finally:
            service.close()
            faults.reset()

    def test_dispatch_fault_isolates_poison_batch(self, circuit, library,
                                                  compiled, monkeypatch):
        # a multi-job batch failing in the shard is split into
        # singletons and re-dispatched; the fault fired once, so every
        # job still completes with correct bits
        monkeypatch.setenv("REPRO_FAULTS", "shard.dispatch:raise@n=1")
        faults.reset()
        jobs = make_jobs(circuit, 4, seed=43)
        service = SimulationService(
            config=sharded_config(1, max_batch_slots=8))
        try:
            key = service.register_circuit(circuit, library,
                                           compiled=compiled)
            handles = [service.submit(key, pairs) for pairs in jobs]
            results = [h.result(timeout=180) for h in handles]
            engine = GpuWaveSim(circuit, library, compiled=compiled,
                                config=SimulationConfig())
            for pairs, result in zip(jobs, results):
                assert_bit_identical(pairs, result, engine)
        finally:
            service.close()
            faults.reset()


    def test_second_loss_fails_the_batch(self, circuit, library, compiled,
                                         monkeypatch):
        # every dispatch kills its shard: the batch is re-queued once,
        # and its second loss fails the job
        monkeypatch.setenv("REPRO_FAULTS", "shard.dispatch:die@p=1")
        faults.reset()
        service = SimulationService(config=sharded_config(1))
        try:
            key = service.register_circuit(circuit, library,
                                           compiled=compiled)
            handle = service.submit(key, make_jobs(circuit, 1, seed=47)[0])
            error = handle.exception(timeout=180)
            metrics = service.metrics()
        finally:
            service.close()
            faults.reset()
        assert isinstance(error, WorkerLostError)
        assert str(error) == ("shard process lost while executing a "
                              "re-queued batch")
        assert metrics.workers_replaced == 2
        assert metrics.workers_hung == 0
        assert metrics.batches_requeued == 1
        assert metrics.jobs_failed == 1


    def test_unreplaceable_last_shard_fails_its_work(self, circuit, library,
                                                     compiled, monkeypatch):
        # The only shard dies at its first batch and both respawn
        # attempts fail: the re-queued batch and every later one fail
        # with ShardError instead of waiting for a shard forever.
        monkeypatch.setenv("REPRO_FAULTS", "shard.dispatch:die@p=1;"
                                           "shard.spawn:raise@n=2,count=2")
        faults.reset()
        service = SimulationService(config=sharded_config(1, idle_ms=0.0))
        try:
            key = service.register_circuit(circuit, library,
                                           compiled=compiled)
            first, second = make_jobs(circuit, 2, seed=59)
            error = service.submit(key, first).exception(timeout=180)
            late = service.submit(key, second).exception(timeout=180)
            metrics = service.metrics()
        finally:
            service.close()
            faults.reset()
        for raised in (error, late):
            assert isinstance(raised, ShardError)
            assert "every shard is broken" in str(raised)
        assert metrics.workers_replaced == 1
        assert metrics.batches_requeued == 1
        assert metrics.jobs_failed == 2


class TestShardConfig:
    def test_negative_shards_rejected(self):
        with pytest.raises(ServiceError):
            ServiceConfig(shards=-1)

    def test_retry_hint_is_computed_over_shards(self, circuit, library,
                                               compiled, monkeypatch):
        # ``workers`` configures nothing on a sharded service: the
        # backlog drains over its shards
        counts = []
        retry_after = MetricsRecorder.retry_after

        def spy(recorder, backlog, workers):
            counts.append(workers)
            return retry_after(recorder, backlog, workers)

        monkeypatch.setattr(MetricsRecorder, "retry_after", spy)
        service = SimulationService(config=sharded_config(
            2, workers=1, admission="reject", queue_depth=1,
            max_batch_slots=4096, max_wait_ms=60_000.0, idle_ms=60_000.0))
        try:
            key = service.register_circuit(circuit, library,
                                           compiled=compiled)
            first, second = make_jobs(circuit, 2, seed=53)
            service.submit(key, first)
            with pytest.raises(AdmissionError):
                service.submit(key, second)
        finally:
            service.close()
        assert counts == [2]
