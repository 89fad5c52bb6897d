"""Tests for the simulation service: batching, caching, admission, shutdown.

The load-bearing property is **bit-identity**: a job's waveforms must be
exactly what a standalone ``GpuWaveSim.run`` of the same request
produces, no matter which batch the service coalesced it into.

The service has no delta path: a near-duplicate job re-simulates in
full, and no engine run it makes captures a base or splices one.  A
batch that ran as one arena part is demultiplexed by the engine's
extractor — per-job planes come off the arena already private and
packed, equal to ``take`` slices of a standalone run.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro import faults
from repro.errors import (
    AdmissionError,
    ParameterError,
    ServiceClosedError,
    ServiceError,
)
from repro.netlist.generate import random_circuit
from repro.service import ServiceConfig, SimulationService, waveform_checksum
from repro.service.jobs import validate_job
from repro.simulation.backend import available_backends, resolve_backend
from repro.simulation.base import PatternPair, SimulationConfig
from repro.simulation.compiled import compile_circuit
from repro.simulation.gpu import GpuWaveSim
from repro.simulation.grid import SlotPlan
from repro.simulation.variation import ProcessVariation
from repro.waveform.plane import WaveformPlane


@pytest.fixture(scope="module")
def circuit():
    return random_circuit("svc", 10, 90, seed=11)


@pytest.fixture(scope="module")
def compiled(circuit, library):
    return compile_circuit(circuit, library)


def make_jobs(circuit, count, pairs_each=2, seed=0):
    rng = np.random.default_rng(seed)
    return [[PatternPair.random(len(circuit.inputs), rng)
             for _ in range(pairs_each)] for _ in range(count)]


def make_pairs(circuit, count, seed):
    rng = np.random.default_rng(seed)
    return [PatternPair.random(len(circuit.inputs), rng)
            for _ in range(count)]


def coalescing_config(**overrides):
    """Deterministic batching: generous waits, flush on fullness."""
    defaults = dict(max_batch_slots=16, max_wait_ms=2000.0, idle_ms=500.0)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def flipped(pairs, pair_index, bit):
    """``pairs`` with one chosen v2 bit flipped."""
    out = [PatternPair(p.v1.copy(), p.v2.copy()) for p in pairs]
    out[pair_index].v2[bit] ^= 1
    return out


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


class TestBatchingAndBitIdentity:
    def test_coalesced_batch_is_bit_identical(self, circuit, library,
                                              compiled):
        jobs = make_jobs(circuit, 8)
        with SimulationService(config=coalescing_config()) as service:
            key = service.register_circuit(circuit, library,
                                           compiled=compiled)
            handles = [service.submit(key, pairs) for pairs in jobs]
            results = [h.result(timeout=60) for h in handles]
            metrics = service.metrics()
        # 8 jobs x 2 slots == max_batch_slots: exactly one dispatch.
        assert metrics.batches_dispatched == 1
        assert metrics.coalesce_factor == 8.0
        assert metrics.jobs_completed == 8
        engine = GpuWaveSim(circuit, library, compiled=compiled,
                            config=SimulationConfig())
        for pairs, result in zip(jobs, results):
            assert not result.cache_hit
            assert_bit_identical(pairs, result, engine)

    def test_parametric_batch_is_bit_identical(self, circuit, library,
                                               compiled, kernel_table):
        jobs = make_jobs(circuit, 4, seed=5)
        voltages = [0.65, 0.95]
        plans = [SlotPlan.cross(len(pairs), voltages) for pairs in jobs]
        with SimulationService(config=coalescing_config()) as service:
            key = service.register_circuit(circuit, library,
                                           compiled=compiled)
            handles = [service.submit(key, pairs, plan=plan,
                                      kernel_table=kernel_table)
                       for pairs, plan in zip(jobs, plans)]
            results = [h.result(timeout=60) for h in handles]
            assert service.engine_dispatches == 1
        engine = GpuWaveSim(circuit, library, compiled=compiled,
                            config=SimulationConfig())
        for pairs, plan, result in zip(jobs, plans, results):
            assert result.slot_labels == plan.labels()
            assert_bit_identical(pairs, result, engine, plan=plan,
                                 kernel_table=kernel_table)

    def test_variation_ignores_batch_position(self, circuit, library,
                                              compiled, kernel_table):
        """Monte-Carlo die factors must use job-local slot indices."""
        variation = ProcessVariation(sigma=0.05, seed=9)
        jobs = make_jobs(circuit, 4, seed=7)
        with SimulationService(config=coalescing_config()) as service:
            key = service.register_circuit(circuit, library,
                                           compiled=compiled)
            handles = [service.submit(key, pairs, kernel_table=kernel_table,
                                      variation=variation)
                       for pairs in jobs]
            results = [h.result(timeout=60) for h in handles]
            assert service.engine_dispatches == 1
        engine = GpuWaveSim(circuit, library, compiled=compiled,
                            config=SimulationConfig())
        # Every job — including those landing late in the shared plane —
        # must match a standalone run, where its slots start at 0.
        for pairs, result in zip(jobs, results):
            assert_bit_identical(pairs, result, engine,
                                 kernel_table=kernel_table,
                                 variation=variation)

    @pytest.mark.parametrize("transport", ["in-process", "shards"])
    def test_first_slot_places_the_job_in_the_plane(
            self, circuit, library, compiled, kernel_table, shard_count,
            transport):
        """A ``first_slot=k`` job equals slots ``k … k+n-1`` of a
        whole-plane Monte-Carlo run, and never shares a cache entry with
        its ``first_slot=0`` twin."""
        variation = ProcessVariation(sigma=0.05, seed=9)
        pairs = make_jobs(circuit, 1, pairs_each=6, seed=21)[0]
        first, count = 2, 3
        job_pairs = pairs[first:first + count]
        config = ServiceConfig(
            shards=0 if transport == "in-process" else shard_count)
        with SimulationService(config=config) as service:
            key = service.register_circuit(circuit, library,
                                           compiled=compiled)
            placed = service.submit(key, job_pairs, kernel_table=kernel_table,
                                    variation=variation, first_slot=first)
            placed_result = placed.result(timeout=180)
            twin = service.submit(key, job_pairs, kernel_table=kernel_table,
                                  variation=variation)
            twin_result = twin.result(timeout=180)
        assert placed.fingerprint != twin.fingerprint
        assert not twin_result.cache_hit
        engine = GpuWaveSim(circuit, library, compiled=compiled,
                            config=SimulationConfig())
        whole = engine.run(pairs, kernel_table=kernel_table,
                           variation=variation)
        differs = False
        for local in range(count):
            for net, ref in whole.waveforms[first + local].items():
                got = placed_result.waveforms[local][net]
                assert got.initial == ref.initial, (local, net)
                assert np.array_equal(got.times, ref.times), (local, net)
                other = twin_result.waveforms[local][net]
                differs |= not np.array_equal(other.times, got.times)
        assert differs  # the twin's die factors are slots 0 … n-1's
        assert_bit_identical(job_pairs, twin_result, engine,
                             kernel_table=kernel_table, variation=variation)

    def test_static_voltages_do_not_coalesce(self, circuit, library,
                                             compiled):
        """Two valid static jobs at different voltages must not share a
        plane (the engine rejects static multi-voltage planes)."""
        jobs = make_jobs(circuit, 2, seed=3)
        with SimulationService(config=coalescing_config()) as service:
            key = service.register_circuit(circuit, library,
                                           compiled=compiled)
            first = service.submit(key, jobs[0], voltage=0.8)
            second = service.submit(key, jobs[1], voltage=0.6)
            r1 = first.result(timeout=60)
            r2 = second.result(timeout=60)
            assert service.engine_dispatches == 2
        assert r1.slot_labels == [(0, 0.8), (1, 0.8)]
        assert r2.slot_labels == [(0, 0.6), (1, 0.6)]

    def test_incompatible_configs_do_not_coalesce(self, circuit, library,
                                                  compiled):
        jobs = make_jobs(circuit, 2, seed=4)
        with SimulationService(config=coalescing_config()) as service:
            key = service.register_circuit(circuit, library,
                                           compiled=compiled)
            a = service.submit(key, jobs[0],
                               config=SimulationConfig(record_all_nets=True))
            b = service.submit(key, jobs[1],
                               config=SimulationConfig(record_all_nets=False))
            ra, rb = a.result(timeout=60), b.result(timeout=60)
            assert service.engine_dispatches == 2
        assert len(ra.waveforms[0]) > len(rb.waveforms[0])


class TestConcurrentSubmission:
    def test_two_threads_get_their_own_slices(self, circuit, library,
                                              compiled):
        """Overlapping concurrent submissions demux correctly: every
        thread's results are bit-identical to its own standalone runs."""
        per_thread = 6
        job_sets = {
            name: make_jobs(circuit, per_thread, seed=seed)
            for name, seed in (("t1", 21), ("t2", 22))
        }
        # One identical job in both threads: overlapping fingerprints.
        job_sets["t2"][0] = [PatternPair(p.v1.copy(), p.v2.copy())
                             for p in job_sets["t1"][0]]
        outcomes = {}

        with SimulationService(config=coalescing_config(
                max_batch_slots=8, workers=2)) as service:
            key = service.register_circuit(circuit, library,
                                           compiled=compiled)

            def worker(name):
                handles = [service.submit(key, pairs)
                           for pairs in job_sets[name]]
                outcomes[name] = [h.result(timeout=60) for h in handles]

            threads = [threading.Thread(target=worker, args=(name,))
                       for name in job_sets]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
            metrics = service.metrics()

        assert metrics.jobs_completed == 2 * per_thread
        assert metrics.jobs_failed == 0
        engine = GpuWaveSim(circuit, library, compiled=compiled,
                            config=SimulationConfig())
        for name, jobs in job_sets.items():
            for pairs, result in zip(jobs, outcomes[name]):
                assert_bit_identical(pairs, result, engine)

    def test_submitters_and_clock_lose_no_job(self, circuit, library,
                                              compiled):
        """Four submitting threads on a short switch interval fold jobs
        of one and two slots into shared batches while the batch thread
        flushes on sub-millisecond clocks: every job is batched and
        settled exactly once, and the backlog returns to zero — a lost
        update to the batcher or the backlog would break a count."""
        job_sets = [make_jobs(circuit, 24, pairs_each=1 + k % 2,
                              seed=40 + k) for k in range(4)]
        outcomes = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with SimulationService(config=coalescing_config(
                    max_batch_slots=8, max_wait_ms=1.0, idle_ms=0.5,
                    cache_entries=0)) as service:
                key = service.register_circuit(circuit, library,
                                               compiled=compiled)

                def worker(k):
                    handles = [service.submit(key, pairs)
                               for pairs in job_sets[k]]
                    outcomes[k] = [h.result(timeout=60) for h in handles]

                threads = [threading.Thread(target=worker, args=(k,))
                           for k in range(len(job_sets))]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                    assert not thread.is_alive()
                metrics = service.metrics()
        finally:
            sys.setswitchinterval(interval)
        jobs = [pairs for job_set in job_sets for pairs in job_set]
        assert metrics.jobs_completed == metrics.jobs_batched == len(jobs)
        assert metrics.slots_dispatched == sum(len(pairs) for pairs in jobs)
        assert metrics.queue_depth == 0
        engine = GpuWaveSim(circuit, library, compiled=compiled,
                            config=SimulationConfig())
        for k, job_set in enumerate(job_sets):
            for index in (0, len(job_set) - 1):
                assert_bit_identical(job_set[index], outcomes[k][index],
                                     engine)


class TestResultCache:
    def test_cache_hit_skips_engine_dispatch(self, circuit, library,
                                             compiled):
        pairs = make_jobs(circuit, 1, seed=8)[0]
        with SimulationService(config=coalescing_config(
                max_batch_slots=2)) as service:
            key = service.register_circuit(circuit, library,
                                           compiled=compiled)
            first = service.submit(key, pairs).result(timeout=60)
            dispatches = service.engine_dispatches
            assert dispatches == 1
            second = service.submit(key, pairs).result(timeout=60)
            assert service.engine_dispatches == dispatches  # no new dispatch
            metrics = service.metrics()
        assert not first.cache_hit
        assert second.cache_hit
        assert second.engine == "cache"
        assert second.gate_evaluations == 0
        assert second.report.chunks[0].from_checkpoint
        assert metrics.cache["hits"] == 1
        # Cached waveforms are the same data.
        for slot in range(first.num_slots):
            for net, ref in first.waveforms[slot].items():
                assert np.array_equal(second.waveforms[slot][net].times,
                                      ref.times)

    def test_different_stimuli_miss(self, circuit, library, compiled):
        jobs = make_jobs(circuit, 2, seed=9)
        with SimulationService(config=coalescing_config(
                max_batch_slots=2)) as service:
            key = service.register_circuit(circuit, library,
                                           compiled=compiled)
            service.submit(key, jobs[0]).result(timeout=60)
            service.submit(key, jobs[1]).result(timeout=60)
            assert service.engine_dispatches == 2

    def test_cache_disabled(self, circuit, library, compiled):
        pairs = make_jobs(circuit, 1, seed=10)[0]
        with SimulationService(config=coalescing_config(
                max_batch_slots=2, cache_entries=0)) as service:
            key = service.register_circuit(circuit, library,
                                           compiled=compiled)
            service.submit(key, pairs).result(timeout=60)
            repeat = service.submit(key, pairs).result(timeout=60)
            assert service.engine_dispatches == 2
        assert not repeat.cache_hit

    def test_cache_hit_copies_do_not_alias_slots(self, circuit, library,
                                                 compiled):
        pairs = make_jobs(circuit, 1, seed=12)[0]
        with SimulationService(config=coalescing_config(
                max_batch_slots=2)) as service:
            key = service.register_circuit(circuit, library,
                                           compiled=compiled)
            service.submit(key, pairs).result(timeout=60)
            hit1 = service.submit(key, pairs).result(timeout=60)
            # Slot views are read-only: a caller cannot empty (or
            # otherwise edit) what later hits are served from.
            with pytest.raises((AttributeError, TypeError)):
                hit1.waveforms[0].clear()
            with pytest.raises(TypeError):
                hit1.waveforms[0]["x"] = None
            hit2 = service.submit(key, pairs).result(timeout=60)
        assert hit2.cache_hit
        assert len(hit2.waveforms[0]) > 0


class TestAdmissionControl:
    def test_reject_policy_raises_with_retry_hint(self, circuit, library,
                                                  compiled):
        jobs = make_jobs(circuit, 3, seed=13)
        config = coalescing_config(queue_depth=2, admission="reject",
                                   max_batch_slots=64)
        with SimulationService(config=config) as service:
            key = service.register_circuit(circuit, library,
                                           compiled=compiled)
            # Two jobs sit in the batcher (generous waits, plane not
            # full), saturating the backlog.
            service.submit(key, jobs[0])
            service.submit(key, jobs[1])
            with pytest.raises(AdmissionError) as excinfo:
                service.submit(key, jobs[2])
            assert excinfo.value.retry_after_seconds > 0
            assert service.metrics().jobs_rejected == 1
        # close() drains: the admitted jobs still completed.
        assert service.metrics().jobs_completed == 2

    def test_invalid_jobs_rejected_synchronously(self, circuit, library,
                                                 compiled):
        with SimulationService(config=coalescing_config()) as service:
            key = service.register_circuit(circuit, library,
                                           compiled=compiled)
            with pytest.raises(ServiceError, match="at least one"):
                service.submit(key, [])
            rng = np.random.default_rng(0)
            wrong = [PatternPair.random(len(circuit.inputs) + 1, rng)]
            with pytest.raises(ServiceError, match="width"):
                service.submit(key, wrong)
            pairs = make_jobs(circuit, 1, seed=15)[0]
            multi = SlotPlan.cross(len(pairs), [0.6, 0.8])
            with pytest.raises(ServiceError, match="static"):
                service.submit(key, pairs, plan=multi)
            with pytest.raises(ServiceError, match="unknown circuit"):
                service.submit("not-a-fingerprint", pairs)

    def test_kernel_box_edges_are_admitted(self, circuit, library, compiled,
                                           kernel_table):
        """The fitted box ``[v_min, v_max]`` includes its endpoints."""
        space = kernel_table.space
        assert (space.v_min, space.v_max) == (0.55, 1.10)
        pairs = make_jobs(circuit, 1, seed=24)[0]
        plan = SlotPlan.cross(len(pairs), [0.55, 1.10])
        with SimulationService(config=coalescing_config(
                max_batch_slots=4)) as service:
            key = service.register_circuit(circuit, library,
                                           compiled=compiled)
            result = service.submit(key, pairs, plan=plan,
                                    kernel_table=kernel_table
                                    ).result(timeout=60)
        engine = GpuWaveSim(circuit, library, compiled=compiled,
                            config=SimulationConfig())
        assert_bit_identical(pairs, result, engine, plan=plan,
                             kernel_table=kernel_table)

    @pytest.mark.parametrize("voltage", [0.5499, 1.1001])
    def test_voltage_outside_the_kernel_box_is_refused(
            self, circuit, library, compiled, kernel_table, voltage):
        """A voltage past the box would run on extrapolated delay
        polynomials: it raises at submit and the job is never queued."""
        pairs = make_jobs(circuit, 1, seed=25)[0]
        plan = SlotPlan.cross(len(pairs), [0.8, voltage])
        with SimulationService(config=coalescing_config()) as service:
            key = service.register_circuit(circuit, library,
                                           compiled=compiled)
            with pytest.raises(ParameterError) as excinfo:
                service.submit(key, pairs, plan=plan,
                               kernel_table=kernel_table)
            assert f"{voltage:g} V" in str(excinfo.value)
            assert "[0.55, 1.1] V" in str(excinfo.value)
            metrics = service.metrics()
        assert metrics.jobs_submitted == 0
        assert service.engine_dispatches == 0

    @pytest.mark.parametrize("voltage", [0.55 - 1e-6, 1.10 + 1e-6])
    def test_one_microvolt_past_the_box_raises(self, circuit, compiled,
                                               kernel_table, voltage):
        """The pre-check hands a plan past the box to
        ``ParameterSpace.require``; the edges themselves pass."""
        pairs = make_jobs(circuit, 1, seed=26)[0]
        validate_job(compiled, pairs, SlotPlan.cross(len(pairs), [0.55, 1.10]),
                     kernel_table)
        with pytest.raises(ParameterError,
                           match=rf"supply {voltage:.10g} V is outside the "
                                 r"characterized box \[0.55, 1.1\] V"):
            validate_job(compiled, pairs,
                         SlotPlan.cross(len(pairs), [0.8, voltage]),
                         kernel_table)


def count_compiles(monkeypatch):
    """Spy on every ``compile_circuit`` a registration can reach."""
    import repro.service.core as core
    import repro.simulation.pool as pool
    compiles = []
    for module in (core, pool):
        original = module.compile_circuit
        monkeypatch.setattr(
            module, "compile_circuit",
            lambda *args, original=original: (compiles.append(args[0])
                                              or original(*args)))
    return compiles


class TestRegistration:
    def test_registering_again_is_a_lookup(self, library, monkeypatch):
        compiles = count_compiles(monkeypatch)
        circuit = random_circuit("register-once", 8, 60, seed=21)
        with SimulationService() as service:
            keys = [service.register_circuit(circuit, library)
                    for _ in range(3)]
        assert len(set(keys)) == 1
        assert compiles == [circuit]

    def test_compiled_is_registered_as_given(self, circuit, library,
                                             compiled, monkeypatch):
        compiles = count_compiles(monkeypatch)
        with SimulationService() as service:
            key = service.register_circuit(circuit, library,
                                           compiled=compiled)
            assert service.circuit(key) is compiled
        assert compiles == []


class TestShutdown:
    def test_close_drains_pending_jobs(self, circuit, library, compiled):
        jobs = make_jobs(circuit, 3, seed=16)
        service = SimulationService(config=coalescing_config(
            max_batch_slots=64))
        key = service.register_circuit(circuit, library, compiled=compiled)
        handles = [service.submit(key, pairs) for pairs in jobs]
        service.close()  # jobs were still waiting in the batcher
        for handle in handles:
            assert handle.result(timeout=60).num_slots == 2
        assert service.metrics().jobs_completed == 3

    def test_close_without_drain_fails_pending(self, circuit, library,
                                               compiled):
        jobs = make_jobs(circuit, 2, seed=17)
        service = SimulationService(config=coalescing_config(
            max_batch_slots=64))
        key = service.register_circuit(circuit, library, compiled=compiled)
        handles = [service.submit(key, pairs) for pairs in jobs]
        service.close(drain=False)
        for handle in handles:
            with pytest.raises(ServiceClosedError):
                handle.result(timeout=60)
        assert service.metrics().jobs_failed == 2
        assert service.metrics().queue_depth == 0

    def test_close_racing_submit_settles_the_job(self, circuit, library,
                                                 compiled, monkeypatch):
        """A close() landing while a submit is past its first closed
        check: the job either raises at submit or resolves — it is never
        left pending with its backlog slot taken."""
        import repro.service.core as core

        service = SimulationService(config=coalescing_config(
            max_batch_slots=64))
        key = service.register_circuit(circuit, library, compiled=compiled)
        real_validate = core.validate_job
        calls = []

        def validate_then_close(*args):
            real_validate(*args)
            if not calls:
                calls.append(None)
                service.close()

        monkeypatch.setattr(core, "validate_job", validate_then_close)
        try:
            handle = service.submit(key, make_jobs(circuit, 1, seed=26)[0])
        except ServiceClosedError:
            handle = None
        if handle is not None:
            handle.exception(timeout=5)
        assert calls
        assert service.metrics().queue_depth == 0

    def test_submit_after_close_raises(self, circuit, library, compiled):
        service = SimulationService(config=coalescing_config())
        key = service.register_circuit(circuit, library, compiled=compiled)
        service.close()
        with pytest.raises(ServiceClosedError):
            service.submit(key, make_jobs(circuit, 1, seed=18)[0])
        service.close()  # idempotent

    def test_register_unknown_circuit_errors(self, library):
        with SimulationService(config=coalescing_config()) as service:
            with pytest.raises(ServiceError, match="unknown circuit"):
                service.circuit("deadbeef")


class TestWorkConservingDispatch:
    """The idle flush needs a free worker as well as ``idle_ms`` of quiet:
    while every worker is busy, pending jobs keep coalescing, and a
    settled batch that frees a worker wakes the batch thread at once.
    A lost wake would stall the held jobs until ``max_wait_ms`` (a
    minute here), past every result timeout below."""

    @pytest.fixture(params=["threads", "shards"])
    def shards(self, request, shard_count):
        return 0 if request.param == "threads" else shard_count

    @staticmethod
    def hold_settlement(monkeypatch, count):
        """Park the settlement of the first ``count`` batches — their
        workers stay busy — until the returned event is set.  (A shard's
        replies settle one after another, so a shard's later batches
        wait behind a held one.)"""
        held = []
        release = threading.Event()
        lock = threading.Lock()
        real = SimulationService._conclude

        def conclude(self, batch, jobs, settle):
            with lock:
                hold = len(held) < count
                if hold:
                    held.append(batch)
            if hold:
                release.wait(timeout=60)
            real(self, batch, jobs, settle)

        monkeypatch.setattr(SimulationService, "_conclude", conclude)
        return held, release

    @staticmethod
    def wait_for(predicate, timeout=30.0):
        deadline = time.monotonic() + timeout
        while not predicate():
            assert time.monotonic() < deadline, "timed out"
            time.sleep(0.002)

    def test_busy_workers_coalesce_bursts_past_idle(
            self, circuit, library, compiled, monkeypatch, shards):
        """Two bursts 100 ms apart (20x ``idle_ms``) ride one batch when
        every worker is held in between: the window alone no longer
        flushes them."""
        workers = max(shards, 1)
        held, release = self.hold_settlement(monkeypatch, workers)
        blockers = make_jobs(circuit, workers, seed=60)
        bursts = make_jobs(circuit, 6, seed=61)
        service = SimulationService(config=ServiceConfig(
            max_wait_ms=60_000.0, idle_ms=5.0, shards=shards))
        try:
            key = service.register_circuit(circuit, library,
                                           compiled=compiled)
            handles = []
            for index, pairs in enumerate(blockers):
                # One batch per blocker: each is taken before the next.
                handles.append(service.submit(key, pairs))
                self.wait_for(
                    lambda: service.engine_dispatches == index + 1)
            self.wait_for(lambda: held)
            handles += [service.submit(key, pairs) for pairs in bursts[:3]]
            time.sleep(0.1)
            handles += [service.submit(key, pairs) for pairs in bursts[3:]]
            time.sleep(0.02)
            assert service.engine_dispatches == workers
            release.set()
            for handle in handles:
                assert handle.result(timeout=20).num_slots == 2
            metrics = service.metrics()
        finally:
            release.set()
            service.close()
        assert metrics.batches_dispatched == workers + 1
        assert metrics.jobs_completed == workers + 6
        assert metrics.queue_depth == 0

    def test_lone_job_dispatches_without_waiting(
            self, circuit, library, compiled, monkeypatch, shards):
        """Under defaults a lone job goes to the free worker on the batch
        thread's first look: it never sleeps on a timed clock."""
        service = SimulationService(config=ServiceConfig(shards=shards))
        timed = []
        real_wait = service._clock.wait

        def wait(timeout=None):
            if timeout is not None:
                timed.append(timeout)
            return real_wait(timeout)

        monkeypatch.setattr(service._clock, "wait", wait)
        try:
            key = service.register_circuit(circuit, library,
                                           compiled=compiled)
            handle = service.submit(key, make_jobs(circuit, 1, seed=62)[0])
            assert handle.result(timeout=20).num_slots == 2
            assert service.engine_dispatches == 1
        finally:
            service.close()
        assert timed == []

    def test_explicit_idle_holds_a_partial_batch(
            self, circuit, library, compiled, shards):
        """``coalescing_config``'s 500 ms window still holds a partial
        batch with its worker free: composition stays fullness-only."""
        service = SimulationService(config=coalescing_config(shards=shards))
        try:
            key = service.register_circuit(circuit, library,
                                           compiled=compiled)
            handle = service.submit(key, make_jobs(circuit, 1, seed=63)[0])
            time.sleep(0.05)
            assert service.engine_dispatches == 0
            assert not handle.done()
        finally:
            service.close()
        assert handle.result(timeout=20).num_slots == 2
        assert service.engine_dispatches == 1


class TestMetrics:
    def test_snapshot_shape(self, circuit, library, compiled):
        jobs = make_jobs(circuit, 8, seed=19)
        with SimulationService(config=coalescing_config(
                max_batch_slots=2)) as service:
            key = service.register_circuit(circuit, library,
                                           compiled=compiled)
            for pairs in jobs:
                service.submit(key, pairs).result(timeout=60)
            metrics = service.metrics()
        data = metrics.to_dict()
        assert data["jobs_submitted"] == 8
        assert data["jobs_completed"] == 8
        assert data["slots_dispatched"] == 16
        assert sum(metrics.occupancy_histogram.values()) == \
            metrics.batches_dispatched
        assert metrics.latency_p50_ms is not None
        assert metrics.latency_p50_ms <= metrics.latency_p99_ms
        assert "coalesce factor" in metrics.summary()

    @pytest.mark.parametrize("shards", [0, 1])
    def test_batches_queued_reads_the_one_queue(self, circuit, library,
                                                compiled, shards,
                                                monkeypatch):
        """Full batches waiting for the one busy worker count in
        ``batches_queued``, in-process as on a shard.  Every engine
        allocation is held 400 ms — through the environment, which a
        shard inherits — so the snapshot is read before the first
        batch settles."""
        monkeypatch.setenv(faults.ENV_VAR, "engine.alloc:delay@p=1,ms=400")
        faults.reset()
        jobs = make_jobs(circuit, 6, seed=71)
        service = SimulationService(config=coalescing_config(
            max_batch_slots=2, workers=1, shards=shards, cache_entries=0))
        try:
            key = service.register_circuit(circuit, library,
                                           compiled=compiled)
            handles = [service.submit(key, pairs) for pairs in jobs]
            metrics = service.metrics()
            for handle in handles:
                handle.result(timeout=120)
        finally:
            service.close()
            faults.reset()
        assert metrics.jobs_completed == 0
        assert metrics.batches_queued >= 1
        assert (f"{metrics.batches_queued} batches queued"
                in metrics.summary().splitlines()[1])
        assert service.metrics().batches_queued == 0


@pytest.fixture
def engine_runs(monkeypatch):
    """Every ``GpuWaveSim.run`` made while the fixture is live, as
    ``(keyword arguments, result)``."""
    runs = []
    real_run = GpuWaveSim.run

    def recorded(self, *args, **kwargs):
        result = real_run(self, *args, **kwargs)
        runs.append((kwargs, result))
        return result

    monkeypatch.setattr(GpuWaveSim, "run", recorded)
    return runs


def near_duplicate_stream(circuit, seed):
    """The ledger's ``service_stream`` mix: fresh jobs, exact repeats,
    one flipped ``v2`` bit and one moved supply of an earlier job — two
    pairs per job at two of five supplies."""
    supplies = (0.6, 0.7, 0.8, 0.9, 1.0)
    rng = np.random.default_rng(seed)
    width = len(circuit.inputs)
    jobs = []
    for kind in ("fresh", "fresh", "repeat", "flip", "move") * 3:
        if kind == "fresh":
            pairs = [PatternPair.random(width, rng) for _ in range(2)]
            chosen = sorted(rng.choice(len(supplies), 2,
                                       replace=False).tolist())
        else:
            pairs, chosen = jobs[int(rng.integers(len(jobs)))]
            if kind == "flip":
                pairs = flipped(pairs, int(rng.integers(2)),
                                int(rng.integers(width)))
            elif kind == "move":
                free = [s for s in range(len(supplies)) if s not in chosen]
                chosen = sorted([chosen[0], int(rng.choice(free))])
        jobs.append((pairs, chosen))
    return [(pairs, SlotPlan.cross(2, [supplies[s] for s in chosen]))
            for pairs, chosen in jobs]


class TestNoDeltaPath:
    def test_service_never_captures_or_splices(self, circuit, library,
                                               compiled, kernel_table,
                                               engine_runs):
        """Near-duplicates of settled jobs re-simulate in full: no engine
        run is handed a delta plan or asked to capture a base, and every
        job equals its standalone run."""
        jobs = near_duplicate_stream(circuit, seed=31)
        with SimulationService() as service:
            key = service.register_circuit(circuit, library,
                                           compiled=compiled)
            results = [service.submit(key, pairs, plan=plan,
                                      kernel_table=kernel_table
                                      ).result(timeout=60)
                       for pairs, plan in jobs]
            metrics = service.metrics()
        assert engine_runs
        for kwargs, _ in engine_runs:
            assert "delta" not in kwargs and "capture_base" not in kwargs
        assert metrics.lanes_spliced == 0
        assert metrics.cache["hits"] >= 3       # the exact repeats
        engine = GpuWaveSim(circuit, library, compiled=compiled,
                            config=SimulationConfig())
        for (pairs, plan), result in zip(jobs, results):
            assert result.stats.lanes_spliced == 0
            alone = engine.run(pairs, plan=plan, kernel_table=kernel_table)
            assert (waveform_checksum(result.waveforms)
                    == waveform_checksum(alone.waveforms))


@pytest.mark.parametrize("backend_name", available_backends())
class TestSegmentedDemux:
    """Per-job planes == ``take`` slices of a standalone run of the same
    plane."""

    def serve(self, circuit, library, compiled, kernel_table, backend_name,
              jobs, record_all=False, **overrides):
        """Stream ``jobs`` (pair lists) through a fresh service; returns
        ``(results, config)``."""
        # No pruning: a random pair toggling under a quarter of the ten
        # inputs would run lane-tracked beside its dense neighbours,
        # and a plane lowered two ways is a partitioned one.
        config = SimulationConfig(backend=backend_name, prune_inactive=False,
                                  record_all_nets=record_all)
        with SimulationService(config=coalescing_config(
                **overrides)) as service:
            key = service.register_circuit(circuit, library,
                                           compiled=compiled)
            handles = [service.submit(key, pairs, config=config,
                                      kernel_table=kernel_table)
                       for pairs in jobs]
            results = [handle.result(timeout=120) for handle in handles]
        return results, config

    def standalone(self, circuit, library, compiled, kernel_table, config,
                   jobs):
        """The jobs as one plane, the way the service combines them,
        through a plain engine; returns the per-job plane slices."""
        plans = [SlotPlan.uniform(len(pairs), 0.8) for pairs in jobs]
        offsets = np.cumsum([0] + [len(pairs) for pairs in jobs])
        engine = GpuWaveSim(circuit, library, compiled=compiled,
                            config=config)
        alone = engine.run(
            [pair for pairs in jobs for pair in pairs],
            plan=SlotPlan.concat(plans, offsets[:-1]),
            kernel_table=kernel_table,
            global_slots=np.concatenate([np.arange(len(pairs))
                                         for pairs in jobs]))
        return [alone.plane.take(np.arange(lo, hi))
                for lo, hi in zip(offsets, offsets[1:])]

    def assert_served(self, results, expected):
        for result, plane in zip(results, expected):
            assert result.plane.nets == plane.nets
            assert result.plane.checksum() == plane.checksum()
            assert result.plane.layout_intact()
        # No result shares memory with another.
        planes = [result.plane for result in results]
        for position, plane in enumerate(planes):
            for other in planes[position + 1:]:
                assert not np.shares_memory(plane.times, other.times)
                assert not np.shares_memory(plane.counts, other.counts)

    @pytest.mark.parametrize("record_all", [False, True])
    def test_mixed_widths_in_one_arena_part(
            self, circuit, library, compiled, kernel_table, backend_name,
            record_all, engine_runs):
        """Five jobs of 3, 5, 2, 4 and 2 slots fill one 16-slot batch:
        the engine serves the segments itself."""
        jobs = [make_pairs(circuit, count, seed=200 + count + k)
                for k, count in enumerate([3, 5, 2, 4, 2])]
        results, config = self.serve(
            circuit, library, compiled, kernel_table, backend_name, jobs,
            record_all=record_all)
        (kwargs, result), = engine_runs
        assert kwargs["segments"].slot_counts == (3, 5, 2, 4, 2)
        assert result.segments is not None
        expected = self.standalone(circuit, library, compiled, kernel_table,
                                   config, jobs)
        self.assert_served(results, expected)

    def test_two_workers(self, circuit, library, compiled, kernel_table,
                         backend_name, engine_runs):
        """Two full batches in flight on two worker threads, each with
        its own engine and arena."""
        jobs = [make_pairs(circuit, 4, seed=230 + k) for k in range(8)]
        results, config = self.serve(
            circuit, library, compiled, kernel_table, backend_name, jobs,
            workers=2)
        assert len(engine_runs) == 2
        assert all(result.segments is not None for _, result in engine_runs)
        expected = self.standalone(circuit, library, compiled, kernel_table,
                                   config, jobs)
        for result, plane in zip(results, expected):
            assert result.plane.checksum() == plane.checksum()

    def test_one_arena_part_is_demultiplexed_without_a_gather(
            self, circuit, library, compiled, kernel_table, backend_name,
            monkeypatch):
        """Pay-once guard: six fresh jobs in one batch cost one
        ``backend.extract`` call (the result rows, cut per job), and
        settling them gathers nothing — every ``_dense`` inside
        ``_settle_batch`` returns the plane's own payload."""
        extracts, settle_denses, settling = [], [], []
        backend = type(resolve_backend(backend_name))
        real_extract = backend.extract
        real_dense = WaveformPlane._dense
        real_settle = SimulationService._settle_batch

        def extract(self, *args, **kwargs):
            extracts.append(kwargs.get("bounds"))
            return real_extract(self, *args, **kwargs)

        def dense(self):
            times, starts = real_dense(self)
            if settling:
                settle_denses.append(times is self.times
                                     and starts is self.starts)
            return times, starts

        def settle(self, *args, **kwargs):
            settling.append(threading.current_thread())
            try:
                return real_settle(self, *args, **kwargs)
            finally:
                settling.pop()

        monkeypatch.setattr(backend, "extract", extract)
        monkeypatch.setattr(WaveformPlane, "_dense", dense)
        monkeypatch.setattr(SimulationService, "_settle_batch", settle)
        jobs = [make_pairs(circuit, 2, seed=240 + k) for k in range(6)]
        results, _ = self.serve(
            circuit, library, compiled, kernel_table, backend_name, jobs,
            max_batch_slots=12)
        assert len(results) == 6
        assert extracts == [(0, 2, 4, 6, 8, 10, 12)]
        assert settle_denses and all(settle_denses)
