"""The simulation service: admit and batch at submit → engine pool → demux.

:class:`SimulationService` is the shared front door the engines never
had: callers submit fine-grained jobs (circuit fingerprint, stimuli,
operating points, config) and get back per-job futures, while a dynamic
batcher coalesces compatible jobs into the wide slot planes the paper's
3-D parallelism (Sec. IV-B) actually needs to pay off.  The shape is
deliberately that of an inference server:

* **admission control** — a bounded backlog with a configurable policy
  (block until capacity, or reject with a retry-after hint), so a
  traffic burst degrades to backpressure instead of unbounded memory;
* **dynamic batching** — flush on fullness / age / idle
  (:mod:`repro.service.batcher`), per compatibility group.  The
  submitting thread admits its job, folds it into its group and hands
  a batch it made full to the executor, all under one lock; the batch
  thread only keeps the clocks (the ``max_wait_ms`` age flush, the
  work-conserving idle flush — ``idle_ms`` of quiet *and* a free
  worker — and the terminal flush on close) and dispatches under the
  same lock, so a job costs no hand-off between threads;
* **executor** — batches run under one supervised-worker machine
  (:mod:`repro.service.pool`) of one of two kinds: engine threads each
  owning their engine instances (the waveform-arena pool is per engine
  and not thread-safe), or, with ``shards > 0``, a
  :class:`~repro.service.router.ShardRouter` over spawned worker
  *processes* — either kind takes batches from the supervisor's one
  queue, a free worker first; each sharded batch's stimuli go out and
  its packed result plane comes back over the shard's control pipe,
  and demux happens in the parent on the plane rebuilt from that
  reply.  Either way a batch is counted at
  one dispatch site (:meth:`SimulationService._begin`) and settled at
  one outcome site (:meth:`SimulationService._conclude`);
* **demultiplexing** — each job receives exactly its slice of the
  shared plane, with a per-job :class:`~repro.runtime.report.RunReport`
  describing the batch it rode in; a finished batch is settled in one
  pass (cache admission, futures, metrics and the backlog once per
  batch, not once per job);
* **result cache** — a fingerprinted LRU (:mod:`repro.service.cache`)
  keyed by an in-memory SHA-256 job identity decided by the same fields
  as a campaign checkpoint's; hits resolve at submission time and never
  touch the batcher or an engine.  There is no delta path: a cache miss
  runs in full (``docs/architecture.md`` §12);
* **failure domains** — per-job deadlines and cancellation, worker
  supervision that replaces dead or hung workers and re-queues their
  in-flight batches once (:mod:`repro.service.pool`), poison isolation
  that re-runs a failed batch's jobs as batches of their own,
  per-compatibility-group circuit breakers
  (:mod:`repro.service.breaker`), checksummed cache entries, and
  automatic backend demotion on repeated native-kernel faults — all
  exercised by the deterministic fault-injection plans of
  :mod:`repro.faults`.

**Bit-identity contract.**  A job's waveforms are bit-identical to a
standalone ``GpuWaveSim.run`` of the same request (with
``global_slots`` from its ``first_slot``) no matter which batch it
coalesced into: the combined plane keeps every job's slots contiguous,
pattern indices are offset per job, and ``global_slots`` pins each
slot's own index (``first_slot`` + its position in the job) so
Monte-Carlo die factors ignore the job's position in the batch.

**Graceful shutdown.**  ``close()`` (or leaving the context manager)
stops intake, flushes the batcher, drains in-flight batches and joins
the workers; ``close(drain=False)`` instead fails every unfinished job
with :class:`~repro.errors.ServiceClosedError`.
"""

from __future__ import annotations

import threading
import time as _time
from concurrent.futures import InvalidStateError
from functools import partial
from typing import Dict, List, Optional, Sequence

import numpy as np

import repro.errors as _errors
from repro import faults
from repro.cells.library import CellLibrary
from repro.errors import (
    AdmissionError,
    CircuitOpenError,
    JobCancelledError,
    JobDeadlineError,
    ServiceClosedError,
    ServiceError,
    ShardError,
)
from repro.netlist.circuit import Circuit
from repro.runtime.fingerprint import circuit_fingerprint, job_identity
from repro.runtime.report import AttemptReport, ChunkReport, RunReport
from repro.service.batcher import DynamicBatcher, PendingBatch
from repro.service.breaker import CircuitBreaker
from repro.service.cache import CachedResult, ResultCache
from repro.service.jobs import (
    JobHandle,
    JobResult,
    ServiceConfig,
    SimulationJob,
    resolved_handle,
    validate_job,
)
from repro.service.metrics import MetricsRecorder, ServiceMetrics
from repro.service.pool import EnginePool
from repro.simulation.base import PatternPair, SimulationConfig
from repro.simulation.compiled import CompiledCircuit, compile_circuit
# Importable here because the ledger's ``service_stream`` workload wraps
# ``repro.service.core.select_delta`` by name under ``--trace``.
from repro.simulation.delta import select_delta  # noqa: F401
from repro.simulation.gpu import EngineStats
from repro.simulation.grid import Segments, SlotPlan
from repro.simulation.pool import pooled_compile
from repro.waveform.plane import WaveformPlane

__all__ = ["SimulationService"]

#: Engine name recorded on cache-served results.
ENGINE_CACHE = "cache"


class SimulationService:
    """Dynamic-batching, caching, admission-controlled simulation server.

    Usage::

        with SimulationService(config=ServiceConfig(max_wait_ms=2.0)) as svc:
            key = svc.register_circuit(circuit, library)
            handles = [svc.submit(key, job_pairs) for job_pairs in jobs]
            results = [h.result() for h in handles]
    """

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self._circuits: Dict[str, CompiledCircuit] = {}
        self._circuits_lock = threading.Lock()
        self._cache = ResultCache(self.config.cache_entries)
        self._metrics = MetricsRecorder()
        self._batcher = DynamicBatcher(self.config.max_batch_slots,
                                       self.config.max_wait_ms / 1e3)
        self._engines = threading.local()
        # Intake — the backlog, the closed flag, the batcher and the
        # hand-off of flushed batches to the executor — is guarded by
        # one lock: submitters wait on ``_admission`` for capacity, the
        # batch thread on ``_clock`` for its next flush.  Re-entrant:
        # a batch submitted once every shard is broken fails its jobs,
        # which releases their backlog slots, from inside the hand-off.
        self._intake = threading.RLock()
        self._admission = threading.Condition(self._intake)
        self._clock = threading.Condition(self._intake)
        self._backlog = 0
        self._closed = False
        self._drain = True
        #: When the newest job was folded in (the idle flush's clock).
        self._last_arrival = 0.0
        #: The batch thread waits without a timeout (nothing pending):
        #: the next job to arrive wakes it.
        self._clock_parked = False
        #: The batch thread holds pending jobs because every worker is
        #: busy: the next batch to settle wakes it (``_worker_freed``).
        self._clock_busy = False
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._breakers_lock = threading.Lock()
        #: Jobs with a deadline, for the supervisor tick to expire.
        self._live: Dict[int, SimulationJob] = {}
        self._live_lock = threading.Lock()
        # The batch executor: shard processes or in-process threads,
        # two kinds of one supervised-worker machine (service.pool).
        self._router = None
        if self.config.shards > 0:
            from repro.service.router import ShardRouter
            self._router = self._executor = ShardRouter(
                num_shards=self.config.shards,
                combine=self._combine,
                on_dispatch=self._begin,
                on_reply=self._complete_shard_batch,
                on_batch_lost=self._fail_batch_jobs,
                hang_timeout_s=self.config.hang_timeout_s,
                tick_s=self.config.supervisor_tick_s,
                on_tick=self._expire_deadlines,
                on_free=self._worker_freed,
            )
        else:
            self._executor = EnginePool(
                workers=self.config.workers,
                handler=self._execute_batch,
                on_batch_lost=self._fail_batch_jobs,
                hang_timeout_s=self.config.hang_timeout_s,
                tick_s=self.config.supervisor_tick_s,
                on_tick=self._expire_deadlines,
                on_free=self._worker_freed,
            )
        self._batch_thread = threading.Thread(
            target=self._batch_loop, name="repro-service-batcher", daemon=True)
        self._batch_thread.start()

    # -- lifecycle ------------------------------------------------------------

    def __enter__(self) -> "SimulationService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self, drain: bool = True) -> None:
        """Stop intake and shut down.

        ``drain=True`` finishes every admitted job first (pending batches
        are flushed and executed); ``drain=False`` fails every unfinished
        job with :class:`~repro.errors.ServiceClosedError`.  Idempotent.
        """
        with self._intake:
            if self._closed:
                return
            self._closed = True
            self._drain = drain
            self._admission.notify_all()
            self._clock.notify()
        self._batch_thread.join()
        self._executor.close()

    @property
    def closed(self) -> bool:
        return self._closed

    # -- circuits -------------------------------------------------------------

    def register_circuit(
        self,
        circuit: Circuit,
        library: CellLibrary,
        annotation=None,
        loads=None,
        compiled: Optional[CompiledCircuit] = None,
    ) -> str:
        """Compile (once) and register a circuit; returns its fingerprint.

        Registering the same circuit again is a no-op returning the same
        key — the compiled form is shared by every job referencing it.
        Without ``annotation`` and ``loads`` the compile is the process-
        wide memoized one (:func:`~repro.simulation.pool.pooled_compile`),
        so a second registration of the same objects is a lookup.
        """
        if compiled is None:
            compiled = (pooled_compile(circuit, library)
                        if annotation is None and loads is None
                        else compile_circuit(circuit, library, annotation,
                                             loads))
        key = circuit_fingerprint(compiled)
        with self._circuits_lock:
            self._circuits.setdefault(key, compiled)
        if self._router is not None:
            # Broadcast the compiled form together with the parent's
            # already-built level plans: every shard's plan cache is
            # warm before its first batch (and after every respawn —
            # the router replays this registration).
            self._router.register_circuit(key, compiled, compiled.plans())
        return key

    def circuit(self, circuit_key: str) -> CompiledCircuit:
        # Entries are only ever added: a lock-free read sees one whole.
        compiled = self._circuits.get(circuit_key)
        if compiled is None:
            raise ServiceError(
                f"unknown circuit fingerprint {circuit_key[:12]}…; "
                "register_circuit() first")
        return compiled

    # -- submission -----------------------------------------------------------

    def submit(
        self,
        circuit_key: str,
        pairs: Sequence[PatternPair],
        plan: Optional[SlotPlan] = None,
        voltage: float = 0.8,
        config: Optional[SimulationConfig] = None,
        kernel_table=None,
        variation=None,
        deadline_ms: Optional[float] = None,
        first_slot: int = 0,
    ) -> JobHandle:
        """Submit one job; returns a :class:`JobHandle` future.

        Raises :class:`~repro.errors.AdmissionError` under the
        ``reject`` policy when the backlog is full,
        :class:`~repro.errors.CircuitOpenError` when the job's
        compatibility group has tripped its circuit breaker, and
        :class:`~repro.errors.ServiceClosedError` after :meth:`close`.

        ``deadline_ms`` bounds the job's total time in the service:
        past it, the handle fails with
        :class:`~repro.errors.JobDeadlineError` and the job is excluded
        from any batch it had not yet ridden.  Cache hits resolve
        immediately and never time out.

        ``first_slot`` is where the job's slots sit in the caller's
        plane: they run as global slots ``first_slot …
        first_slot + n - 1``, so a Monte-Carlo job's die factors equal
        those slots of a whole-plane run.
        """
        started = _time.monotonic()
        if self._closed:
            raise ServiceClosedError("service is closed")
        compiled = self.circuit(circuit_key)
        config = config or SimulationConfig()
        pairs = list(pairs)
        if not pairs:
            raise ServiceError("job needs at least one pattern pair")
        plan = plan or SlotPlan.uniform(len(pairs), voltage)
        validate_job(compiled, pairs, plan, kernel_table)
        if deadline_ms is not None and deadline_ms <= 0:
            raise ServiceError("deadline_ms must be positive")
        if first_slot < 0:
            raise ServiceError("first_slot must be >= 0")
        fingerprint, compat_key = job_identity(
            compiled, pairs, plan, config, kernel_table, variation,
            first_slot)
        self._metrics.record_submitted()

        cached = self._cache.get(fingerprint)
        if cached is not None:
            latency = _time.monotonic() - started
            self._metrics.record_completed((latency,))
            return resolved_handle(
                fingerprint, self._cached_result(compiled, cached, latency))

        allowed, retry_after = self._breaker_for(compat_key).allow()
        if not allowed:
            self._metrics.record_breaker_rejected()
            raise CircuitOpenError(
                f"circuit breaker open for group {compat_key[:12]}…; "
                f"retry in {retry_after:.3f}s",
                retry_after_seconds=retry_after)

        job = SimulationJob(
            circuit_key=circuit_key, pairs=pairs, plan=plan, config=config,
            kernel_table=kernel_table, variation=variation,
            fingerprint=fingerprint, compat_key=compat_key,
            first_slot=first_slot,
        )
        if self._router is not None:
            # Group registration rides the same FIFO control pipe as
            # the batches, so it goes out before the job can ride one:
            # register_group returns once the group is on every shard's
            # pipe, and is a lock-free no-op after that.
            self._router.register_group(compat_key, circuit_key, config,
                                        kernel_table, variation)
        self._admit(job, deadline_ms)
        return JobHandle(fingerprint, job.future,
                         canceller=partial(self._cancel_job, job))

    def metrics(self) -> ServiceMetrics:
        """Point-in-time service metrics snapshot."""
        with self._intake:
            depth = self._backlog
        with self._breakers_lock:
            breakers = {key[:12]: breaker.stats()
                        for key, breaker in self._breakers.items()}
        return self._metrics.snapshot(
            depth, self._cache.stats(), pool_stats=self._executor.stats(),
            breakers=breakers,
            batches_queued=self._executor.batches_queued)

    @property
    def engine_dispatches(self) -> int:
        """Engine ``run()`` calls so far (cache hits never increment it)."""
        return self._metrics.batches_dispatched

    # -- admission ------------------------------------------------------------

    def _admit(self, job: SimulationJob,
               deadline_ms: Optional[float]) -> None:
        """Take a backlog slot, fold the job into its group and hand
        the batches this arrival made full to the executor, under the
        intake lock.

        The closed flag is read under the same lock ``close()`` sets it
        under, so a job either lands in the batcher (or the executor)
        before the terminal flush or raises :class:`ServiceClosedError`
        here.
        """
        with self._intake:
            if self._closed:
                raise ServiceClosedError("service is closed")
            if self._backlog >= self.config.queue_depth:
                self._await_capacity()
            self._backlog += 1
            now = job.submitted = _time.monotonic()
            if deadline_ms is not None:
                job.deadline_ms = float(deadline_ms)
                job.deadline = now + deadline_ms / 1e3
                with self._live_lock:
                    self._live[id(job)] = job
            self._last_arrival = now
            if self._clock_parked:
                self._clock_parked = False
                self._clock.notify()
            for batch in self._batcher.add(job, now):
                self._executor.submit(batch)

    def _await_capacity(self) -> None:
        """Admission policy for a full backlog (intake lock held)."""
        if self.config.admission == "reject":
            self._metrics.record_rejected()
            retry = self._metrics.retry_after(
                self._backlog, self._executor.num_workers)
            raise AdmissionError(
                f"queue depth {self.config.queue_depth} reached; "
                f"retry in {retry:.3f}s",
                retry_after_seconds=retry)
        while True:
            # Checked after every wake: a job admitted once close() ran
            # could land after the terminal flush.
            if self._closed:
                raise ServiceClosedError(
                    "service closed while waiting for admission")
            if self._backlog < self.config.queue_depth:
                return
            self._admission.wait()

    def _release(self, jobs: int = 1) -> None:
        with self._intake:
            self._backlog -= jobs
            self._admission.notify_all()

    # -- job settlement -------------------------------------------------------

    def _fail_job(self, job: SimulationJob, error: Exception) -> bool:
        """Fail one job exactly once; returns False if already settled.

        Every path that ends a job — batch failure, deadline expiry,
        cancellation, worker loss, aborting close — funnels through
        here, and a demultiplexed batch through :meth:`_finish_batch`.
        The future's own set-once semantics are the synchronizer:
        whichever caller wins updates the metrics and releases the
        backlog slot; losers see ``InvalidStateError`` and walk away.
        """
        try:
            job.future.set_exception(error)
        except InvalidStateError:
            return False
        if job.deadline is not None:
            with self._live_lock:
                self._live.pop(id(job), None)
        if isinstance(error, JobDeadlineError):
            self._metrics.record_timed_out()
        elif isinstance(error, JobCancelledError):
            self._metrics.record_cancelled()
        else:
            self._metrics.record_failed()
        self._release()
        return True

    def _finish_batch(self, jobs: List[SimulationJob],
                      results: List[JobResult],
                      shard: Optional[int]) -> None:
        """Settle a demultiplexed batch's jobs in one pass: each future
        once, then ``_live``, the metrics and the backlog once for all
        the jobs this call settled."""
        latencies = []
        timed = []
        for job, result in zip(jobs, results):
            try:
                job.future.set_result(result)
            except InvalidStateError:
                continue
            latencies.append(result.latency_seconds)
            if job.deadline is not None:
                timed.append(job)
        if timed:
            with self._live_lock:
                for job in timed:
                    self._live.pop(id(job), None)
        if latencies:
            self._metrics.record_completed(latencies, shard)
            self._release(len(latencies))

    def _cancel_job(self, job: SimulationJob) -> bool:
        return self._fail_job(job, JobCancelledError(
            "job cancelled by caller"))

    def _expire_deadlines(self) -> None:
        """Supervisor tick: fail every live job past its deadline."""
        now = _time.monotonic()
        with self._live_lock:
            expired = [job for job in self._live.values()
                       if now >= job.deadline]
        for job in expired:
            self._fail_job(job, JobDeadlineError(
                f"job exceeded its {job.deadline_ms:g} ms deadline",
                deadline_ms=job.deadline_ms))

    def _fail_batch_jobs(self, batch: PendingBatch, error) -> None:
        """Batch-wide failure path (worker loss, handler escape)."""
        breaker = self._breaker_for(batch.compat_key)
        for job in batch.jobs:
            if self._fail_job(job, error):
                breaker.record_failure()

    def _breaker_for(self, compat_key: str) -> CircuitBreaker:
        breaker = self._breakers.get(compat_key)  # only ever added to
        if breaker is None:
            with self._breakers_lock:
                breaker = self._breakers.get(compat_key)
                if breaker is None:
                    breaker = self._breakers[compat_key] = CircuitBreaker()
        return breaker

    # -- the batch thread: clocks only ----------------------------------------

    def _batch_loop(self) -> None:
        """Dispatch what the clocks flush until close, then the
        terminal flush: run everything pending, or fail it."""
        while True:
            with self._intake:
                ready = self._await_flush()
                closing = self._closed
                aborting = closing and not self._drain
                if not aborting:
                    for batch in ready:
                        self._executor.submit(batch)
            if aborting:
                error = ServiceClosedError("service closed before execution")
                for batch in ready:
                    for job in batch.jobs:
                        self._fail_job(job, error)
            if closing:
                return

    def _await_flush(self) -> List[PendingBatch]:
        """Wait (intake lock held) for a clock to flush something.

        Fullness is flushed by the submitter that filled the batch
        (:meth:`_admit`); this thread wakes only for a clock: when the
        oldest pending batch reaches ``max_wait_ms``; when a worker is
        free and no job has arrived for ``idle_ms`` — everything pending
        then flushes, since holding jobs back from an idle worker only
        adds latency; or on ``close()``, which flushes everything.
        While every worker is busy, pending jobs keep coalescing: the
        thread sleeps until the age deadline or until a settled batch
        frees a worker (:meth:`_worker_freed`).
        """
        idle_s = self.config.idle_ms / 1e3
        while not self._closed:
            if not self._batcher:
                self._clock_parked = True
                self._clock.wait()
                continue
            now = _time.monotonic()
            ready = self._batcher.due(now)
            quiet_left = idle_s - (now - self._last_arrival)
            free = self._executor.worker_free
            if free and quiet_left <= 0:
                ready.extend(self._batcher.drain())
            if ready:
                return ready
            timeout = self._batcher.next_deadline(now)
            if free:
                timeout = min(timeout, quiet_left)
            else:
                self._clock_busy = True
            self._clock.wait(timeout)
            self._clock_busy = False
        return self._batcher.drain()

    def _worker_freed(self) -> None:
        """Executor hook: a settled batch left a worker free.  Wakes the
        batch thread if it holds jobs only because every worker was
        busy.  That thread reads ``worker_free`` and sets
        ``_clock_busy`` under the intake lock, and the count drops before
        this hook takes the lock, so no wake falls between its read and
        its wait."""
        with self._intake:
            if self._clock_busy:
                self._clock_busy = False
                self._clock.notify()

    def _begin(self, batch: PendingBatch,
               shard: Optional[int] = None) -> List[SimulationJob]:
        """The one dispatch site: the jobs a batch still carries as a
        worker takes it, counted as one engine dispatch.

        Jobs settled while queued (deadline expiry, cancellation) ride
        no further: excluding them cannot change the other jobs' results
        because slot identity is the job's own (``global_slots``).
        """
        jobs = [job for job in batch.jobs if not job.future.done()]
        if jobs:
            for job in jobs:
                job.shard = shard
            self._metrics.record_batch(
                len(jobs), batch.num_slots if len(jobs) == batch.num_jobs
                else sum([job.num_slots for job in jobs]))
        return jobs

    def _conclude(self, batch: PendingBatch, jobs: List[SimulationJob],
                  settle) -> None:
        """The one batch-outcome site, for threads and shards alike.

        ``settle()`` demultiplexes the batch's result and raises when
        the batch failed.  Success is the group breaker's; on failure
        one poison job must not sink its batch neighbours, so each
        unsettled job re-enters the executor as a batch of its own —
        with its own hang clock — and only a lone job's failure fails
        it.
        """
        breaker = self._breaker_for(batch.compat_key)
        try:
            settle()
        except Exception as error:  # noqa: BLE001 - isolate, then report
            if len(jobs) == 1:
                if self._fail_job(jobs[0], error):
                    breaker.record_failure()
                return
            for job in jobs:
                if not job.future.done():
                    single = PendingBatch(compat_key=job.compat_key)
                    single.add(job, _time.monotonic())
                    self._executor.submit(single)
        else:
            breaker.record_success()

    # -- execution ------------------------------------------------------------

    def _engine_for(self, circuit_key: str, config: SimulationConfig):
        """Per-worker-thread engine instances (arena pools don't share)."""
        engines = getattr(self._engines, "by_key", None)
        if engines is None:
            engines = self._engines.by_key = {}
        key = (circuit_key, config)
        engine = engines.get(key)
        if engine is None:
            from repro.simulation.gpu import GpuWaveSim
            compiled = self.circuit(circuit_key)
            engine = GpuWaveSim(compiled.circuit, compiled.library,
                                config=config, compiled=compiled)
            engines[key] = engine
        return engine

    def _execute_batch(self, batch: PendingBatch) -> None:
        """Engine-thread handler: run one batch in this process."""
        jobs = self._begin(batch)
        if jobs:
            started = _time.monotonic()
            self._conclude(batch, jobs,
                           lambda: self._run_and_demux(jobs, started))

    def _combine(self, jobs: List[SimulationJob]):
        """Concatenate a batch's jobs into one shared slot plane."""
        combined_pairs: List[PatternPair] = []
        offsets: List[int] = []
        shifts: List[int] = []  # global minus plane slot, per job
        counts: List[int] = []
        slot = 0
        for job in jobs:
            offsets.append(len(combined_pairs))
            combined_pairs.extend(job.pairs)
            shifts.append(job.first_slot - slot)
            counts.append(job.num_slots)
            slot += job.num_slots
        plan = SlotPlan.concat([job.plan for job in jobs], offsets)
        # Each job's own slot indices: Monte-Carlo die factors must not
        # depend on where in the shared plane a job landed.
        global_slots = np.arange(plan.num_slots, dtype=np.int64) + np.repeat(
            np.array(shifts, dtype=np.int64), counts)
        return combined_pairs, plan, global_slots

    def _run_and_demux(self, jobs: List[SimulationJob],
                       started: float) -> None:
        compiled = self.circuit(jobs[0].circuit_key)
        config = jobs[0].config
        combined_pairs, plan, global_slots = self._combine(jobs)
        engine = self._engine_for(jobs[0].circuit_key, config)
        # The engine unpacks the arena once per job.
        result = engine.run(combined_pairs, plan=plan,
                            kernel_table=jobs[0].kernel_table,
                            variation=jobs[0].variation,
                            global_slots=global_slots,
                            segments=Segments([job.num_slots
                                               for job in jobs]))
        segments = result.segments
        faults.trip("service.demux", corruptible=(
            segments[0] if segments else result.plane))
        self._settle_batch(
            jobs, compiled, config, result.plane, result.engine,
            engine.last_stats, started, segments=segments)

    def _settle_batch(self, jobs: List[SimulationJob],
                      compiled: CompiledCircuit, config: SimulationConfig,
                      plane, engine_name: str, stats: EngineStats,
                      started: float, segments=None) -> None:
        """Demultiplex one executed plane into per-job results.

        ``plane`` is the batch's result
        :class:`~repro.waveform.plane.WaveformPlane`; each job receives
        a private ``take`` of its slots.  Shared by the in-process path
        (plane fresh off the engine) and the sharded path (plane rebuilt
        from a shard's ``done`` reply) — the apportionment, reports,
        caching and settlement are identical either way, which is most
        of the bit-identity contract.

        ``segments`` (``SimulationResult.segments``) replaces the gather
        when the engine already unpacked the batch per job: a private
        plane per job.  ``stats`` (the engine's for the
        batch) reach each job as its
        :meth:`~repro.simulation.gpu.EngineStats.share`.
        """
        self._metrics.record_engine(stats)
        seconds = _time.monotonic() - started
        total_slots = sum([job.num_slots for job in jobs])
        name = compiled.circuit.name
        label = f"service:{engine_name}"
        now = _time.monotonic()
        shares: Dict[int, EngineStats] = {}  # one (read-only) per job size
        results: List[JobResult] = []
        entries = []
        start = 0
        for position, job in enumerate(jobs):
            n = job.num_slots
            job_plane = (segments[position] if segments is not None
                         else plane.take(np.arange(start, start + n)))
            start += n
            share = shares.get(n)
            if share is None:
                share = shares[n] = stats.share(n, total_slots)
            report = RunReport(
                circuit_name=name,
                num_slots=n,
                chunk_slots=total_slots,
                chunks=[ChunkReport(index=position, num_slots=n,
                                    attempts=[AttemptReport.ran(
                                        label, seconds, share)])],
                wall_seconds=seconds,
            )
            report.fold(share)
            labels = job.plan.labels()
            results.append(JobResult(
                waveforms=job_plane,
                slot_labels=labels,
                engine=engine_name,
                cache_hit=False,
                latency_seconds=now - job.submitted,
                report=report,
                stats=share,
            ))
            entries.append((job.fingerprint, CachedResult(
                plane=job_plane, slot_labels=labels, engine=engine_name)))
        self._cache.put_many(entries)
        self._finish_batch(jobs, results, jobs[0].shard)

    # -- sharded execution (router callback) ----------------------------------

    def _complete_shard_batch(self, batch: PendingBatch,
                              jobs: List[SimulationJob], reply: tuple,
                              started: float) -> None:
        """Router callback: a shard's ``done`` or ``error`` reply.

        A ``done`` reply carries the batch's packed result plane; its
        arrays came out of unpickling, so they are private and
        writeable.
        """
        def settle() -> None:
            if reply[0] == "error":
                raise self._rebuild_shard_error(*reply[2:])
            outcome = reply[2]
            compiled = self.circuit(jobs[0].circuit_key)
            config = jobs[0].config
            plane = WaveformPlane.from_packed(
                compiled.result_nets(config.record_all_nets),
                outcome["initial"], outcome["counts"], outcome["times"])
            faults.trip("service.demux", corruptible=plane)
            self._settle_batch(jobs, compiled, config, plane,
                               outcome["engine"], outcome["stats"], started)

        self._conclude(batch, jobs, settle)

    @staticmethod
    def _rebuild_shard_error(exc_name: str, message: str) -> Exception:
        """Best-effort reconstruction of a shard-side exception.

        Only ``(type name, message)`` cross the process boundary — a
        traceback object would not pickle and the classes may carry
        unpicklable payloads.  Names resolve against
        :mod:`repro.errors`, then builtins; anything else (or a
        constructor wanting more arguments) degrades to
        :class:`~repro.errors.ShardError` with the name preserved in
        the text.
        """
        import builtins

        for namespace in (_errors, builtins):
            cls = getattr(namespace, exc_name, None)
            if isinstance(cls, type) and issubclass(cls, Exception):
                try:
                    return cls(message)
                except TypeError:
                    break
        return ShardError(f"shard raised {exc_name}: {message}")

    # -- cache ----------------------------------------------------------------

    def _cached_result(self, compiled: CompiledCircuit, entry: CachedResult,
                       latency: float) -> JobResult:
        n = entry.plane.num_slots
        report = RunReport(
            circuit_name=compiled.circuit.name,
            num_slots=n,
            chunk_slots=n,
            chunks=[ChunkReport(index=0, num_slots=n, from_checkpoint=True)],
            wall_seconds=latency,
        )
        return JobResult(
            waveforms=entry.plane,
            slot_labels=list(entry.slot_labels),
            engine=ENGINE_CACHE,
            cache_hit=True,
            latency_seconds=latency,
            report=report,
        )
