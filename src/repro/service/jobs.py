"""Request/response types of the simulation service.

A *job* is the fine-grained unit callers think in: one circuit (by
fingerprint), one set of stimuli, one slot plane of operating points,
one engine configuration.  The service's whole point is that jobs this
small are a terrible match for the engine — the 3-D slot-plane
parallelism (paper Sec. IV-B) only pays off when many of them share one
dispatch — so jobs carry everything the batcher needs to decide *which*
jobs may share a plane (``compat_key``) and everything the cache needs
to recognize a repeat (``fingerprint``).
"""

from __future__ import annotations

from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.errors import ServiceError
from repro.runtime.report import RunReport
from repro.simulation.base import PatternPair, SimulationConfig
from repro.simulation.gpu import EngineStats
from repro.simulation.grid import SlotPlan
from repro.waveform.plane import PlaneAccessors
from repro.waveform.waveform import Waveform

__all__ = ["JobHandle", "JobResult", "ServiceConfig", "SimulationJob"]

ADMISSION_POLICIES = ("block", "reject")


@dataclass(frozen=True)
class ServiceConfig:
    """Operational policy of a :class:`SimulationService`.

    None of these knobs affect computed waveforms — they decide how jobs
    are queued, coalesced and executed — so none of them enter the
    result-cache fingerprint.  The service batches, caches exact
    fingerprints and demultiplexes; it has no delta path, so a
    near-duplicate job re-simulates in full (the closed loop keeps the
    one delta ring, ``docs/architecture.md`` §12).

    Attributes
    ----------
    max_batch_slots:
        Flush a pending batch once it holds this many slots (the shared
        slot plane's width; also the coalescing ceiling).
    max_wait_ms:
        Flush a pending batch once its oldest job has waited this long,
        even if the batch is not full (tail-latency bound).
    idle_ms:
        Flush everything pending once no job has arrived for this long
        *and* a worker is free; while every worker is busy, pending jobs
        keep coalescing until one frees (or ``max_wait_ms``).  The
        default ``0`` is work-conserving: a free worker takes whatever
        is pending at once.  A positive value holds jobs that long for
        company even with a worker idle.
    queue_depth:
        Admission bound: maximum jobs admitted but not yet finished.
    admission:
        ``"block"`` — ``submit`` waits until there is capacity or the
        service closes; ``"reject"`` — ``submit`` raises
        :class:`~repro.errors.AdmissionError` with a retry-after hint
        (the bounded policy).
    workers:
        Engine worker threads.  Each worker owns its own engine
        instances (the arena pool is not thread-safe), so memory scales
        with ``workers × circuits``.
    cache_entries:
        LRU result-cache capacity in jobs (``0`` disables caching).
    hang_timeout_s:
        A batch executing longer than this is declared hung: its worker
        is replaced (a thread abandoned, a shard killed) and the batch
        re-queued once (see :mod:`repro.service.pool`).  A batch's clock
        starts when its worker can run it — a shard's boot does not
        count — and a job re-run alone after its batch failed gets a
        clock of its own.  Must comfortably exceed the largest
        legitimate batch runtime.
    supervisor_tick_s:
        Supervisor scan period — the granularity of worker health
        checks and job-deadline expiry.
    shards:
        ``> 0`` executes batches in that many spawned shard *processes*
        behind a :class:`~repro.service.router.ShardRouter` instead of
        the in-process engine pool: a free shard takes the next batch
        from the one queue, each batch's stimuli and result waveforms
        travel over the shard's control pipe, and dead shards are
        respawned with their in-flight batches re-queued once.  This is
        the only way engine work leaves the service's process (the
        paper's multi-GPU outlook: independent slot groups on separate
        devices).
    """

    max_batch_slots: int = 256
    max_wait_ms: float = 5.0
    #: 2.0 until the idle flush waited for a free worker.  Anchor: on
    #: the ledger's ``service_stream`` (2 clients x 16 outstanding,
    #: 2-core box) the worker sat idle 32-43 % of an op waiting out the
    #: window, 17-26 % at 0; the median went 5189 -> 6082 jobs/s (10
    #: alternating pairs, 10/10 wins).
    idle_ms: float = 0.0
    queue_depth: int = 1024
    admission: str = "block"
    workers: int = 1
    cache_entries: int = 256
    hang_timeout_s: float = 30.0
    supervisor_tick_s: float = 0.05
    shards: int = 0

    def __post_init__(self) -> None:
        if self.max_batch_slots < 1:
            raise ServiceError("max_batch_slots must be positive")
        if self.max_wait_ms < 0 or self.idle_ms < 0:
            raise ServiceError("batching waits must be >= 0")
        if self.queue_depth < 1:
            raise ServiceError("queue_depth must be positive")
        if self.admission not in ADMISSION_POLICIES:
            raise ServiceError(
                f"admission must be one of {ADMISSION_POLICIES}, "
                f"got {self.admission!r}")
        if self.workers < 1:
            raise ServiceError("workers must be positive")
        if self.cache_entries < 0:
            raise ServiceError("cache_entries must be >= 0")
        if self.hang_timeout_s <= 0 or self.supervisor_tick_s <= 0:
            raise ServiceError("supervision timings must be positive")
        if self.shards < 0:
            raise ServiceError("shards must be >= 0")


@dataclass
class SimulationJob:
    """One admitted job travelling through the service (internal)."""

    circuit_key: str
    pairs: List[PatternPair]
    plan: SlotPlan
    config: SimulationConfig
    kernel_table: object
    variation: object
    fingerprint: str
    compat_key: str
    future: "Future[JobResult]" = field(default_factory=Future)
    submitted: float = 0.0
    #: Monotonic completion deadline (``None`` = wait forever).  The
    #: supervisor tick fails expired jobs with
    #: :class:`~repro.errors.JobDeadlineError`; already-expired jobs are
    #: excluded from the batches they rode in.
    deadline: Optional[float] = None
    deadline_ms: Optional[float] = None
    #: Index of the shard that executed (or is executing) the job's
    #: batch; ``None`` until dispatch, and always ``None`` without
    #: sharding.  Feeds the per-shard latency dimension of the metrics.
    shard: Optional[int] = None
    #: Global index of the job's first slot in the caller's plane
    #: (``submit(first_slot=...)``); the combine step pins the job's
    #: slots to ``first_slot …`` so die factors follow it.
    first_slot: int = 0
    #: ``plan.num_slots``, read once.
    num_slots: int = field(init=False)

    def __post_init__(self) -> None:
        self.num_slots = self.plan.num_slots


@dataclass
class JobResult(PlaneAccessors):
    """Demultiplexed outcome of one job.

    ``waveforms`` and the per-slot accessors follow the
    :class:`~repro.simulation.base.SimulationResult` contract (a lazy
    view over the job's private
    :class:`~repro.waveform.plane.WaveformPlane`), so the analysis layer
    accepts job results unchanged.

    ``stats`` is the job's slot share of its batch's engine stats
    (:meth:`~repro.simulation.gpu.EngineStats.share`; zeros on a cache
    hit; read-only, since a batch's jobs of one size share it) — lane
    accounting is batch-wide, so per-job figures are an apportionment,
    not a separate measurement.  ``report``, folded over that share,
    reuses the campaign vocabulary: the job is one chunk of the batch
    it rode in, ``from_checkpoint`` when served from cache.
    """

    waveforms: Sequence[Mapping[str, Waveform]]
    slot_labels: List[Tuple[int, float]]
    engine: str
    cache_hit: bool
    latency_seconds: float
    report: Optional[RunReport] = None
    stats: EngineStats = field(default_factory=EngineStats)

    @property
    def gate_evaluations(self) -> int:
        return self.stats.gate_evaluations


class JobHandle:
    """Caller-side future for one submitted job."""

    def __init__(self, fingerprint: str, future: "Future[JobResult]",
                 canceller=None) -> None:
        self.fingerprint = fingerprint
        self._future = future
        self._canceller = canceller

    def done(self) -> bool:
        return self._future.done()

    def result(self, timeout: Optional[float] = None) -> JobResult:
        """Block until the job finishes; re-raises job failures."""
        return self._future.result(timeout=timeout)

    def exception(self, timeout: Optional[float] = None):
        return self._future.exception(timeout=timeout)

    def cancel(self) -> bool:
        """Cancel through the service (releases the job's backlog slot).

        Returns True when the job was settled as cancelled — its
        ``result()`` then raises
        :class:`~repro.errors.JobCancelledError` — and False when it
        had already completed or failed.  A job already riding a
        dispatched batch still executes; its result is discarded.
        """
        if self._canceller is None:
            return False
        return bool(self._canceller())


def resolved_handle(fingerprint: str, result: JobResult) -> JobHandle:
    """An already-completed handle (cache hits never reach the batcher)."""
    future: "Future[JobResult]" = Future()
    future.set_result(result)
    return JobHandle(fingerprint, future)


def validate_job(compiled, pairs: Sequence[PatternPair], plan: SlotPlan,
                 kernel_table) -> None:
    """Fail fast at submission time with the engine's own checks.

    The engine would raise identically at dispatch time, but by then the
    job shares a batch — rejecting it synchronously keeps poison jobs
    out of other callers' planes.  A plan voltage outside the kernel
    table's fitted box ``[v_min, v_max]`` (endpoints admitted) raises
    :class:`~repro.errors.ParameterError`: the engine would answer it
    by extrapolating the delay polynomials, silently.
    """
    if not pairs:
        raise ServiceError("job needs at least one pattern pair")
    width = len(compiled.circuit.inputs)
    for pair in pairs:
        if pair.v1.size != width:
            raise ServiceError(
                f"pattern width {sorted({p.width for p in pairs})} does "
                f"not match the {width} circuit inputs")
    if max(plan.pattern_indices.tolist()) >= len(pairs):
        raise ServiceError("slot plan references missing pattern index")
    # Python floats: two reductions over a few slots cost less than
    # numpy's per-call dispatch.
    voltages = plan.voltages.tolist()
    low, high = min(voltages), max(voltages)
    if kernel_table is None:
        if low != high:
            raise ServiceError(
                "static delay mode cannot differentiate operating points; "
                "pass a kernel_table for voltage-aware jobs")
        return
    # The delay polynomials are fitted over the table's box only; past
    # its edges they extrapolate without a word of warning.
    space = kernel_table.space
    if low < space.v_min or high > space.v_max:
        space.require(plan.voltages)
