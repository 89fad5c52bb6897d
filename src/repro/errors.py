"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to discriminate between subsystems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class LibraryError(ReproError):
    """Problems with standard-cell library definitions or lookups."""


class UnknownCellError(LibraryError):
    """A referenced cell type does not exist in the library."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown cell type: {name!r}")
        self.name = name


class CharacterizationError(ReproError):
    """Failures in the offline cell characterization flow (Fig. 1)."""


class RegressionError(CharacterizationError):
    """The least-squares regression could not produce coefficients."""


class ParameterError(ReproError):
    """An operating point or parameter space is invalid or out of range."""


class NetlistError(ReproError):
    """Structural problems in a circuit netlist."""


class ParseError(ReproError):
    """A design-exchange file (.bench, Verilog, SDF, SPEF, …) is malformed."""

    def __init__(self, message: str, *, filename: str = "<string>", line: int = 0) -> None:
        location = f"{filename}:{line}: " if line else f"{filename}: "
        super().__init__(location + message)
        self.filename = filename
        self.line = line


class SimulationError(ReproError):
    """Errors during time simulation."""


class WaveformOverflowError(SimulationError):
    """A packed waveform exceeded its transition capacity.

    The GPU engine mirrors the paper's fixed per-slot waveform memory; when
    a waveform produces more transitions than the configured capacity the
    engine either grows the capacity (default) or raises this error when
    growth is disabled.
    """


class InjectedFaultError(SimulationError):
    """A deterministic fault injected by an active fault plan.

    Raised by :func:`repro.faults.trip` when a ``raise``-kind rule fires
    at an instrumented site.  Carries the site name so recovery paths and
    tests can tell injected faults from organic ones.
    """

    def __init__(self, site: str, detail: str = "") -> None:
        suffix = f" ({detail})" if detail else ""
        super().__init__(f"injected fault at {site}{suffix}")
        self.site = site


class CampaignError(ReproError):
    """Errors in the fault-tolerant campaign runtime."""


class PreflightError(CampaignError):
    """A campaign failed validation before any chunk ran."""


class CheckpointError(CampaignError):
    """A campaign checkpoint directory is missing, corrupt or mismatched."""


class ChunkExecutionError(CampaignError):
    """A campaign chunk's service job failed — after the service's own
    recovery (requeue-once on a lost worker) — or was refused at submit.

    Raised once every other chunk has run and checkpointed, for the
    first failed chunk; a re-run resumes only the failed chunks.
    ``attempts`` carries that chunk's per-attempt diagnostics (engine,
    capacity, error).
    """

    def __init__(self, chunk_index: int, message: str, attempts=()) -> None:
        super().__init__(f"chunk {chunk_index}: {message}")
        self.chunk_index = chunk_index
        self.attempts = list(attempts)


class ServiceError(ReproError):
    """Errors in the simulation service layer."""


class AdmissionError(ServiceError):
    """The service refused a job because its queue is full.

    ``retry_after_seconds`` is the service's estimate of when capacity
    will be available again (inference-server-style backpressure hint);
    callers should wait at least that long before resubmitting.
    """

    def __init__(self, message: str, retry_after_seconds: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after_seconds = retry_after_seconds


class ServiceClosedError(ServiceError):
    """A job was submitted to (or was pending in) a closed service."""


class JobDeadlineError(ServiceError):
    """A job missed its submission deadline and was cancelled.

    The service fails the job's future with this error instead of
    letting the caller wait indefinitely; the batch the job rode in (if
    any) continues for its surviving neighbours.
    """

    def __init__(self, message: str, deadline_ms: float = 0.0) -> None:
        super().__init__(message)
        self.deadline_ms = deadline_ms


class JobCancelledError(ServiceError):
    """A job was cancelled by its caller before it produced a result."""


class CircuitOpenError(AdmissionError):
    """The compatibility group's circuit breaker is open.

    Subclasses :class:`AdmissionError` so transports that already
    surface ``retry_after_seconds`` as a backpressure hint handle
    breaker rejections for free: after repeated dispatch failures the
    service refuses new work for the failing group until a half-open
    probe succeeds.
    """


class WorkerLostError(ServiceError):
    """An engine worker died or hung while executing a batch.

    Raised on the batch's jobs only after the supervisor's single
    re-queue attempt also failed (or the batch had already been
    re-queued once).
    """


class ShardError(ServiceError):
    """A shard worker process failed outside normal job execution.

    Covers spawn failures (after the router's single retry), protocol
    violations on the control pipe, and shard-side exceptions whose
    original type cannot be reconstructed in the parent — the message
    carries the shard-side type name and text.
    """


class TimingError(ReproError):
    """Errors in static timing analysis or path enumeration."""


class AtpgError(ReproError):
    """Errors in test pattern generation."""
