"""Structured diagnostics of a campaign, service job or AVFS run.

Every chunk of the slot plane records its execution attempts — which
engine ran it, at what waveform capacity, how long it took, how often
the engine re-ran slots inside it and how it failed — so a finished (or
aborted) run can answer "what actually happened" without log
archaeology.  The report travels on
:attr:`repro.simulation.base.SimulationResult.report`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:
    from repro.simulation.gpu import EngineStats

__all__ = ["AttemptReport", "ChunkReport", "RunReport"]


@dataclass
class AttemptReport:
    """One execution attempt of one chunk.

    ``error`` is ``None`` for the successful attempt; failed attempts
    keep a one-line description of the exception.
    ``waveform_capacity`` is the largest capacity the attempt ran at
    where the reporter has the engine's stats (the capacity it was
    configured with otherwise), and ``engine_retries`` the re-runs the
    engine made inside the attempt — overflow recoveries of flagged
    slots, absorbed kernel faults.
    """

    engine: str
    waveform_capacity: int
    seconds: float = 0.0
    error: Optional[str] = None
    engine_retries: int = 0

    @classmethod
    def ran(cls, engine: str, seconds: float,
            stats: "EngineStats") -> "AttemptReport":
        """The successful attempt of an engine run with ``stats``."""
        return cls(engine=engine, waveform_capacity=stats.capacity_used,
                   seconds=seconds, engine_retries=stats.retries)

    @property
    def succeeded(self) -> bool:
        return self.error is None

    def to_dict(self) -> dict:
        return {
            "engine": self.engine,
            "waveform_capacity": self.waveform_capacity,
            "seconds": self.seconds,
            "error": self.error,
            "engine_retries": self.engine_retries,
        }


@dataclass
class ChunkReport:
    """Execution history of one slot-plane chunk."""

    index: int
    num_slots: int
    attempts: List[AttemptReport] = field(default_factory=list)
    from_checkpoint: bool = False

    @property
    def completed(self) -> bool:
        return self.from_checkpoint or any(a.succeeded for a in self.attempts)

    @property
    def retries(self) -> int:
        """Failed attempts before the final outcome, plus the re-runs
        the engine made inside the attempts."""
        return sum((not a.succeeded) + a.engine_retries
                   for a in self.attempts)

    @property
    def final_engine(self) -> Optional[str]:
        """Engine that produced the chunk's waveforms (``None`` if it
        came from the checkpoint or never completed)."""
        for attempt in self.attempts:
            if attempt.succeeded:
                return attempt.engine
        return None

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "num_slots": self.num_slots,
            "from_checkpoint": self.from_checkpoint,
            "completed": self.completed,
            "retries": self.retries,
            "final_engine": self.final_engine,
            "attempts": [a.to_dict() for a in self.attempts],
        }


@dataclass
class RunReport:
    """Campaign-level summary across all chunks; engine counters enter
    only through :meth:`fold`."""

    circuit_name: str
    num_slots: int
    chunk_slots: int
    chunks: List[ChunkReport] = field(default_factory=list)
    wall_seconds: float = 0.0
    resumed: bool = False
    warnings: List[str] = field(default_factory=list)
    #: Compute backend of the last engine run folded in — after its
    #: demotions (``""`` before any run, and for reports predating the
    #: backend layer).
    backend: str = ""
    #: Backend demotion steps (``"cext->numpy"``) taken while the run's
    #: chunks executed — the engine dropped to a safer kernel
    #: implementation after repeated native faults.
    backend_demotions: List[str] = field(default_factory=list)
    #: Activity-pruning counters aggregated across every chunk's engine
    #: stats: lanes dispatched to the compute backends vs quiet lanes
    #: settled by the truth-table lookup (0 for reports predating sparse
    #: evaluation).
    gate_evaluations: int = 0
    lanes_skipped: int = 0
    #: Lanes served by splicing a cached base arena instead of any
    #: dispatch or settle — nonzero only on the delta path, the AVFS
    #: loop's base ring (0 for reports predating delta evaluation).
    lanes_spliced: int = 0
    #: Level-plan resolutions avoided while this run executed: pooled
    #: engines and the fingerprint-keyed plan cache serving repeated
    #: sweeps/iterations of one circuit (0 for single-shot runs and
    #: reports predating the engine pool).
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    #: Per-phase engine wall time summed across chunks: ``delay``
    #: (online delay-kernel evaluation), ``merge`` (waveform merge
    #: kernels; the per-lane backend evaluates polynomial delays
    #: inside the merge loop, so that delay share lands here) and
    #: ``pack`` (waveform unpack / logic settle).  Empty for reports
    #: predating the phase breakdown.
    phase_seconds: Dict[str, float] = field(default_factory=dict)

    def fold(self, stats: "EngineStats") -> None:
        """Add one engine run's stats: counters and phase seconds sum,
        demotions append, and ``backend`` becomes the run's
        post-demotion backend (a run of no walk names none, so a
        result-cache hit folds zeros and keeps it)."""
        self.gate_evaluations += stats.gate_evaluations
        self.lanes_skipped += stats.lanes_skipped
        self.lanes_spliced += stats.lanes_spliced
        self.backend = stats.backend or self.backend
        self.backend_demotions.extend(stats.demotions)
        for name, seconds in stats.phase_seconds().items():
            self.phase_seconds[name] = (
                self.phase_seconds.get(name, 0.0) + seconds)

    @property
    def num_chunks(self) -> int:
        return len(self.chunks)

    @property
    def active_fraction(self) -> float:
        """Dispatched share of all lanes (1.0 when nothing was skipped)."""
        total = self.gate_evaluations + self.lanes_skipped
        return 1.0 if total == 0 else self.gate_evaluations / total

    @property
    def delta_fraction(self) -> float:
        """Evaluated share of (evaluated + spliced) lanes — 1.0 when
        the run never spliced from a cached base."""
        total = self.gate_evaluations + self.lanes_spliced
        return 1.0 if total == 0 else self.gate_evaluations / total

    @property
    def chunks_from_checkpoint(self) -> int:
        return sum(1 for c in self.chunks if c.from_checkpoint)

    @property
    def chunks_executed(self) -> int:
        return sum(1 for c in self.chunks if c.attempts)

    @property
    def total_retries(self) -> int:
        return sum(c.retries for c in self.chunks)

    @property
    def max_capacity_used(self) -> int:
        """Largest waveform capacity any successful attempt ran at."""
        capacities = [a.waveform_capacity for c in self.chunks
                      for a in c.attempts if a.succeeded]
        return max(capacities, default=0)

    def engines_used(self) -> List[str]:
        seen: List[str] = []
        for chunk in self.chunks:
            engine = chunk.final_engine
            if engine is not None and engine not in seen:
                seen.append(engine)
        return seen

    def to_dict(self) -> dict:
        return {
            "circuit_name": self.circuit_name,
            "num_slots": self.num_slots,
            "chunk_slots": self.chunk_slots,
            "backend": self.backend,
            "backend_demotions": list(self.backend_demotions),
            "num_chunks": self.num_chunks,
            "chunks_executed": self.chunks_executed,
            "chunks_from_checkpoint": self.chunks_from_checkpoint,
            "total_retries": self.total_retries,
            "max_capacity_used": self.max_capacity_used,
            "gate_evaluations": self.gate_evaluations,
            "lanes_skipped": self.lanes_skipped,
            "active_fraction": self.active_fraction,
            "lanes_spliced": self.lanes_spliced,
            "delta_fraction": self.delta_fraction,
            "plan_cache_hits": self.plan_cache_hits,
            "plan_cache_misses": self.plan_cache_misses,
            "phase_seconds": dict(self.phase_seconds),
            "wall_seconds": self.wall_seconds,
            "resumed": self.resumed,
            "warnings": list(self.warnings),
            "chunks": [c.to_dict() for c in self.chunks],
        }

    def summary(self) -> str:
        """Human-readable multi-line digest for the CLI."""
        lines = [
            f"campaign {self.circuit_name}: {self.num_slots} slots in "
            f"{self.num_chunks} chunks of <= {self.chunk_slots}",
            f"  executed {self.chunks_executed}, from checkpoint "
            f"{self.chunks_from_checkpoint}"
            + (" (resumed)" if self.resumed else ""),
            f"  retries {self.total_retries}, "
            f"engines {self.engines_used() or ['-']}"
            + (f", backend {self.backend}" if self.backend else ""),
            f"  wall time {self.wall_seconds:.3f}s",
        ]
        if self.lanes_spliced:
            lines.insert(3, f"  delta: {self.lanes_spliced} lanes spliced "
                            f"(delta fraction {self.delta_fraction:.3f})")
        if self.plan_cache_hits:
            lines.append(f"  plan cache: {self.plan_cache_hits} hits, "
                         f"{self.plan_cache_misses} misses")
        if self.lanes_skipped:
            lines.insert(3, f"  lanes evaluated {self.gate_evaluations}, "
                            f"skipped {self.lanes_skipped} "
                            f"(active fraction {self.active_fraction:.3f})")
        if self.phase_seconds:
            phases = ", ".join(f"{name} {seconds:.3f}s"
                               for name, seconds in self.phase_seconds.items())
            lines.append(f"  engine phases: {phases}")
        if self.backend_demotions:
            lines.append("  backend demotions: "
                         + ", ".join(self.backend_demotions))
        for warning in self.warnings:
            lines.append(f"  warning: {warning}")
        return "\n".join(lines)
