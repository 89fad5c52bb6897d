"""Trajectory record of one closed-loop AVFS run.

Every iteration of :class:`repro.avfs.loop.ClosedLoopRunner` appends one
:class:`LoopStep` — the operating point that was simulated, what the
measurement said, what it cost in energy and engine work, and what the
controller commanded next.  The finished (or aborted) trajectory is a
:class:`LoopReport`, which also carries the aggregated
:class:`~repro.runtime.report.RunReport` of the underlying engine runs
so the loop's plan-cache and delta accounting lands in the same
structure every other driver uses.

Steps serialize to/from plain JSON dicts — that is the checkpoint format
of the runner's resumable trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.runtime.report import RunReport

__all__ = ["LoopStep", "LoopReport"]


@dataclass(frozen=True)
class LoopStep:
    """One closed-loop iteration.

    Attributes
    ----------
    iteration:
        0-based loop index.
    commanded_voltage:
        Supply the controller asked for (a table grid point).
    effective_voltage:
        Supply actually simulated after disturbances and regulator
        quantization.
    measured_arrival:
        Latest transition arrival the controller saw — simulated arrival
        at the effective voltage times the drift scale (seconds).
    raw_arrival:
        Undrifted simulated arrival (seconds).
    slack:
        ``period − guardbanded measured arrival`` (seconds; negative on
        a timing violation).
    violation:
        True when the guardbanded arrival misses the clock period.
    next_voltage:
        Supply the controller commanded for the next iteration.
    energy_per_pattern:
        Mean dynamic switching energy per pattern (joules); ``None``
        when the loop does not record activity.
    activity_per_pattern:
        Mean toggles per pattern — the droop models' load signal;
        ``None`` without activity recording.
    delta_used:
        True when this iteration spliced from a cached base arena
        instead of simulating the full plane.
    lanes_spliced / gate_evaluations:
        Engine lane accounting for the iteration (service-backed: the
        job's share of its batch's; both 0 on a result-cache hit).
    seconds:
        Wall time of the iteration's simulate+measure step.
    from_checkpoint:
        True when the step was restored from a trajectory checkpoint
        rather than executed in this run.
    """

    iteration: int
    commanded_voltage: float
    effective_voltage: float
    frequency: float
    measured_arrival: float
    raw_arrival: float
    slack: float
    violation: bool
    next_voltage: float
    energy_per_pattern: Optional[float] = None
    activity_per_pattern: Optional[float] = None
    delta_used: bool = False
    lanes_spliced: int = 0
    gate_evaluations: int = 0
    seconds: float = 0.0
    from_checkpoint: bool = False

    def to_dict(self) -> dict:
        return {
            "iteration": self.iteration,
            "commanded_voltage": self.commanded_voltage,
            "effective_voltage": self.effective_voltage,
            "frequency": self.frequency,
            "measured_arrival": self.measured_arrival,
            "raw_arrival": self.raw_arrival,
            "slack": self.slack,
            "violation": self.violation,
            "next_voltage": self.next_voltage,
            "energy_per_pattern": self.energy_per_pattern,
            "activity_per_pattern": self.activity_per_pattern,
            "delta_used": self.delta_used,
            "lanes_spliced": self.lanes_spliced,
            "gate_evaluations": self.gate_evaluations,
            "seconds": self.seconds,
        }

    @classmethod
    def from_dict(cls, payload: dict,
                  from_checkpoint: bool = False) -> "LoopStep":
        return cls(
            iteration=int(payload["iteration"]),
            commanded_voltage=float(payload["commanded_voltage"]),
            effective_voltage=float(payload["effective_voltage"]),
            frequency=float(payload["frequency"]),
            measured_arrival=float(payload["measured_arrival"]),
            raw_arrival=float(payload["raw_arrival"]),
            slack=float(payload["slack"]),
            violation=bool(payload["violation"]),
            next_voltage=float(payload["next_voltage"]),
            energy_per_pattern=payload.get("energy_per_pattern"),
            activity_per_pattern=payload.get("activity_per_pattern"),
            delta_used=bool(payload.get("delta_used", False)),
            lanes_spliced=int(payload.get("lanes_spliced", 0)),
            gate_evaluations=int(payload.get("gate_evaluations", 0)),
            seconds=float(payload.get("seconds", 0.0)),
            from_checkpoint=from_checkpoint,
        )


@dataclass
class LoopReport:
    """A closed-loop AVFS trajectory plus its engine accounting."""

    circuit_name: str
    period: float
    steps: List[LoopStep] = field(default_factory=list)
    #: Iteration at which the loop settled (``settle_iterations``
    #: consecutive stable, violation-free steps); ``None`` if it never
    #: converged within the iteration budget.
    converged_at: Optional[int] = None
    resumed: bool = False
    wall_seconds: float = 0.0
    backend: str = ""
    #: Aggregated engine accounting across every executed iteration.
    run_report: Optional[RunReport] = None
    #: Service metrics snapshot dict (service-backed mode only).
    service_metrics: Optional[dict] = None

    @property
    def num_iterations(self) -> int:
        return len(self.steps)

    @property
    def final_voltage(self) -> Optional[float]:
        return self.steps[-1].next_voltage if self.steps else None

    @property
    def violations(self) -> int:
        return sum(1 for s in self.steps if s.violation)

    @property
    def total_energy(self) -> Optional[float]:
        energies = [s.energy_per_pattern for s in self.steps
                    if s.energy_per_pattern is not None]
        return sum(energies) if energies else None

    @property
    def delta_reuse_fraction(self) -> float:
        """Share of all engine lanes served by splicing cached bases."""
        spliced = sum(s.lanes_spliced for s in self.steps)
        evaluated = sum(s.gate_evaluations for s in self.steps)
        total = spliced + evaluated
        return spliced / total if total else 0.0

    @property
    def delta_iterations(self) -> int:
        return sum(1 for s in self.steps if s.delta_used)

    def to_dict(self) -> dict:
        return {
            "circuit_name": self.circuit_name,
            "period": self.period,
            "num_iterations": self.num_iterations,
            "converged_at": self.converged_at,
            "final_voltage": self.final_voltage,
            "violations": self.violations,
            "total_energy": self.total_energy,
            "delta_reuse_fraction": self.delta_reuse_fraction,
            "delta_iterations": self.delta_iterations,
            "resumed": self.resumed,
            "wall_seconds": self.wall_seconds,
            "backend": self.backend,
            "steps": [s.to_dict() for s in self.steps],
            "run_report": (self.run_report.to_dict()
                           if self.run_report is not None else None),
            "service_metrics": self.service_metrics,
        }

    def summary(self) -> str:
        """Human-readable trajectory digest for the CLI."""
        lines = [
            f"closed loop {self.circuit_name}: {self.num_iterations} "
            f"iterations at period {self.period*1e9:.3f}ns"
            + (" (resumed)" if self.resumed else ""),
        ]
        if self.converged_at is not None:
            lines.append(f"  converged at iteration {self.converged_at}, "
                         f"final supply {self.final_voltage:.3f} V")
        elif self.steps:
            lines.append(f"  not converged, last commanded supply "
                         f"{self.final_voltage:.3f} V")
        lines.append(f"  violations {self.violations}, delta iterations "
                     f"{self.delta_iterations}, delta reuse "
                     f"{self.delta_reuse_fraction:.3f}")
        if self.total_energy is not None:
            lines.append(f"  energy {self.total_energy*1e12:.3f} pJ/pattern "
                         "summed over trajectory")
        lines.append(f"  wall time {self.wall_seconds:.3f}s"
                     + (f", backend {self.backend}" if self.backend else ""))
        for step in self.steps:
            mark = "!" if step.violation else (
                "~" if step.delta_used else " ")
            lines.append(
                f"  {mark} it{step.iteration:3d}: cmd {step.commanded_voltage:.3f} V"
                f" eff {step.effective_voltage:.3f} V"
                f" arrival {step.measured_arrival*1e9:.3f}ns"
                f" slack {step.slack*1e9:+.3f}ns"
                f" -> {step.next_voltage:.3f} V")
        return "\n".join(lines)
