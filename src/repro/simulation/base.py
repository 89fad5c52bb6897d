"""Shared simulation types: stimuli, configuration and results.

The paper evaluates *transition delay test pattern pairs*: the circuit
settles under the first vector, then at launch time the second vector is
applied and the resulting switching history is observed.  A
:class:`PatternPair` captures one such pair; :func:`stimuli_from_pair`
turns it into primary-input waveforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.netlist.circuit import Circuit
from repro.simulation.grid import SlotPlan
from repro.waveform.plane import PlaneAccessors
from repro.waveform.waveform import Waveform

__all__ = [
    "PatternPair",
    "stimuli_from_pair",
    "SimulationConfig",
    "SimulationResult",
]

#: Launch time of the second vector of a pattern pair (seconds).
LAUNCH_TIME = 0.0


@dataclass(frozen=True)
class PatternPair:
    """A transition-delay test pattern pair ``(v1, v2)``.

    ``v1`` and ``v2`` are bit vectors over the circuit's primary inputs
    (uint8 arrays of equal length, one entry per input in circuit input
    order).
    """

    v1: np.ndarray
    v2: np.ndarray

    def __post_init__(self) -> None:
        v1 = np.asarray(self.v1, dtype=np.uint8)
        v2 = np.asarray(self.v2, dtype=np.uint8)
        if v1.shape != v2.shape or v1.ndim != 1:
            raise ValueError("v1/v2 must be equal-length vectors")
        if np.any(v1 > 1) or np.any(v2 > 1):
            raise ValueError("pattern bits must be 0/1")
        object.__setattr__(self, "v1", v1)
        object.__setattr__(self, "v2", v2)

    @property
    def width(self) -> int:
        return int(self.v1.size)

    def launches_transition(self) -> bool:
        """True when at least one input toggles at launch."""
        return bool(np.any(self.v1 != self.v2))

    @classmethod
    def random(cls, width: int, rng: np.random.Generator) -> "PatternPair":
        return cls(
            v1=rng.integers(0, 2, size=width, dtype=np.uint8),
            v2=rng.integers(0, 2, size=width, dtype=np.uint8),
        )


def stimuli_from_pair(circuit: Circuit, pair: PatternPair,
                      launch_time: float = LAUNCH_TIME) -> Dict[str, Waveform]:
    """Primary-input waveforms for a pattern pair.

    Each input starts at its ``v1`` bit; inputs whose ``v2`` bit differs
    toggle once at ``launch_time``.
    """
    if pair.width != len(circuit.inputs):
        raise ValueError(
            f"pattern width {pair.width} != {len(circuit.inputs)} inputs"
        )
    waveforms: Dict[str, Waveform] = {}
    for index, net in enumerate(circuit.inputs):
        if pair.v1[index] != pair.v2[index]:
            waveforms[net] = Waveform(
                initial=int(pair.v1[index]),
                times=np.asarray([launch_time], dtype=np.float64),
            )
        else:
            waveforms[net] = Waveform.constant(int(pair.v1[index]))
    return waveforms


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs shared by the simulators.

    Attributes
    ----------
    pulse_filtering:
        ``"inertial"`` — pulses shorter than the propagation delay of the
        suppressing transition are filtered (paper default: inertial
        delay equals propagation delay); ``"transport"`` — only causal
        cancellation, arbitrarily narrow pulses survive.
    waveform_capacity:
        Toggle capacity of a waveform-memory row: what a small plane
        starts at and what a large plane's first retry reaches — a
        batch whose arena at this capacity would stream from memory
        (``gpu.COMPACT_MIN_BYTES``) starts at rows of one cache line
        (``gpu.COMPACT_CAPACITY``) instead.  Results do not depend on
        it; ``last_stats.capacity_used`` says what a run needed.
    grow_on_overflow:
        Re-run the slots that overflowed with doubled capacity
        (default) or raise :class:`~repro.errors.WaveformOverflowError`,
        which names them.
    record_all_nets:
        Keep every net's waveforms (needed for switching-activity
        analysis); otherwise only primary outputs are retained.
    backend:
        Compute backend executing the hot kernels: ``"numpy"``,
        ``"cext"`` or ``"auto"`` (best available, never an import
        error).  ``None`` (default) defers to the
        ``REPRO_BACKEND`` environment variable, then ``auto``.  See
        :mod:`repro.simulation.backend`.
    prune_inactive:
        Activity-driven sparse evaluation (default on): lanes whose
        input nets carry no toggles in a slot are not dispatched to the
        compute backend — their settled output value is written by a
        vectorized truth-table lookup instead.  Results are bit-identical
        either way; only ``gate_evaluations`` / ``lanes_skipped``
        accounting and throughput change.  Turn off for dense-dispatch
        benchmarking or ablation.
    """

    pulse_filtering: str = "inertial"
    waveform_capacity: int = 16
    grow_on_overflow: bool = True
    record_all_nets: bool = False
    backend: Optional[str] = None
    prune_inactive: bool = True

    def __post_init__(self) -> None:
        from repro.simulation.backend import BACKEND_CHOICES

        if self.pulse_filtering not in ("inertial", "transport"):
            raise ValueError(
                f"pulse_filtering must be 'inertial' or 'transport', "
                f"got {self.pulse_filtering!r}"
            )
        if self.waveform_capacity < 2:
            raise ValueError("waveform capacity must be at least 2")
        if self.backend is not None and self.backend not in BACKEND_CHOICES:
            raise ValueError(
                f"backend must be one of {BACKEND_CHOICES} or None, "
                f"got {self.backend!r}"
            )


@dataclass
class SimulationResult(PlaneAccessors):
    """Waveforms and bookkeeping of one simulation run.

    ``waveforms[slot][net]`` is the computed :class:`Waveform` of ``net``
    in slot ``slot`` (a (pattern, operating point) combination as listed
    in ``slot_labels``).  Only primary outputs are present unless the run
    recorded all nets.  The parallel engines pass a
    :class:`~repro.waveform.plane.WaveformPlane`; ``waveforms`` is then
    a lazy read-only view that materializes a :class:`Waveform` only
    when indexed, ``plane`` is the columnar payload, and the accessors
    (:class:`~repro.waveform.plane.PlaneAccessors`) and the analysis
    layer read the columns directly.  A plain list of ``{net:
    Waveform}`` dicts works the same, one object at a time.

    ``report`` is populated by the campaign runtime
    (:mod:`repro.runtime`) with a structured
    :class:`~repro.runtime.report.RunReport` — per-chunk attempts,
    retries, capacity used and failures; plain engine runs leave it
    ``None``.
    """

    circuit_name: str
    #: ``(pattern_index, voltage)`` per slot.  An engine run passes its
    #: :class:`~repro.simulation.grid.SlotPlan` instead and the list is
    #: built on first read (one tuple per slot is not worth building for
    #: a result nobody asks).
    slot_labels: List[Tuple[int, float]]
    waveforms: Sequence[Mapping[str, Waveform]]
    runtime_seconds: float
    gate_evaluations: int
    engine: str
    report: Optional[object] = None
    #: Full-state snapshot captured when the engine ran with
    #: ``capture_base=True`` — a
    #: :class:`~repro.simulation.delta.BaseArena` the closed loop
    #: retains for incremental re-simulation; ``None`` otherwise.
    base_arena: Optional[object] = None
    #: Set by a run that was given
    #: :class:`~repro.simulation.grid.Segments` and served them straight
    #: from the arena: per segment its private packed result plane.
    #: ``None`` when the run had to join sub-batches: the caller slices
    #: ``waveforms`` itself.
    segments: Optional[List[object]] = None


def _read_slot_labels(result: SimulationResult) -> List[Tuple[int, float]]:
    labels = result._slot_labels
    if isinstance(labels, SlotPlan):
        labels = result._slot_labels = labels.labels()
    return labels


def _write_slot_labels(result: SimulationResult, labels) -> None:
    result._slot_labels = labels


# The dataclass ``__init__``, ``__eq__`` and ``__repr__`` go through this
# property, so they all see the list.
SimulationResult.slot_labels = property(_read_slot_labels, _write_slot_labels)
