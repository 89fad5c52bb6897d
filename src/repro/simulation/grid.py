"""Slot-plane organization (paper Fig. 3).

The GPU engine evaluates a two-dimensional *slot plane*: one axis spans
input stimuli (pattern pairs), the other spans operating points (supply
voltages of parallel circuit instances).  Every slot is an independent
simulation problem; the engine is free to trade the two axes off against
each other to fill the machine — the flexibility the paper highlights in
Sec. IV-B.

:class:`SlotPlan` enumerates the slots of a run and can chunk itself into
batches that bound the waveform-memory footprint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterator, List, Sequence, Tuple

import numpy as np

__all__ = ["Segments", "SlotPlan"]


@dataclass(frozen=True)
class SlotPlan:
    """The slots of a simulation run.

    Each slot pairs a pattern index with a supply voltage.  Construction
    helpers cover the two common layouts:

    * :meth:`cross` — every pattern under every voltage (n × m slots,
      the full Fig. 3 plane; used for voltage sweeps like Table II),
    * :meth:`zip` — pattern *k* under voltage *k* (heterogeneous AVFS
      instances, one slot each).
    """

    pattern_indices: np.ndarray
    voltages: np.ndarray

    def __post_init__(self) -> None:
        patterns = np.asarray(self.pattern_indices, dtype=np.int64)
        volts = np.asarray(self.voltages, dtype=np.float64)
        if patterns.shape != volts.shape or patterns.ndim != 1:
            raise ValueError("pattern indices and voltages must be equal-length vectors")
        if patterns.size == 0:
            raise ValueError("slot plan must contain at least one slot")
        if int(patterns.min()) < 0:
            raise ValueError("pattern indices must be non-negative")
        object.__setattr__(self, "pattern_indices", patterns)
        object.__setattr__(self, "voltages", volts)

    # -- constructors ------------------------------------------------------------

    @classmethod
    def cross(cls, num_patterns: int, voltages: Sequence[float]) -> "SlotPlan":
        """Full plane: ``num_patterns × len(voltages)`` slots.

        Slot order is voltage-major: all patterns at the first voltage,
        then all at the second, … — keeping each voltage's slots
        contiguous for cache-friendly per-instance extraction.
        """
        volts = np.asarray(list(voltages), dtype=np.float64)
        patterns = np.tile(np.arange(num_patterns, dtype=np.int64), len(volts))
        return cls(pattern_indices=patterns, voltages=np.repeat(volts, num_patterns))

    @classmethod
    def zip(cls, pattern_indices: Sequence[int], voltages: Sequence[float]) -> "SlotPlan":
        """One slot per (pattern, voltage) pair, matched element-wise."""
        return cls(
            pattern_indices=np.asarray(list(pattern_indices), dtype=np.int64),
            voltages=np.asarray(list(voltages), dtype=np.float64),
        )

    @classmethod
    def uniform(cls, num_patterns: int, voltage: float) -> "SlotPlan":
        """All patterns under a single operating point (Table I setup)."""
        return cls.cross(num_patterns, [voltage])

    @classmethod
    def concat(cls, plans: Sequence["SlotPlan"],
               pattern_offsets: Sequence[int] = None) -> "SlotPlan":
        """Stack sub-plans into one shared plane (the service batcher).

        ``pattern_offsets`` shifts each plan's pattern indices by the
        position of that plan's stimuli in the combined pattern list, so
        independently numbered jobs can share one plane without index
        collisions.
        """
        if not plans:
            raise ValueError("concat needs at least one plan")
        if pattern_offsets is None:
            pattern_offsets = [0] * len(plans)
        if len(pattern_offsets) != len(plans):
            raise ValueError("need one pattern offset per plan")
        return cls(
            pattern_indices=np.concatenate(
                [p.pattern_indices + int(off)
                 for p, off in zip(plans, pattern_offsets)]),
            voltages=np.concatenate([p.voltages for p in plans]),
        )

    # -- queries -------------------------------------------------------------------

    @property
    def num_slots(self) -> int:
        return int(self.pattern_indices.size)

    def labels(self) -> List[Tuple[int, float]]:
        """``(pattern_index, voltage)`` per slot."""
        return list(zip(self.pattern_indices.tolist(), self.voltages.tolist()))

    def distinct_voltages(self) -> np.ndarray:
        return np.unique(self.voltages)

    def slots_for_voltage(self, voltage: float) -> np.ndarray:
        """Slot indices evaluating at the given voltage."""
        return np.where(np.isclose(self.voltages, voltage))[0]

    def take(self, indices) -> "SlotPlan":
        """Sub-plan of the given slot indices (demux / chunk slicing)."""
        chosen = np.asarray(indices, dtype=np.int64)
        return SlotPlan(pattern_indices=self.pattern_indices[chosen],
                        voltages=self.voltages[chosen])

    # -- batching -------------------------------------------------------------------

    def batches(self, max_slots: int) -> Iterator[Tuple[np.ndarray, "SlotPlan"]]:
        """Chunk into sub-plans of at most ``max_slots`` slots.

        Yields ``(slot_indices, sub_plan)`` so callers can stitch results
        back into the full plane.
        """
        if max_slots < 1:
            raise ValueError("max_slots must be positive")
        for start in range(0, self.num_slots, max_slots):
            indices = np.arange(start, min(start + max_slots, self.num_slots))
            yield indices, self.take(indices)


@dataclass(frozen=True)
class Segments:
    """A slot plane divided among its consumers.

    Segment ``g`` is the next ``slot_counts[g]`` slots of the plane, in
    plane order — the jobs of one service batch.  A run given its
    segments hands each its own private result plane instead of one
    plane for the caller to cut up.
    """

    slot_counts: Tuple[int, ...]
    #: ``len(slot_counts) + 1`` slot bounds: segment ``g`` is the
    #: slots ``bounds[g]:bounds[g + 1]``.
    bounds: Tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        counts = tuple(int(count) for count in self.slot_counts)
        if not counts or min(counts) < 0:
            raise ValueError("segments need non-negative slot counts")
        object.__setattr__(self, "slot_counts", counts)
        object.__setattr__(self, "bounds",
                           tuple(accumulate(counts, initial=0)))

    @property
    def num_slots(self) -> int:
        return self.bounds[-1]
