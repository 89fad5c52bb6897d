"""Glitch-accurate switching activity (the paper's Sec. I motivation).

The waveform representation keeps every toggle, so activity analysis can
separate *functional* transitions (the final-value change a zero-delay
model would predict: 0 or 1 per net per pattern) from *glitch*
transitions (everything beyond that).  Glitch activity is exactly what
static/zero-delay models miss and what matters for small-delay fault
testing and power estimation.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.simulation.base import SimulationResult

__all__ = ["ActivityReport", "switching_activity"]


class ActivityReport:
    """Per-net switching activity aggregated over slots.

    Attributes
    ----------
    toggles:
        Total toggle count per net (summed over the selected slots).
    functional:
        Toggles any zero-delay model would predict (final value differs
        from initial value): at most one per net per slot.
    glitches:
        ``toggles − functional`` — the hazard activity only a
        glitch-accurate time simulation reveals.

    A report over a columnar result is columnar itself: ``nets`` (the
    plane's, in its order) with the aligned int64 vectors
    ``toggle_counts`` and ``functional_counts``; the three dicts above
    are then built on first access.  A report built from dicts
    (mapping-built results, hand-made reports) has ``nets = None``.
    """

    def __init__(self, num_slots: int,
                 toggles: Optional[Dict[str, int]] = None,
                 functional: Optional[Dict[str, int]] = None,
                 glitches: Optional[Dict[str, int]] = None, *,
                 nets: Optional[Tuple[str, ...]] = None,
                 toggle_counts: Optional[np.ndarray] = None,
                 functional_counts: Optional[np.ndarray] = None) -> None:
        self.num_slots = num_slots
        self.nets = nets
        self.toggle_counts = toggle_counts
        self.functional_counts = functional_counts
        if nets is None:
            # Instance attributes shadow the lazy builders below.
            self.toggles = toggles
            self.functional = functional
            self.glitches = glitches

    @cached_property
    def toggles(self) -> Dict[str, int]:
        return dict(zip(self.nets, self.toggle_counts.tolist()))

    @cached_property
    def functional(self) -> Dict[str, int]:
        return dict(zip(self.nets, self.functional_counts.tolist()))

    @cached_property
    def glitches(self) -> Dict[str, int]:
        return dict(zip(self.nets, (self.toggle_counts
                                    - self.functional_counts).tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ActivityReport):
            return NotImplemented
        return ((self.num_slots, self.toggles, self.functional, self.glitches)
                == (other.num_slots, other.toggles, other.functional,
                    other.glitches))

    def __repr__(self) -> str:
        return (f"ActivityReport(num_slots={self.num_slots}, "
                f"nets={len(self.toggles)}, toggles={self.total_toggles}, "
                f"glitches={self.total_glitches})")

    @property
    def total_toggles(self) -> int:
        if self.nets is not None:
            return int(self.toggle_counts.sum())
        return sum(self.toggles.values())

    @property
    def total_glitches(self) -> int:
        if self.nets is not None:
            return int((self.toggle_counts - self.functional_counts).sum())
        return sum(self.glitches.values())

    @property
    def glitch_ratio(self) -> float:
        """Fraction of all toggles that are glitches."""
        total = self.total_toggles
        return self.total_glitches / total if total else 0.0

    def hotspots(self, count: int = 10) -> List[str]:
        """Nets with the most glitch transitions, worst first."""
        ranked = sorted(self.glitches, key=self.glitches.get, reverse=True)
        return [net for net in ranked[:count] if self.glitches[net] > 0]


def switching_activity(
    result: SimulationResult,
    slots: Optional[Sequence[int]] = None,
) -> ActivityReport:
    """Aggregate switching activity from a simulation result.

    The result must have been produced with ``record_all_nets=True`` (or
    at least contain every net of interest).
    """
    chosen = list(slots) if slots is not None else list(range(result.num_slots))
    if not chosen:
        raise SimulationError("no slots selected")
    plane = result.plane
    if plane is not None:
        # Columnar: a waveform ends away from its initial value exactly
        # when its toggle count is odd.
        counts = plane.counts if slots is None else plane.counts[:, chosen]
        return ActivityReport(
            num_slots=len(chosen), nets=plane.nets,
            toggle_counts=counts.sum(axis=1),
            functional_counts=(counts & 1).sum(axis=1))
    toggles: Dict[str, int] = {}
    functional: Dict[str, int] = {}
    for slot in chosen:
        for net, waveform in result.waveforms[slot].items():
            count = waveform.num_transitions
            toggles[net] = toggles.get(net, 0) + count
            if waveform.final_value != waveform.initial:
                functional[net] = functional.get(net, 0) + 1
            else:
                functional.setdefault(net, 0)
    glitches = {
        net: toggles[net] - functional.get(net, 0) for net in toggles
    }
    return ActivityReport(
        num_slots=len(chosen),
        toggles=toggles,
        functional=functional,
        glitches=glitches,
    )
