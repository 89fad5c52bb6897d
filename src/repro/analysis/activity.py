"""Glitch-accurate switching activity (the paper's Sec. I motivation).

The waveform representation keeps every toggle, so activity analysis can
separate *functional* transitions (the final-value change a zero-delay
model would predict: 0 or 1 per net per pattern) from *glitch*
transitions (everything beyond that).  Glitch activity is exactly what
static/zero-delay models miss and what matters for small-delay fault
testing and power estimation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.errors import SimulationError
from repro.simulation.base import SimulationResult

__all__ = ["ActivityReport", "switching_activity"]


@dataclass(frozen=True)
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
    """

    num_slots: int
    toggles: Dict[str, int]
    functional: Dict[str, int]
    glitches: Dict[str, int]

    @property
    def total_toggles(self) -> int:
        return sum(self.toggles.values())

    @property
    def total_glitches(self) -> int:
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
    toggles: Dict[str, int] = {}
    functional: Dict[str, int] = {}
    plane = result.plane
    if plane is not None:
        # Columnar: a waveform ends away from its initial value exactly
        # when its toggle count is odd.
        counts = plane.counts[:, chosen]
        toggles = dict(zip(plane.nets, counts.sum(axis=1).tolist()))
        functional = dict(zip(plane.nets,
                              (counts & 1).sum(axis=1).tolist()))
    else:
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
