"""Distribution statistics over waveform populations.

Reporting helpers for the quantities AVFS exploration and test-quality
studies look at as *distributions* rather than single numbers:

* :func:`arrival_histogram` — latest-transition arrival times across
  slots (e.g. Monte-Carlo die samples or pattern populations),
* :func:`pulse_width_histogram` — widths of all pulses in a result (the
  glitch-energy spectrum; inertial filtering guarantees a lower cutoff),
* :func:`toggles_per_level` — switching activity by logic depth (where
  in the circuit the glitching amplifies).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.analysis.activity import switching_activity
from repro.errors import SimulationError
from repro.netlist.circuit import Circuit
from repro.simulation.base import SimulationResult
from repro.waveform.plane import WaveformPlane

__all__ = ["Histogram", "arrival_histogram", "pulse_width_histogram",
           "toggles_per_level"]


@dataclass(frozen=True)
class Histogram:
    """A binned distribution with its summary statistics.

    ``edges`` has one more entry than ``counts``; all values are in the
    unit of the measured quantity (seconds for times).
    """

    edges: np.ndarray
    counts: np.ndarray
    mean: float
    std: float
    minimum: float
    maximum: float
    samples: int

    def percentile(self, q: float) -> float:
        """Approximate percentile from the binned data (0..100)."""
        if not 0 <= q <= 100:
            raise ValueError("percentile must be in [0, 100]")
        if self.samples == 0:
            raise SimulationError("empty histogram")
        cumulative = np.cumsum(self.counts)
        target = q / 100.0 * cumulative[-1]
        index = int(np.searchsorted(cumulative, target))
        index = min(index, len(self.counts) - 1)
        return float(0.5 * (self.edges[index] + self.edges[index + 1]))

    def format(self, width: int = 40, unit_scale: float = 1e12,
               unit: str = "ps") -> str:
        """ASCII bar rendering for terminal reports."""
        lines = []
        peak = max(int(self.counts.max()), 1)
        for position, count in enumerate(self.counts):
            bar = "#" * int(round(width * count / peak))
            lines.append(
                f"{self.edges[position]*unit_scale:9.1f}-"
                f"{self.edges[position+1]*unit_scale:9.1f} {unit} |"
                f"{bar} {int(count)}"
            )
        return "\n".join(lines)


def _build(values: np.ndarray, bins: int) -> Histogram:
    if values.size == 0:
        raise SimulationError("no samples to histogram")
    counts, edges = np.histogram(values, bins=bins)
    return Histogram(
        edges=edges,
        counts=counts,
        mean=float(values.mean()),
        std=float(values.std()),
        minimum=float(values.min()),
        maximum=float(values.max()),
        samples=int(values.size),
    )


def arrival_histogram(
    result: SimulationResult,
    nets: Sequence[str],
    slots: Optional[Sequence[int]] = None,
    bins: int = 20,
) -> Histogram:
    """Latest-transition arrival times, one sample per selected slot.

    Slots whose watched nets never toggle are skipped (no arrival).
    """
    arrivals = result.slot_arrivals(
        nets, list(slots) if slots is not None else None)
    return _build(arrivals[np.isfinite(arrivals)], bins)


def pulse_width_histogram(
    result: SimulationResult,
    slots: Optional[Sequence[int]] = None,
    bins: int = 20,
) -> Histogram:
    """Widths of every pulse of every recorded waveform."""
    chosen = list(slots) if slots is not None else range(result.num_slots)
    plane = WaveformPlane.from_waveforms(result.waveforms)
    # Differences of the dense payload, minus those that straddle two
    # (net, slot) blocks.
    _, counts, times = plane.take(chosen, copy=False).packed()
    counts = counts.reshape(-1)
    block_start = np.zeros(times.size, dtype=bool)
    block_start[(np.cumsum(counts) - counts)[counts > 0]] = True
    pulses = np.diff(times)[~block_start[1:]]
    if not pulses.size:
        raise SimulationError("no pulses in the selected slots")
    return _build(pulses, bins)


def toggles_per_level(
    result: SimulationResult,
    circuit: Circuit,
    slots: Optional[Sequence[int]] = None,
) -> Dict[int, int]:
    """Total toggle count per logic level (PIs are level 0).

    Requires a result recorded with ``record_all_nets=True``.  Rising
    glitch activity toward deeper levels is the signature of hazard
    amplification through reconvergent logic.
    """
    level_of_net: Dict[str, int] = {net: 0 for net in circuit.inputs}
    for level_index, bucket in enumerate(circuit.levelize(), start=1):
        for gate_index in bucket:
            level_of_net[circuit.gates[gate_index].output] = level_index
    chosen = list(slots) if slots is not None else range(result.num_slots)
    totals: Dict[int, int] = {}
    if not chosen:
        return totals
    for net, count in switching_activity(result, chosen).toggles.items():
        level = level_of_net.get(net)
        if level is not None:
            totals[level] = totals.get(level, 0) + count
    return dict(sorted(totals.items()))
