"""The "SPICE" front end: parameter sweeps producing delay sample grids.

:class:`AnalyticalSpice` plays the role of the commercial SPICE tool in
the paper's Fig. 1 step A: for a cell, input pin and transition polarity
it runs a transient-analysis *parameter sweep* over a finite grid of
operating points and returns the measured propagation delays as a
:class:`DelayGrid`.

The default sweep grid matches the paper's Sec. V setup exactly:
``V_DD ∈ [0.55 V, 1.1 V]`` in steps of 0.05 V (nominal 0.8 V) and output
loads ``C ∈ {2^i fF | i = −1 … 7}``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.cells.cell import Cell, CellPin, DrivePolarity
from repro.electrical.model import ElectricalModel, TransistorCorner
from repro.units import FF

__all__ = ["AnalyticalSpice", "DelayGrid", "PAPER_VOLTAGES", "PAPER_LOADS",
           "NOMINAL_VOLTAGE"]

#: The paper's regression sweep: 0.55 V … 1.10 V in 0.05 V steps.
PAPER_VOLTAGES: Tuple[float, ...] = tuple(
    round(0.55 + 0.05 * i, 2) for i in range(12)
)

#: The paper's output loads: 2^i fF for i = −1 … 7 (0.5 fF … 128 fF).
PAPER_LOADS: Tuple[float, ...] = tuple(2.0 ** i * FF for i in range(-1, 8))

#: Nominal supply voltage (paper Sec. V).
NOMINAL_VOLTAGE = 0.8


@dataclass(frozen=True)
class DelayGrid:
    """Sampled propagation delays over a (voltage × load) grid.

    Attributes
    ----------
    voltages:
        Strictly increasing supply voltages, shape ``(nv,)``.
    loads:
        Strictly increasing load capacitances, shape ``(nc,)``.
    delays:
        Propagation delays in seconds, shape ``(nv, nc)``;
        ``delays[i, j]`` is the delay at ``(voltages[i], loads[j])``.
    """

    voltages: np.ndarray
    loads: np.ndarray
    delays: np.ndarray

    def __post_init__(self) -> None:
        if self.delays.shape != (len(self.voltages), len(self.loads)):
            raise ValueError(
                f"delay grid shape {self.delays.shape} does not match "
                f"{len(self.voltages)} voltages x {len(self.loads)} loads"
            )
        if np.any(np.diff(self.voltages) <= 0) or np.any(np.diff(self.loads) <= 0):
            raise ValueError("grid axes must be strictly increasing")

    @property
    def shape(self) -> Tuple[int, int]:
        return self.delays.shape

    def delay_at(self, v: float, c: float) -> float:
        """Exact sample lookup; ``(v, c)`` must be grid points."""
        i = int(np.argmin(np.abs(self.voltages - v)))
        j = int(np.argmin(np.abs(self.loads - c)))
        if not np.isclose(self.voltages[i], v, rtol=1e-9, atol=0.0) or \
                not np.isclose(self.loads[j], c, rtol=1e-9, atol=0.0):
            raise KeyError(f"({v}, {c}) is not a grid point")
        return float(self.delays[i, j])

    def column(self, c: float) -> np.ndarray:
        """Delay-vs-voltage column for one load value."""
        j = int(np.argmin(np.abs(self.loads - c)))
        if not np.isclose(self.loads[j], c, rtol=1e-9, atol=0.0):
            raise KeyError(f"{c} is not a sampled load")
        return self.delays[:, j].copy()


class AnalyticalSpice:
    """Transient-analysis sweep driver over the analytical model.

    Parameters
    ----------
    corner:
        Process corner; defaults to the typical corner.
    """

    def __init__(self, corner: Optional[TransistorCorner] = None) -> None:
        self.model = ElectricalModel(corner or TransistorCorner())
        #: Number of transient analyses "run" so far (sweep bookkeeping,
        #: matches the paper's observation that a full sweep takes a few
        #: minutes per cell on real SPICE).
        self.transient_runs = 0
        #: Number of delay points evaluated so far.  The adaptive
        #: characterization flow budgets and reports against this counter
        #: (its whole point is doing fewer of these); it equals
        #: ``transient_runs`` because every transient analysis measures
        #: exactly one delay point.
        self.delay_evaluations = 0
        # Counters are guarded: characterize_library fans one spice out
        # across pool workers, and ``+=`` is not atomic.
        self._lock = threading.Lock()

    # -- single measurements ----------------------------------------------------

    def measure(self, cell: Cell, pin: CellPin, polarity: DrivePolarity,
                v: float, c: float) -> float:
        """One transient analysis: the pin-to-pin delay at ``(v, c)``."""
        return float(self.delays_at(cell, pin, polarity, [(v, c)])[0])

    def delays_at(self, cell, pin, polarity, points) -> np.ndarray:
        """Batched transient analyses at arbitrary operating points.

        ``points`` is an ``(m, 2)`` array-like of ``(v, c)`` pairs.  One
        entry — a :class:`Cell`, a pin and a polarity — returns the
        ``(m,)`` array of its propagation delays.  Equal-length
        sequences of cells, pins and polarities are a *stack* of ``B``
        entries measured at the shared ``points`` in one model call and
        return ``(B, m)``; row ``b`` is bit for bit what the one-entry
        call of entry ``b`` returns.

        One transient analysis is counted per entry and point once the
        model has returned, so adaptive sampling cost is measured
        exactly and a call that raises (``c <= 0``, ``v <= vth``) counts
        nothing.
        """
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(
                f"points must have shape (m, 2), got {pts.shape}")
        stacked = not isinstance(cell, Cell)
        cells, pins, polarities = (
            (list(cell), list(pin), list(polarity)) if stacked
            else ((cell,), (pin,), (polarity,)))
        if not 0 < len(cells) == len(pins) == len(polarities):
            raise ValueError(
                f"a stack is one pin and one polarity per cell, got "
                f"{len(cells)} cells, {len(pins)} pins, {len(polarities)} polarities")
        delays = self.model.pin_delays(cells, pins, polarities, pts[:, 0], pts[:, 1])
        with self._lock:
            self.transient_runs += delays.size
            self.delay_evaluations += delays.size
        return delays if stacked else delays[0]

    # -- sweeps -----------------------------------------------------------------

    def sweep(self, cell: Cell, pin: CellPin, polarity: DrivePolarity,
              voltages: Sequence[float] = PAPER_VOLTAGES,
              loads: Sequence[float] = PAPER_LOADS) -> DelayGrid:
        """Parameter sweep over a (voltage × load) grid (Fig. 1 step A)."""
        v_arr = np.asarray(voltages, dtype=np.float64)
        c_arr = np.asarray(loads, dtype=np.float64)
        v_mesh, c_mesh = np.meshgrid(v_arr, c_arr, indexing="ij")
        delays = self.delays_at(
            cell, pin, polarity, np.column_stack([v_mesh.ravel(), c_mesh.ravel()])
        ).reshape(v_arr.size, c_arr.size)
        return DelayGrid(voltages=v_arr, loads=c_arr, delays=delays)

    def sweep_cell(self, cell: Cell,
                   voltages: Sequence[float] = PAPER_VOLTAGES,
                   loads: Sequence[float] = PAPER_LOADS):
        """Sweep every (pin, polarity) combination of a cell.

        Yields ``(pin, polarity, grid)`` tuples in pin order, rise first —
        the iteration order of the characterization flow.
        """
        for pin in sorted(cell.pins, key=lambda p: p.index):
            for polarity in (DrivePolarity.RISE, DrivePolarity.FALL):
                yield pin, polarity, self.sweep(cell, pin, polarity, voltages, loads)
