"""Per-cell analytical pin-to-pin delay model.

The propagation delay of a cell output transition is decomposed following
the logical-effort formulation the paper quotes as Eq. 2,

    d = τ · (g·h + p),

with the two components given *separate* α-power-law time constants:

* the **load-driven** term ``τ_load(v) · g · h`` — charging the external
  load ``c`` through the switching transistor network (``h = c / c_in``
  is the electrical effort of the pin), and
* the **parasitic** term ``τ_par(v) · p`` — charging the cell's internal
  diffusion capacitance.

Using slightly different threshold voltages and α indices for the two
terms reflects reality (internal nodes see different effective drive than
the output rail) and makes the *relative* delay deviation
``d(v,c)/d(v_nom,c) − 1`` genuinely two-dimensional: how strongly a gate
slows down at low voltage depends on how load-dominated it is.  This is
the surface shape the paper's Fig. 5 shows.

A small voltage–load cross term models drive weakening for heavily loaded
gates near threshold, and an optional deterministic "measurement ripple"
emulates SPICE numerical noise so that regression errors have a realistic
floor instead of collapsing to machine precision.

The expression is stated once (:meth:`ElectricalModel._delay`) over the
parameters of an entry — a (cell, pin, polarity) triple.
:meth:`ElectricalModel.pin_delay` passes them as scalars;
:meth:`ElectricalModel.pin_delays` evaluates a *stack* of entries at
shared operating points by passing them as columns, and returns bit for
bit the rows the one-entry calls would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

from repro.cells.cell import Cell, CellPin, DrivePolarity
from repro.electrical.alpha_power import AlphaPowerParams
from repro.units import PS

__all__ = ["TransistorCorner", "ElectricalModel"]


@dataclass(frozen=True)
class TransistorCorner:
    """α-power parameters of the pull-up/pull-down networks of a process.

    One corner bundles the four time constants the model needs: the
    load-driven and parasitic constants for rising (PMOS pull-up) and
    falling (NMOS pull-down) output transitions.
    """

    name: str = "typical"
    rise_load: AlphaPowerParams = field(
        default_factory=lambda: AlphaPowerParams(k=1.05 * PS, vth=0.27, alpha=1.20)
    )
    fall_load: AlphaPowerParams = field(
        default_factory=lambda: AlphaPowerParams(k=0.97 * PS, vth=0.24, alpha=1.12)
    )
    rise_par: AlphaPowerParams = field(
        default_factory=lambda: AlphaPowerParams(k=0.62 * PS, vth=0.29, alpha=1.30)
    )
    fall_par: AlphaPowerParams = field(
        default_factory=lambda: AlphaPowerParams(k=0.58 * PS, vth=0.26, alpha=1.22)
    )
    #: Strength of the voltage–load cross term (dimensionless).
    coupling: float = 0.03
    #: Relative amplitude of the deterministic measurement ripple.
    noise: float = 0.0012

    def load_params(self, polarity: DrivePolarity) -> AlphaPowerParams:
        return self.rise_load if polarity is DrivePolarity.RISE else self.fall_load

    def parasitic_params(self, polarity: DrivePolarity) -> AlphaPowerParams:
        return self.rise_par if polarity is DrivePolarity.RISE else self.fall_par

    def scaled(self, name: str, k_factor: float, vth_shift: float) -> "TransistorCorner":
        """Derive a process corner by scaling drive and shifting V_th."""
        def adjust(params: AlphaPowerParams) -> AlphaPowerParams:
            return AlphaPowerParams(
                k=params.k * k_factor,
                vth=params.vth + vth_shift,
                alpha=params.alpha,
            )

        return TransistorCorner(
            name=name,
            rise_load=adjust(self.rise_load),
            fall_load=adjust(self.fall_load),
            rise_par=adjust(self.rise_par),
            fall_par=adjust(self.fall_par),
            coupling=self.coupling,
            noise=self.noise,
        )

    @classmethod
    def typical(cls) -> "TransistorCorner":
        """The TT corner (all defaults)."""
        return cls()

    @classmethod
    def slow(cls) -> "TransistorCorner":
        """SS corner: weaker drive, higher thresholds (worst-case timing)."""
        return cls().scaled("slow", k_factor=1.18, vth_shift=+0.03)

    @classmethod
    def fast(cls) -> "TransistorCorner":
        """FF corner: stronger drive, lower thresholds (best-case timing)."""
        return cls().scaled("fast", k_factor=0.86, vth_shift=-0.03)

    def at_temperature(self, celsius: float) -> "TransistorCorner":
        """Derate this corner to a junction temperature.

        Two standard, opposing effects (the temperature axis the paper's
        related work [17, 21] models alongside voltage):

        * carrier mobility degrades, ``k ∝ (T/T₀)^1.2`` — slower when
          hot at strong overdrive,
        * the threshold voltage drops ≈ 1.2 mV/K — *faster* when hot
          near threshold.

        Their competition produces the well-known temperature-inversion
        behaviour: at low supply voltages high temperature hurts much
        less (or even helps), which matters for near-threshold AVFS
        operating points.  Reference temperature is 25 °C.
        """
        if not -55.0 <= celsius <= 175.0:
            raise ValueError(f"junction temperature {celsius} °C out of range")
        t_ref = 298.15
        t = celsius + 273.15
        k_factor = (t / t_ref) ** 1.2
        vth_shift = -1.2e-3 * (t - t_ref)
        return self.scaled(f"{self.name}@{celsius:g}C", k_factor, vth_shift)


#: Golden-ratio-family multipliers turning an entry seed into its three
#: ripple phases.
_PHASE_STEPS = (0.6180339887, 0.7548776662, 0.5698402910)


def _ripple(phases: Sequence, v, c_norm):
    """Smooth deterministic pseudo-noise over the operating-point plane.

    A short sum of incommensurate sinusoids shifted by the entry's three
    ``phases``; continuous in (v, c) so interpolation behaves like it
    would on real, slightly noisy SPICE data.  Zero-mean, unit amplitude.
    """
    phase1, phase2, phase3 = phases
    return (
        np.sin(23.0 * v + phase1)
        + np.sin(17.0 * c_norm + phase2)
        + np.sin(13.0 * v + 11.0 * c_norm + phase3)
    ) / 3.0


def _operating_points(v, c) -> Tuple[np.ndarray, np.ndarray]:
    """``(v, c)`` as float64 arrays; the load must be positive."""
    v_arr = np.asarray(v, dtype=np.float64)
    c_arr = np.asarray(c, dtype=np.float64)
    if np.any(c_arr <= 0):
        raise ValueError("load capacitance must be positive")
    return v_arr, c_arr


class ElectricalModel:
    """Analytical pin-to-pin delay evaluator for a process corner."""

    def __init__(self, corner: TransistorCorner = TransistorCorner()) -> None:
        self.corner = corner

    # -- main entry point -----------------------------------------------------

    def pin_delay(self, cell: Cell, pin: CellPin, polarity: DrivePolarity, v, c):
        """Propagation delay of ``cell`` from ``pin`` to the output.

        The stack of one: the entry's parameters enter the delay
        expression as scalars where :meth:`pin_delays` passes columns.

        Parameters
        ----------
        polarity:
            Output transition polarity (:class:`DrivePolarity`).
        v, c:
            Supply voltage [V] and output load capacitance [F]; scalars or
            broadcastable NumPy arrays.

        Returns
        -------
        Delay in seconds, matching the broadcast shape of ``v`` and ``c``.
        """
        v_arr, c_arr = _operating_points(v, c)
        delay = self._delay(
            self._parameters(cell, pin, polarity),
            *self._time_constants(polarity, v_arr), v_arr, c_arr)
        if np.ndim(v) == 0 and np.ndim(c) == 0:
            return float(delay)
        return delay

    def pin_delays(self, cells: Sequence[Cell], pins: Sequence[CellPin],
                   polarities: Sequence[DrivePolarity], v, c) -> np.ndarray:
        """Delays of a stack of ``B`` entries at shared operating points.

        Entry ``b`` is ``(cells[b], pins[b], polarities[b])``; ``v`` and
        ``c`` are scalars or broadcastable arrays shared by every entry.
        Returns ``(B,) + broadcast(v, c).shape``.  What differs per entry
        is a column of parameters broadcast against the points, so every
        element sees the operands, in the order, of a one-entry call:
        row ``b`` carries the bits ``pin_delay(cells[b], ...)`` returns,
        whatever stack it rides in.
        """
        v_arr, c_arr = _operating_points(v, c)
        # One value per entry, broadcast against the points.
        shape = (len(cells),) + (1,) * max(v_arr.ndim, c_arr.ndim)
        columns = np.asarray(
            [self._parameters(*entry) for entry in zip(cells, pins, polarities)],
            dtype=np.float64).T.reshape((-1,) + shape)

        # The time constants depend on (polarity, v) only: once per
        # polarity present, selected per entry.
        rise = [polarity is DrivePolarity.RISE for polarity in polarities]
        if all(rise) or not any(rise):
            tau_load, tau_par = self._time_constants(polarities[0], v_arr)
        else:
            rise = np.asarray(rise).reshape(shape)
            tau_load, tau_par = (
                np.where(rise, of_rise, of_fall) for of_rise, of_fall in zip(
                    self._time_constants(DrivePolarity.RISE, v_arr),
                    self._time_constants(DrivePolarity.FALL, v_arr)))
        return self._delay(columns, tau_load, tau_par, v_arr, c_arr)

    def cell_delays(self, cell: Cell, v, c) -> Tuple[Tuple[float, float], ...]:
        """All pin-to-pin delays of a cell at a scalar operating point.

        Returns one ``(rise, fall)`` pair per input pin, in pin order —
        the structure an SDF ``IOPATH`` annotation stores.
        """
        result = []
        for pin in sorted(cell.pins, key=lambda p: p.index):
            rise = self.pin_delay(cell, pin, DrivePolarity.RISE, v, c)
            fall = self.pin_delay(cell, pin, DrivePolarity.FALL, v, c)
            result.append((rise, fall))
        return tuple(result)

    # -- internals -------------------------------------------------------------

    def _delay(self, parameters, tau_load, tau_par, v_arr, c_arr):
        """The delay expression, stated once.

        ``parameters`` is one entry's :meth:`_parameters` or a stack's
        columns of them; ``tau_load`` / ``tau_par`` are the matching
        time constants over ``v_arr``.
        """
        input_cap, effort, parasitic, parasitic_weight, *phases = parameters
        effort_h = c_arr / input_cap
        load_term = tau_load * effort * effort_h
        par_term = tau_par * parasitic * parasitic_weight

        # Voltage-load coupling: a heavily loaded gate loses proportionally
        # more drive when the rail drops below nominal (slew degradation).
        v_nom = 0.8
        coupling = 1.0 + self.corner.coupling * (v_nom / v_arr - 1.0) * np.log2(
            1.0 + effort_h
        ) / 8.0

        delay = (load_term + par_term) * coupling

        if self.corner.noise:
            c_norm = np.log2(c_arr / 1e-15)  # femtofarad exponent
            delay = delay * (1.0 + self.corner.noise * _ripple(phases, v_arr, c_norm))
        return delay

    def _parameters(self, cell: Cell, pin: CellPin,
                    polarity: DrivePolarity) -> Tuple[float, ...]:
        """What the delay expression reads of one entry: input capacitance,
        logical effort, parasitic delay and its pin weight, then — for a
        corner with measurement noise — the three ripple phases that
        derive from the entry's stable seed."""
        parameters = (pin.input_cap, pin.effort, cell.parasitic, pin.parasitic_weight)
        if not self.corner.noise:
            return parameters
        seed = self._seed(cell, pin, polarity)
        return parameters + tuple(
            (seed * step) % 1.0 * 2.0 * math.pi for step in _PHASE_STEPS)

    def _time_constants(self, polarity: DrivePolarity, v_arr):
        """``(τ_load(v), τ_par(v))`` of one output polarity."""
        return (self.corner.load_params(polarity)(v_arr),
                self.corner.parasitic_params(polarity)(v_arr))

    @staticmethod
    def _seed(cell: Cell, pin: CellPin, polarity: DrivePolarity) -> int:
        """Stable per-(cell, pin, polarity) seed for the noise ripple."""
        text = f"{cell.name}/{pin.name}/{polarity.name}"
        seed = 2166136261
        for char in text:
            seed = ((seed ^ ord(char)) * 16777619) & 0xFFFFFFFF
        return seed
