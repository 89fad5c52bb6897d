"""Dynamic power estimation from glitch-accurate switching activity.

Dynamic switching energy per toggle of a net is ``½ · C_net · V_DD²``;
summing toggles over the simulated patterns gives per-pattern energy, and
dividing by the clock period (or multiplying by frequency) gives power.
Because the activity comes from glitch-accurate waveforms, the estimate
includes hazard power that zero-delay activity misses — one of the
paper's motivating applications (ref. [15]).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from repro.analysis.activity import ActivityReport
from repro.errors import SimulationError

__all__ = ["PowerReport", "dynamic_power", "load_vector"]


@dataclass(frozen=True)
class PowerReport:
    """Dynamic switching power/energy estimate.

    Attributes
    ----------
    voltage:
        Supply voltage the energy is evaluated at.
    energy_per_pattern:
        Average switching energy per pattern pair (joules).
    glitch_energy_per_pattern:
        Portion attributable to glitch transitions.
    power:
        Average power at the given clock frequency (watts); ``None``
        when no frequency was supplied.
    frequency:
        Clock frequency used for the power figure.
    """

    voltage: float
    energy_per_pattern: float
    glitch_energy_per_pattern: float
    frequency: Optional[float]
    power: Optional[float]

    @property
    def glitch_fraction(self) -> float:
        """Share of dynamic energy wasted in glitches."""
        if self.energy_per_pattern == 0:
            return 0.0
        return self.glitch_energy_per_pattern / self.energy_per_pattern


def load_vector(loads: Mapping[str, float],
                nets: Sequence[str]) -> np.ndarray:
    """``loads`` resolved once into the array form :func:`dynamic_power`
    takes for columnar activity: one capacitance per net of ``nets``
    (a result plane's, in its order), ``nan`` where ``loads`` has none."""
    return np.asarray([loads.get(net, np.nan) for net in nets],
                      dtype=np.float64)


def dynamic_power(
    activity: ActivityReport,
    loads: Union[Mapping[str, float], np.ndarray],
    voltage: float,
    frequency: Optional[float] = None,
) -> PowerReport:
    """Estimate dynamic power from an activity report.

    Parameters
    ----------
    loads:
        Net → load capacitance in farads (from
        :meth:`repro.netlist.circuit.Circuit.net_loads` or a SPEF file),
        or its :func:`load_vector` over the nets of a columnar
        ``activity`` — same figures bit for bit, without a dict lookup
        per net.
    voltage:
        Supply voltage in volts.
    frequency:
        Optional clock frequency in hertz for the power figure.
    """
    if voltage <= 0:
        raise SimulationError("voltage must be positive")
    energy = 0.0
    glitch_energy = 0.0
    factor = 0.5 * voltage * voltage
    if isinstance(loads, np.ndarray):
        if activity.nets is None or loads.shape != (len(activity.nets),):
            raise SimulationError(
                "a load vector needs columnar activity over the same nets")
        known = ~np.isnan(loads)
        if known.any():
            # The dict walk below, vectorized: the same products, added
            # up in net order (``accumulate`` is sequential where
            # ``sum`` is pairwise), so both paths agree to the last bit.
            weights = factor * loads[known]
            toggles = activity.toggle_counts[known]
            glitches = toggles - activity.functional_counts[known]
            energy = float(np.add.accumulate(weights * toggles)[-1])
            glitch_energy = float(np.add.accumulate(weights * glitches)[-1])
    else:
        for net, toggles in activity.toggles.items():
            cap = loads.get(net)
            if cap is None:
                continue
            energy += factor * cap * toggles
            glitch_energy += factor * cap * activity.glitches.get(net, 0)
    per_pattern = energy / activity.num_slots
    glitch_per_pattern = glitch_energy / activity.num_slots
    power = per_pattern * frequency if frequency else None
    return PowerReport(
        voltage=voltage,
        energy_per_pattern=per_pattern,
        glitch_energy_per_pattern=glitch_per_pattern,
        frequency=frequency,
        power=power,
    )
