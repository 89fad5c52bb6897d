"""Latest-transition arrival extraction (Table II columns 3–8).

For each operating point of a slot plane, the *latest transition arrival
time* is the time of the last output toggle observed across all patterns
— the quantity Table II sweeps over supply voltages and compares against
the STA longest path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.netlist.circuit import Circuit
from repro.simulation.base import SimulationResult
from repro.simulation.grid import SlotPlan

__all__ = ["ArrivalReport", "latest_arrivals"]


@dataclass(frozen=True)
class ArrivalReport:
    """Latest transition arrival per operating point.

    Attributes
    ----------
    by_voltage:
        Voltage → latest arrival (seconds) over all patterns; ``-inf``
        when nothing toggled.
    critical_slot:
        Voltage → slot index where the latest transition occurred.
    """

    circuit_name: str
    by_voltage: Dict[float, float]
    critical_slot: Dict[float, int]

    def at(self, voltage: float) -> float:
        for key, value in self.by_voltage.items():
            if np.isclose(key, voltage):
                return value
        raise KeyError(f"voltage {voltage} not in report")

    def voltages(self) -> List[float]:
        return sorted(self.by_voltage)

    def relative_to(self, reference: float, voltage: float) -> float:
        """Relative deviation of ``at(voltage)`` w.r.t. a reference time."""
        return self.at(voltage) / reference - 1.0


def latest_arrivals(
    result: SimulationResult,
    circuit: Circuit,
    plan: Optional[SlotPlan] = None,
    nets: Optional[Sequence[str]] = None,
) -> ArrivalReport:
    """Extract the Table II metric from a simulation result.

    ``plan`` recovers the voltage of each slot; when omitted the slot
    labels stored in the result are used.  ``nets`` defaults to the
    primary outputs.
    """
    watch = list(nets) if nets is not None else list(circuit.outputs)
    voltages = (
        plan.voltages if plan is not None
        else np.asarray([v for _, v in result.slot_labels], dtype=np.float64)
    )
    arrivals = result.slot_arrivals(watch)
    # Per supply: the first slot holding its largest arrival; a supply
    # where nothing toggled is left out.  Supplies enter the report in
    # the order their first toggling slot appears.
    distinct, slot_to_v = np.unique(voltages, return_inverse=True)
    toggled = np.flatnonzero(arrivals > -np.inf)
    found, first = np.unique(slot_to_v[toggled], return_index=True)
    by_voltage: Dict[float, float] = {}
    critical: Dict[float, int] = {}
    for v in found[np.argsort(toggled[first])].tolist():
        slots = np.flatnonzero(slot_to_v == v)
        slot = int(slots[np.argmax(arrivals[slots])])
        voltage = float(distinct[v])
        by_voltage[voltage] = float(arrivals[slot])
        critical[voltage] = slot
    return ArrivalReport(
        circuit_name=circuit.name,
        by_voltage=by_voltage,
        critical_slot=critical,
    )
