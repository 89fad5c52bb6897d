"""Static timing analysis (the Table II column-2 comparator).

A topological worst-case arrival-time analysis with separate rise/fall
arrival tracking and pin-unateness-aware propagation:

* a positive-unate pin forwards rise→rise and fall→fall,
* a negative-unate pin (inverting cells) forwards fall→rise, rise→fall,
* a binate pin (XOR, MUX) forwards the worse of both.

STA is pessimistic by construction — it assumes every path is
sensitizable.  The paper's Table II shows exactly this gap: the latest
*simulated* transition arrival is well below the STA longest path for
most designs.

Delays default to the nominal SDF annotation; passing a compiled delay
kernel table and a voltage re-derates every gate (parametric STA), which
lets :mod:`repro.avfs` bound clock frequencies across operating points.
A voltage outside the table's characterized box raises
:class:`~repro.errors.ParameterError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.cells.library import CellLibrary
from repro.core.delay_kernel import DelayKernelTable
from repro.errors import TimingError
from repro.netlist.circuit import Circuit
from repro.simulation.compiled import CompiledCircuit, compile_circuit

__all__ = ["ArrivalTimes", "StaticTimingAnalysis"]


@dataclass(frozen=True)
class ArrivalTimes:
    """Worst-case rise/fall arrival time per net (seconds).

    Primary inputs arrive at 0.  ``longest_path`` is the maximum output
    arrival — the design's combinational critical-path delay.
    """

    rise: Dict[str, float]
    fall: Dict[str, float]
    longest_path: float
    critical_output: str

    def worst(self, net: str) -> float:
        return max(self.rise[net], self.fall[net])


class StaticTimingAnalysis:
    """Topological worst-case timing engine."""

    def __init__(
        self,
        circuit: Circuit,
        library: CellLibrary,
        compiled: Optional[CompiledCircuit] = None,
    ) -> None:
        self.compiled = compiled or compile_circuit(circuit, library)
        self.circuit = self.compiled.circuit
        self.library = library
        self._gate_indices = {
            gate.name: index for index, gate in enumerate(self.circuit.gates)
        }
        self._unateness: Dict[str, Tuple[str, ...]] = {
            cell.name: tuple(
                cell.function.unateness(pin.index)
                for pin in sorted(cell.pins, key=lambda p: p.index)
            )
            for cell in library
        }

    # -- delay selection ----------------------------------------------------------

    def _gate_delays(self, voltage: Optional[float],
                     kernel_table: Optional[DelayKernelTable]) -> np.ndarray:
        """Per-gate pin/polarity delays ``(G, max_pins, 2)`` in seconds."""
        if kernel_table is None:
            return self.compiled.nominal_delays
        if voltage is None:
            raise TimingError("parametric STA requires a voltage")
        # The polynomials are fitted over the characterized box only.
        kernel_table.space.require([voltage])
        adapted = kernel_table.delays_for_gates(
            self.compiled.gate_type_ids,
            self.compiled.gate_loads,
            self.compiled.nominal_delays,
            np.asarray([voltage], dtype=np.float64),
        )
        return adapted[..., 0]

    # -- analysis --------------------------------------------------------------------

    def analyze(
        self,
        voltage: Optional[float] = None,
        kernel_table: Optional[DelayKernelTable] = None,
    ) -> ArrivalTimes:
        """Compute worst-case arrival times.

        Without ``kernel_table`` the nominal delays are used (the
        commercial-STA setting of Table II); with it, delays are derated
        to ``voltage`` through the polynomial kernels.
        """
        delays = self._gate_delays(voltage, kernel_table)
        rise: Dict[str, float] = {net: 0.0 for net in self.circuit.inputs}
        fall: Dict[str, float] = {net: 0.0 for net in self.circuit.inputs}

        for gate in self.circuit.topological_gates():
            gate_index = self._gate_indices[gate.name]
            unateness = self._unateness[gate.cell]
            out_rise = 0.0
            out_fall = 0.0
            for pin, net in enumerate(gate.inputs):
                in_rise = rise[net]
                in_fall = fall[net]
                d_rise = float(delays[gate_index, pin, 0])
                d_fall = float(delays[gate_index, pin, 1])
                sense = unateness[pin]
                if sense == "positive":
                    cand_rise = in_rise + d_rise
                    cand_fall = in_fall + d_fall
                elif sense == "negative":
                    cand_rise = in_fall + d_rise
                    cand_fall = in_rise + d_fall
                else:  # binate: either input edge can cause either output edge
                    worst_in = max(in_rise, in_fall)
                    cand_rise = worst_in + d_rise
                    cand_fall = worst_in + d_fall
                out_rise = max(out_rise, cand_rise)
                out_fall = max(out_fall, cand_fall)
            rise[gate.output] = out_rise
            fall[gate.output] = out_fall

        if not self.circuit.outputs:
            raise TimingError("circuit has no outputs")
        worst_net = max(self.circuit.outputs,
                        key=lambda net: max(rise[net], fall[net]))
        return ArrivalTimes(
            rise=rise,
            fall=fall,
            longest_path=max(rise[worst_net], fall[worst_net]),
            critical_output=worst_net,
        )

    def longest_path_delay(
        self,
        voltage: Optional[float] = None,
        kernel_table: Optional[DelayKernelTable] = None,
    ) -> float:
        """Shorthand for ``analyze(...).longest_path``."""
        return self.analyze(voltage, kernel_table).longest_path
