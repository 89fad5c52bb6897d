"""Combinational circuit graph with levelization (paper Fig. 2, step 1).

A :class:`Circuit` is a directed acyclic graph of cell instances
connected by named nets.  Following the paper's experimental setup, all
circuits are purely combinational (sequential elements removed assuming
full scan): primary inputs drive the graph, primary outputs observe nets.

Levelization assigns every gate the length of the longest path from any
primary input; all gates of one level are structurally independent and
can be evaluated concurrently — the *vertical* dimension of the GPU
thread grid (Sec. IV-B).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import (Dict, Iterator, List, Mapping, NamedTuple, Optional,
                    Sequence, Tuple)

import numpy as np

from repro.cells.cell import Cell
from repro.cells.library import CellLibrary
from repro.errors import NetlistError, ParameterError

__all__ = ["Gate", "Circuit", "Wiring"]

#: Default interconnect capacitance added per fanout branch (farads).
#: Stands in for the SPEF wire parasitics of a routed design.
WIRE_CAP_PER_FANOUT = 0.20e-15

#: Capacitive load presented by a primary-output port.
OUTPUT_PORT_CAP = 2.0e-15


@dataclass(frozen=True)
class Gate:
    """One cell instance.

    Attributes
    ----------
    name:
        Unique instance name (``u42``).
    cell:
        Library cell-type name (``NAND2_X1``).
    inputs:
        Driven input nets in cell pin order.
    output:
        The net driven by this gate's output pin.
    """

    name: str
    cell: str
    inputs: Tuple[str, ...]
    output: str


class Wiring(NamedTuple):
    """A circuit's connectivity in integers (:meth:`Circuit.wiring`).

    Nets are numbered primary inputs first, then gate outputs in gate
    order, so gate ``g`` drives net ``num_inputs + g``.  Pins are listed
    gate by gate, pin by pin — the order :meth:`Circuit.fanout` visits
    them in.
    """

    net_index: Dict[str, int]           # net name -> net id
    pin_nets: np.ndarray                # (P,) net id each pin reads, -1 = undriven
    pin_offsets: np.ndarray             # (G + 1,) first pin of each gate
    cell_gates: Dict[str, np.ndarray]   # cell name -> its gate indices

    @property
    def arity(self) -> np.ndarray:
        """``(G,)`` connected input pins per gate."""
        return np.diff(self.pin_offsets)

    @property
    def pin_gates(self) -> np.ndarray:
        """``(P,)`` gate index of every pin."""
        return np.repeat(np.arange(self.pin_offsets.size - 1), self.arity)


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``arange(s, s + c)`` of every ``(s, c)`` pair, concatenated."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(
        starts - (ends - counts), counts)


class Circuit:
    """A named combinational netlist.

    Nets are identified by strings.  Every net has exactly one driver —
    either a primary input or a gate output.  Gates are stored in
    insertion order; :meth:`levelize` derives the level structure used by
    the simulators.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.inputs: List[str] = []
        self.outputs: List[str] = []
        self.gates: List[Gate] = []
        self._driver: Dict[str, Optional[Gate]] = {}
        self._gate_index: Dict[str, int] = {}
        self._levels: Optional[List[List[int]]] = None
        self._wiring: Optional[Wiring] = None

    # -- construction ------------------------------------------------------------

    def add_input(self, net: str) -> str:
        """Declare a primary input driving net ``net``."""
        self._check_undriven(net)
        self.inputs.append(net)
        self._driver[net] = None
        self._levels = self._wiring = None
        return net

    def add_gate(self, name: str, cell: str, inputs: Sequence[str], output: str) -> Gate:
        """Instantiate a cell.

        Input nets need not be driven yet (forward references are fine);
        :meth:`validate` checks completeness.
        """
        if name in self._gate_index:
            raise NetlistError(f"{self.name}: duplicate gate name {name!r}")
        self._check_undriven(output)
        gate = Gate(name=name, cell=cell, inputs=tuple(inputs), output=output)
        self._gate_index[name] = len(self.gates)
        self.gates.append(gate)
        self._driver[output] = gate
        self._levels = self._wiring = None
        return gate

    def add_output(self, net: str) -> str:
        """Mark ``net`` as a primary output."""
        if net in self.outputs:
            raise NetlistError(f"{self.name}: duplicate output {net!r}")
        self.outputs.append(net)
        return net

    def _check_undriven(self, net: str) -> None:
        if net in self._driver:
            raise NetlistError(f"{self.name}: net {net!r} already driven")

    # -- queries -------------------------------------------------------------------

    @property
    def num_gates(self) -> int:
        return len(self.gates)

    @property
    def num_nodes(self) -> int:
        """Node count the way Table I counts: cells + inputs + outputs."""
        return len(self.gates) + len(self.inputs) + len(self.outputs)

    def nets(self) -> List[str]:
        """All driven nets (inputs first, then gate outputs in order)."""
        return list(self._driver)

    def gate(self, name: str) -> Gate:
        try:
            return self.gates[self._gate_index[name]]
        except KeyError:
            raise NetlistError(f"{self.name}: no gate named {name!r}") from None

    def driver(self, net: str) -> Optional[Gate]:
        """The gate driving ``net``; ``None`` for primary inputs."""
        try:
            return self._driver[net]
        except KeyError:
            raise NetlistError(f"{self.name}: net {net!r} is undriven") from None

    def is_input(self, net: str) -> bool:
        return net in self._driver and self._driver[net] is None

    def fanout(self) -> Dict[str, List[Tuple[Gate, int]]]:
        """Map net → list of (sink gate, pin index) pairs."""
        result: Dict[str, List[Tuple[Gate, int]]] = {net: [] for net in self._driver}
        for gate in self.gates:
            for pin_index, net in enumerate(gate.inputs):
                if net not in result:
                    raise NetlistError(
                        f"{self.name}: gate {gate.name} reads undriven net {net!r}"
                    )
                result[net].append((gate, pin_index))
        return result

    def wiring(self) -> Wiring:
        """The netlist as integer arrays.  Cached until the circuit changes.

        One pass over the string-keyed graph that validation,
        levelization, load extraction and compilation all read instead
        of walking the dicts again.  A pin reading a net nothing drives
        is ``-1`` (:meth:`validate` rejects it, :meth:`levelize` treats
        it as a primary input).
        """
        if self._wiring is not None:
            return self._wiring
        net_index = {net: index for index, net in enumerate(
            chain(self.inputs, (gate.output for gate in self.gates)))}
        pin_offsets = np.zeros(len(self.gates) + 1, dtype=np.int64)
        np.cumsum(np.fromiter((len(gate.inputs) for gate in self.gates),
                              dtype=np.int64, count=len(self.gates)),
                  out=pin_offsets[1:])
        pin_nets = np.fromiter(
            (net_index.get(net, -1) for gate in self.gates for net in gate.inputs),
            dtype=np.int64, count=int(pin_offsets[-1]))
        groups: Dict[str, List[int]] = {}
        for index, gate in enumerate(self.gates):
            groups.setdefault(gate.cell, []).append(index)
        self._wiring = Wiring(net_index, pin_nets, pin_offsets, {
            cell: np.asarray(gates, dtype=np.int64)
            for cell, gates in groups.items()})
        return self._wiring

    def gates_by_cell(self, library: CellLibrary) -> List[Tuple[Cell, np.ndarray]]:
        """Gate indices grouped by library cell: one ``(cell, indices)``
        pair per distinct cell type, in first-use order.

        Whatever set-up derives from the *cell* alone (type id, truth
        table), or from the cell and one number per gate (nominal
        delays from the load), is computed once per group and scattered
        over ``indices``.  Every gate's pin count must match its cell.
        """
        wiring = self.wiring()
        by_cell = [(library[name], gates)
                   for name, gates in wiring.cell_gates.items()]
        cell_pins = np.zeros(len(self.gates), dtype=np.int64)
        for cell, gates in by_cell:
            cell_pins[gates] = cell.num_inputs
        wrong = np.flatnonzero(wiring.arity != cell_pins)
        if wrong.size:
            gate = self.gates[int(wrong[0])]
            raise NetlistError(
                f"{self.name}: gate {gate.name} connects "
                f"{len(gate.inputs)} nets to {gate.cell} "
                f"({cell_pins[wrong[0]]} pins)"
            )
        return by_cell

    def _require_driven_pins(self) -> None:
        wiring = self.wiring()
        undriven = np.flatnonzero(wiring.pin_nets < 0)
        if undriven.size:
            index = int(np.searchsorted(wiring.pin_offsets, undriven[0],
                                        side="right")) - 1
            gate = self.gates[index]
            net = gate.inputs[int(undriven[0] - wiring.pin_offsets[index])]
            raise NetlistError(
                f"{self.name}: gate {gate.name} reads undriven net {net!r}"
            )

    # -- validation -------------------------------------------------------------------

    def validate(self, library: Optional[CellLibrary] = None) -> None:
        """Check structural well-formedness; raise :class:`NetlistError`.

        With a library, also checks that every instance's cell exists and
        its pin count matches the cell arity.
        """
        self._require_driven_pins()
        if library is not None:
            self.gates_by_cell(library)
        for net in self.outputs:
            if net not in self._driver:
                raise NetlistError(f"{self.name}: output net {net!r} is undriven")
        if not self.outputs:
            raise NetlistError(f"{self.name}: circuit has no outputs")
        self.levelize()  # raises on combinational cycles

    # -- levelization --------------------------------------------------------------------

    def levelize(self) -> List[List[int]]:
        """Topological levels as lists of gate indices.

        Level of a gate = 1 + max level of its input drivers; primary
        inputs sit at level 0.  Cached until the circuit changes.
        """
        if self._levels is not None:
            return self._levels
        wiring = self.wiring()
        num_gates = len(self.gates)
        # Gate-to-gate edges, grouped by driving gate (CSR).
        driver = wiring.pin_nets - len(self.inputs)
        driven = driver >= 0
        driver = driver[driven]
        order = np.argsort(driver, kind="stable")
        sinks = wiring.pin_gates[driven][order]
        starts = np.searchsorted(driver[order], np.arange(num_gates + 1))
        pending = np.bincount(sinks, minlength=num_gates)
        # Kahn's algorithm a whole wave at a time: wave k is level k.
        levels: List[List[int]] = []
        ready = np.flatnonzero(pending == 0)
        while ready.size:
            levels.append(ready.tolist())
            fed = np.sort(sinks[_ranges(starts[ready],
                                        starts[ready + 1] - starts[ready])])
            # A gate fed through k pins in this wave is listed k times.
            first = np.flatnonzero(np.diff(fed, prepend=-1))
            fed, times = fed[first], np.diff(first, append=fed.size)
            pending[fed] -= times
            ready = fed[pending[fed] == 0]
        if pending.any():
            cyclic = [self.gates[i].name for i in np.flatnonzero(pending)]
            raise NetlistError(
                f"{self.name}: combinational cycle involving {cyclic[:5]}"
            )
        self._levels = levels
        return levels

    @property
    def depth(self) -> int:
        """Logic depth: number of gate levels."""
        return len(self.levelize())

    def topological_gates(self) -> Iterator[Gate]:
        """Gates in level order (a valid evaluation order)."""
        for bucket in self.levelize():
            for index in bucket:
                yield self.gates[index]

    # -- electrical annotation ------------------------------------------------------------

    def net_loads(
        self,
        library: CellLibrary,
        wire_cap_per_fanout: float = WIRE_CAP_PER_FANOUT,
        output_port_cap: float = OUTPUT_PORT_CAP,
    ) -> Dict[str, float]:
        """Capacitive load of every net (the ``c`` parameter of its driver).

        Load = Σ input capacitance of sink pins + wire capacitance per
        fanout branch + port capacitance for primary outputs.  This
        derives the same quantity a SPEF file would annotate.
        """
        vector = self._net_load_vector(library, wire_cap_per_fanout,
                                       output_port_cap).tolist()
        net_index = self.wiring().net_index
        return {net: vector[net_index[net]] for net in self._driver}

    def _net_load_vector(self, library: CellLibrary, wire_cap_per_fanout: float,
                         output_port_cap: float) -> np.ndarray:
        """:meth:`net_loads` as one array in net-id order."""
        self._require_driven_pins()
        wiring = self.wiring()
        num_nets = len(wiring.net_index)
        pin_caps = np.zeros(wiring.pin_nets.size, dtype=np.float64)
        for cell, gates in self.gates_by_cell(library):
            for position, pin in enumerate(cell.pins):
                pin_caps[wiring.pin_offsets[gates] + position] = pin.input_cap
        # bincount adds a net's sink pins in pin order, one at a time
        # from 0.0: the float sum a loop over fanout() would produce.
        fanout = np.bincount(wiring.pin_nets, minlength=num_nets)
        loads = (np.bincount(wiring.pin_nets, weights=pin_caps, minlength=num_nets)
                 + wire_cap_per_fanout * fanout)
        loads[np.fromiter((wiring.net_index[net] for net in self.outputs
                           if net in wiring.net_index), dtype=np.int64)
              ] += output_port_cap
        # Dangling internal net: model the minimum wire stub.
        loads[loads == 0.0] = wire_cap_per_fanout
        return loads

    def gate_loads(self, library: CellLibrary,
                   loads: Optional[Mapping[str, float]] = None) -> np.ndarray:
        """Output-net load of every gate as one ``(G,)`` array (farads).

        ``loads`` maps net → capacitance (a SPEF file's content) and must
        hold a positive entry for every gate's output net; when omitted
        the loads are the ones :meth:`net_loads` derives.
        """
        if loads is None:
            return self._net_load_vector(library, WIRE_CAP_PER_FANOUT,
                                         OUTPUT_PORT_CAP)[len(self.inputs):]
        try:
            vector = np.fromiter((loads[gate.output] for gate in self.gates),
                                 dtype=np.float64, count=len(self.gates))
        except KeyError:
            gate = next(g for g in self.gates if g.output not in loads)
            raise ParameterError(
                f"{self.name}: gate {gate.name}: no load capacitance for "
                f"its output net {gate.output!r}") from None
        bad = np.flatnonzero(vector <= 0)
        if bad.size:
            gate = self.gates[int(bad[0])]
            raise ParameterError(
                f"{self.name}: gate {gate.name}: load capacitance of net "
                f"{gate.output!r} must be positive, got {vector[bad[0]]:g} F")
        return vector

    # -- misc -------------------------------------------------------------------------------

    def copy(self, name: Optional[str] = None) -> "Circuit":
        clone = Circuit(name or self.name)
        for net in self.inputs:
            clone.add_input(net)
        for gate in self.gates:
            clone.add_gate(gate.name, gate.cell, gate.inputs, gate.output)
        for net in self.outputs:
            clone.add_output(net)
        return clone

    def __getstate__(self) -> dict:
        # The wiring is rebuilt on demand; a circuit sent to a worker
        # process does not carry it.
        return {**self.__dict__, "_wiring": None}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Circuit({self.name!r}, {len(self.inputs)} inputs, "
            f"{len(self.gates)} gates, {len(self.outputs)} outputs)"
        )
