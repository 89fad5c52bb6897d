"""The per-gate set-up loops, kept as references.

Set-up in ``src/`` is columnar: one integer pass over the netlist
(``Circuit.wiring``) and one model evaluation per (cell, pin, polarity)
(``sdf.nominal_delay_array``).  These are the string-keyed, one-gate-at-
a-time loops it replaced — the nominal annotation, the net loads and the
levelization — which the tests hold the columnar routines to, bit for
bit.  They are deliberately slow and deliberately unshared with
``src/``.
"""

from typing import Dict, List, Tuple

from repro.cells.cell import DrivePolarity
from repro.netlist.circuit import OUTPUT_PORT_CAP, WIRE_CAP_PER_FANOUT


def scalar_annotation(circuit, library, model, v_nom, loads
                      ) -> Dict[str, Tuple[Tuple[float, float], ...]]:
    """``SdfAnnotation.delays`` from one scalar ``pin_delay`` call per
    (gate, pin, polarity)."""
    delays = {}
    for gate in circuit.gates:
        cell = library[gate.cell]
        load = loads[gate.output]
        delays[gate.name] = tuple(
            (model.pin_delay(cell, pin, DrivePolarity.RISE, v_nom, load),
             model.pin_delay(cell, pin, DrivePolarity.FALL, v_nom, load))
            for pin in sorted(cell.pins, key=lambda p: p.index))
    return delays


def dict_net_loads(circuit, library,
                   wire_cap_per_fanout: float = WIRE_CAP_PER_FANOUT,
                   output_port_cap: float = OUTPUT_PORT_CAP) -> Dict[str, float]:
    """``Circuit.net_loads`` as a float sum per net over ``fanout()``."""
    loads = {}
    output_set = set(circuit.outputs)
    for net, sinks in circuit.fanout().items():
        load = 0.0
        for gate, pin_index in sinks:
            load += library[gate.cell].pins[pin_index].input_cap
        load += wire_cap_per_fanout * len(sinks)
        if net in output_set:
            load += output_port_cap
        if load == 0.0:
            load = wire_cap_per_fanout
        loads[net] = load
    return loads


def dict_levelize(circuit) -> List[List[int]]:
    """``Circuit.levelize`` as Kahn's algorithm over name-keyed dicts;
    ``None`` for a cyclic circuit."""
    driven_by_gate = {gate.output for gate in circuit.gates}
    level_of_net = {net: 0 for net in circuit.inputs}
    indegree, sinks = {}, {}
    for index, gate in enumerate(circuit.gates):
        pending = 0
        for net in gate.inputs:
            if net in driven_by_gate:
                pending += 1
                sinks.setdefault(net, []).append(index)
        indegree[index] = pending
    ready = [i for i, d in indegree.items() if d == 0]
    gate_level = {}
    while ready:
        next_ready = []
        for index in ready:
            gate = circuit.gates[index]
            level = 1 + max((level_of_net.get(net, 0) for net in gate.inputs),
                            default=0)
            gate_level[index] = level
            level_of_net[gate.output] = level
            for sink in sinks.get(gate.output, ()):
                indegree[sink] -= 1
                if indegree[sink] == 0:
                    next_ready.append(sink)
        ready = next_ready
    if len(gate_level) != len(circuit.gates):
        return None
    levels = [[] for _ in range(max(gate_level.values(), default=0))]
    for index, level in gate_level.items():
        levels[level - 1].append(index)
    return [sorted(bucket) for bucket in levels]
