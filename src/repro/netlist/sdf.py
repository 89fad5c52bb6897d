"""Standard Delay Format (SDF) subset: IOPATH delay annotations.

The paper's flow (Fig. 2, step 1) annotates the combinational network
with nominal timing from SDF files.  This module covers the subset such a
flow needs: absolute ``IOPATH`` rise/fall delays per instance, written
and parsed in SDF 3.0 syntax::

    (DELAYFILE
      (SDFVERSION "3.0")
      (DESIGN "s27")
      (TIMESCALE 1ps)
      (CELL (CELLTYPE "NAND2_X1") (INSTANCE u1)
        (DELAY (ABSOLUTE
          (IOPATH A1 ZN (12.3:12.3:12.3) (10.1:10.1:10.1))
          (IOPATH A2 ZN (13.0:13.0:13.0) (10.9:10.9:10.9))))))

The min:typ:max triple is written with all three values equal (the
nominal corner); the parser accepts arbitrary triples and keeps the
typical value.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.cells.cell import Cell, DrivePolarity
from repro.cells.library import CellLibrary
from repro.electrical.model import ElectricalModel
from repro.errors import ParseError
from repro.netlist.circuit import Circuit
from repro.units import PS

__all__ = ["SdfAnnotation", "write_sdf", "parse_sdf", "annotate_nominal",
           "nominal_delay_array"]


@dataclass
class SdfAnnotation:
    """Per-instance, per-pin nominal (rise, fall) delays in seconds.

    ``delays[instance][pin_index] == (rise_seconds, fall_seconds)``.
    """

    design: str
    delays: Dict[str, Tuple[Tuple[float, float], ...]] = field(default_factory=dict)

    def gate_delays(self, instance: str) -> Tuple[Tuple[float, float], ...]:
        try:
            return self.delays[instance]
        except KeyError:
            raise ParseError(f"no SDF annotation for instance {instance!r}") from None

    def __len__(self) -> int:
        return len(self.delays)


def nominal_delay_array(
    by_cell: Sequence[Tuple[Cell, np.ndarray]],
    gate_loads: np.ndarray,
    model: Optional[ElectricalModel] = None,
    v_nom: float = 0.8,
) -> np.ndarray:
    """Nominal delays of every gate as one ``(G, max_pins, 2)`` array.

    ``by_cell`` is :meth:`Circuit.gates_by_cell`, ``gate_loads`` is
    :meth:`Circuit.gate_loads`.  The model is evaluated once per (cell,
    pin, polarity) over the vector of that cell's instance loads, not
    once per gate.  ``pin_delay`` applies the same ufuncs in the same
    order to an array as to a scalar, and every term that does not
    depend on the load is the same Python float either way, so each
    element carries the bits the scalar call would return.
    """
    model = ElectricalModel() if model is None else model
    max_pins = max((cell.num_inputs for cell, _ in by_cell), default=1)
    delays = np.zeros((gate_loads.size, max_pins, 2), dtype=np.float64)
    for cell, gates in by_cell:
        loads = gate_loads[gates]
        for pin in cell.pins:
            for polarity in DrivePolarity:
                delays[gates, pin.index, polarity] = model.pin_delay(
                    cell, pin, polarity, v_nom, loads)
    return delays


def annotate_nominal(
    circuit: Circuit,
    library: CellLibrary,
    model: Optional[ElectricalModel] = None,
    v_nom: float = 0.8,
    loads: Optional[Dict[str, float]] = None,
) -> SdfAnnotation:
    """Produce the nominal-corner SDF annotation for a circuit.

    Delays come from the electrical model evaluated at the nominal supply
    voltage with each gate's actual load — what a signoff extraction
    would put into the SDF file.
    """
    rows = nominal_delay_array(circuit.gates_by_cell(library),
                               circuit.gate_loads(library, loads),
                               model, v_nom).tolist()
    return SdfAnnotation(design=circuit.name, delays={
        gate.name: tuple(map(tuple, pins[:len(gate.inputs)]))
        for gate, pins in zip(circuit.gates, rows)
    })


def write_sdf(circuit: Circuit, library: CellLibrary,
              annotation: SdfAnnotation) -> str:
    """Serialize an annotation as SDF 3.0 text (timescale 1 ps)."""
    lines = [
        "(DELAYFILE",
        '  (SDFVERSION "3.0")',
        f'  (DESIGN "{annotation.design}")',
        "  (TIMESCALE 1ps)",
    ]
    for gate in circuit.gates:
        cell = library[gate.cell]
        pin_delays = annotation.gate_delays(gate.name)
        lines.append(f'  (CELL (CELLTYPE "{gate.cell}") (INSTANCE {gate.name})')
        lines.append("    (DELAY (ABSOLUTE")
        for pin, (rise, fall) in zip(sorted(cell.pins, key=lambda p: p.index),
                                     pin_delays):
            r = rise / PS
            f = fall / PS
            lines.append(
                f"      (IOPATH {pin.name} {cell.output} "
                f"({r:.4f}:{r:.4f}:{r:.4f}) ({f:.4f}:{f:.4f}:{f:.4f}))"
            )
        lines.append("    ))")
        lines.append("  )")
    lines.append(")")
    return "\n".join(lines) + "\n"


_TIMESCALE_RE = re.compile(r"\(TIMESCALE\s+([\d.]+)\s*(fs|ps|ns|us)\s*\)", re.I)
_DESIGN_RE = re.compile(r'\(DESIGN\s+"([^"]*)"\s*\)')
_CELL_HEADER_RE = re.compile(
    r'\(CELL\s*\(CELLTYPE\s+"(?P<type>[^"]+)"\)\s*\(INSTANCE\s+(?P<inst>[^)\s]+)\s*\)'
)
_IOPATH_RE = re.compile(
    r"\(IOPATH\s+(?P<pin>\S+)\s+(?P<out>\S+)\s+"
    r"\((?P<rise>[^)]*)\)\s*\((?P<fall>[^)]*)\)\s*\)"
)

_SCALES = {"fs": 1e-15, "ps": 1e-12, "ns": 1e-9, "us": 1e-6}


def _triple_typ(text: str, filename: str) -> float:
    parts = text.split(":")
    try:
        values = [float(p) for p in parts if p.strip() != ""]
    except ValueError:
        raise ParseError(f"bad delay triple {text!r}", filename=filename) from None
    if not values:
        raise ParseError(f"empty delay triple {text!r}", filename=filename)
    # typ is the middle entry of a full triple, else the single value.
    return values[len(values) // 2] if len(values) == 3 else values[0]


def parse_sdf(text: str, library: CellLibrary,
              filename: str = "<sdf>") -> SdfAnnotation:
    """Parse SDF text back into an :class:`SdfAnnotation`."""
    if "(DELAYFILE" not in text:
        raise ParseError("not an SDF file (missing DELAYFILE)", filename=filename)
    design_match = _DESIGN_RE.search(text)
    design = design_match.group(1) if design_match else "unknown"
    scale_match = _TIMESCALE_RE.search(text)
    scale = _SCALES[scale_match.group(2).lower()] * float(scale_match.group(1)) \
        if scale_match else PS

    annotation = SdfAnnotation(design=design)
    headers = list(_CELL_HEADER_RE.finditer(text))
    for index, cell_match in enumerate(headers):
        cell_type = cell_match.group("type")
        instance = cell_match.group("inst")
        cell = library.get(cell_type)
        if cell is None:
            raise ParseError(f"unknown CELLTYPE {cell_type!r}", filename=filename)
        body_end = headers[index + 1].start() if index + 1 < len(headers) else len(text)
        body = text[cell_match.end():body_end]
        by_pin: Dict[str, Tuple[float, float]] = {}
        for iopath in _IOPATH_RE.finditer(body):
            rise = _triple_typ(iopath.group("rise"), filename) * scale
            fall = _triple_typ(iopath.group("fall"), filename) * scale
            by_pin[iopath.group("pin")] = (rise, fall)
        ordered = []
        for pin in sorted(cell.pins, key=lambda p: p.index):
            if pin.name not in by_pin:
                raise ParseError(
                    f"instance {instance}: missing IOPATH for pin {pin.name}",
                    filename=filename)
            ordered.append(by_pin[pin.name])
        annotation.delays[instance] = tuple(ordered)
    return annotation
