"""Liberty (.lib) export of characterized timing — per-voltage views.

Conventional multi-voltage methodology needs one characterized Liberty
library *per operating point* (the scalability problem the paper's
polynomial kernels solve).  This module generates exactly those views
from a single :class:`~repro.core.characterization.LibraryCharacterization`:
``write_liberty(characterization, voltage=0.6)`` emits a ``.lib`` whose
``cell_rise`` / ``cell_fall`` tables hold the kernel-predicted delays at
that voltage over the load axis.

The emitted subset is the classic NLDM structure::

    library (nangate15_0v80) {
      time_unit : "1ps";
      capacitive_load_unit (1, ff);
      lu_table_template (delay_load_8) {
        variable_1 : total_output_net_capacitance;
        index_1 ("0.5, 1, 2, ...");
      }
      cell (NAND2_X1) {
        pin (A1) { direction : input; capacitance : 0.60; }
        pin (ZN) {
          direction : output;
          timing () {
            related_pin : "A1";
            cell_rise (delay_load_8) { values ("12.3, 13.1, ..."); }
            cell_fall (delay_load_8) { values ("10.9, 11.5, ..."); }
          }
        }
      }
    }

A matching reader recovers the numbers for round-trip testing and for
comparing per-voltage views against the live polynomial kernels.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional

import numpy as np

from repro.cells.cell import DrivePolarity
from repro.core.characterization import LibraryCharacterization
from repro.errors import ParseError
from repro.units import FF, PS

__all__ = ["write_liberty", "parse_liberty"]

#: Number of load points in the emitted NLDM tables.
TABLE_POINTS = 8


def _library_name(base: str, voltage: float) -> str:
    return f"{base}_{voltage:.2f}v".replace(".", "p")


def write_liberty(
    characterization: LibraryCharacterization,
    voltage: Optional[float] = None,
    table_points: int = TABLE_POINTS,
) -> str:
    """Emit a Liberty view of the characterized library at one voltage.

    ``voltage`` defaults to the characterization's nominal supply.
    Delay values come from the fitted polynomial kernels (Eq. 9), i.e.
    the view is exactly what the simulator would compute — which is the
    point: one characterization feeds arbitrarily many Liberty corners.
    A voltage outside the characterized box raises
    :class:`~repro.errors.ParameterError` (``ParameterSpace.require``).
    """
    space = characterization.space
    voltage = space.v_nom if voltage is None else voltage
    space.require(voltage)
    loads = space.load_grid(table_points)
    load_text = ", ".join(f"{c / FF:.4g}" for c in loads)

    lines: List[str] = [
        f"library ({_library_name(characterization.library.name, voltage)}) {{",
        '  time_unit : "1ps";',
        "  capacitive_load_unit (1, ff);",
        f"  voltage_map (VDD, {voltage:.2f});",
        f"  lu_table_template (delay_load_{table_points}) {{",
        "    variable_1 : total_output_net_capacitance;",
        f'    index_1 ("{load_text}");',
        "  }",
    ]
    for cell in characterization.library:
        lines.append(f"  cell ({cell.name}) {{")
        for pin in sorted(cell.pins, key=lambda p: p.index):
            lines.append(f"    pin ({pin.name}) {{")
            lines.append("      direction : input;")
            lines.append(f"      capacitance : {pin.input_cap / FF:.4f};")
            lines.append("    }")
        lines.append(f"    pin ({cell.output}) {{")
        lines.append("      direction : output;")
        for pin in sorted(cell.pins, key=lambda p: p.index):
            rise_entry = characterization.entry(cell.name, pin.name,
                                                DrivePolarity.RISE)
            fall_entry = characterization.entry(cell.name, pin.name,
                                                DrivePolarity.FALL)
            rise = np.asarray([rise_entry.delay(voltage, c) for c in loads])
            fall = np.asarray([fall_entry.delay(voltage, c) for c in loads])
            rise_text = ", ".join(f"{d / PS:.4f}" for d in rise)
            fall_text = ", ".join(f"{d / PS:.4f}" for d in fall)
            lines.append("      timing () {")
            lines.append(f'        related_pin : "{pin.name}";')
            lines.append(f"        cell_rise (delay_load_{table_points}) "
                         f'{{ values ("{rise_text}"); }}')
            lines.append(f"        cell_fall (delay_load_{table_points}) "
                         f'{{ values ("{fall_text}"); }}')
            lines.append("      }")
        lines.append("    }")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


_LIB_RE = re.compile(r"library\s*\(\s*(?P<name>[\w]+)\s*\)")
_INDEX_RE = re.compile(r'index_1\s*\(\s*"(?P<values>[^"]*)"\s*\)')
_CELL_RE = re.compile(r"cell\s*\(\s*(?P<name>[\w]+)\s*\)")
_PIN_RE = re.compile(r"pin\s*\(\s*(?P<name>[\w]+)\s*\)")
_RELATED_RE = re.compile(r'related_pin\s*:\s*"(?P<pin>[\w]+)"')
_VALUES_RE = re.compile(
    r'cell_(?P<edge>rise|fall)\s*\([\w]+\)\s*\{\s*values\s*\(\s*"(?P<values>[^"]*)"'
)
_CAP_RE = re.compile(r"capacitance\s*:\s*(?P<value>[\d.eE+-]+)")


def parse_liberty(text: str, filename: str = "<liberty>") -> Dict[str, dict]:
    """Parse the emitted Liberty subset back into plain data.

    Returns a dictionary::

        {
          "__name__": str,
          "__loads__": np.ndarray,          # farads
          "<cell>": {
            "pins": {pin: capacitance_farads},
            "timing": {pin: {"rise": np.ndarray, "fall": np.ndarray}},
          },
        }
    """
    if "library" not in text:
        raise ParseError("not a Liberty file", filename=filename)
    lib_match = _LIB_RE.search(text)
    if not lib_match:
        raise ParseError("missing library() header", filename=filename)
    index_match = _INDEX_RE.search(text)
    if not index_match:
        raise ParseError("missing lu_table_template index_1",
                         filename=filename)
    loads = np.asarray(
        [float(v) * FF for v in index_match.group("values").split(",")]
    )
    result: Dict[str, dict] = {
        "__name__": lib_match.group("name"),
        "__loads__": loads,
    }

    cell_matches = list(_CELL_RE.finditer(text))
    for position, cell_match in enumerate(cell_matches):
        end = (cell_matches[position + 1].start()
               if position + 1 < len(cell_matches) else len(text))
        body = text[cell_match.end():end]
        pins: Dict[str, float] = {}
        pin_matches = list(_PIN_RE.finditer(body))
        for pin_pos, pin_match in enumerate(pin_matches):
            pin_end = (pin_matches[pin_pos + 1].start()
                       if pin_pos + 1 < len(pin_matches) else len(body))
            pin_body = body[pin_match.end():pin_end]
            cap_match = _CAP_RE.search(pin_body)
            if cap_match and "direction : input" in pin_body:
                pins[pin_match.group("name")] = float(cap_match.group("value")) * FF
        timing: Dict[str, Dict[str, np.ndarray]] = {}
        related_iter = list(_RELATED_RE.finditer(body))
        value_iter = list(_VALUES_RE.finditer(body))
        value_pos = 0
        for related in related_iter:
            arcs: Dict[str, np.ndarray] = {}
            while value_pos < len(value_iter) and len(arcs) < 2:
                match = value_iter[value_pos]
                arcs[match.group("edge")] = np.asarray(
                    [float(v) * PS for v in match.group("values").split(",")]
                )
                value_pos += 1
            timing[related.group("pin")] = arcs
        result[cell_match.group("name")] = {"pins": pins, "timing": timing}
    return result
