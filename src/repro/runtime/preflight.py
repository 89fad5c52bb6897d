"""Campaign preflight checks — fail fast, before any chunk runs.

A slot-plane campaign can burn hours of compute; every failure mode
that is knowable up front should abort the run *before* the first
chunk is submitted.  :func:`validate_campaign` performs one pass over the
campaign inputs and raises :class:`repro.errors.PreflightError` with a
precise message on the first inconsistency:

* stimuli: non-empty, uniform width, width matches the circuit inputs,
* slot plan: indices non-negative and within the pattern set, voltages
  finite and positive,
* delay model: static mode cannot span several operating points; the
  kernel table (when given) must cover every plan voltage with its
  fitted box ``[v_min, v_max]`` and every cell type the compiled
  circuit uses with matching type ids and enough pins,
* SDF/library consistency: nominal delays finite and non-negative,
* memory: the waveform-memory budget must hold at least one slot at
  the configured capacity, and the capacity must be growable within
  :data:`repro.simulation.gpu.MAX_CAPACITY`.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.delay_kernel import DelayKernelTable
from repro.errors import PreflightError
from repro.simulation.base import PatternPair, SimulationConfig
from repro.simulation.compiled import CompiledCircuit
from repro.simulation.gpu import DEFAULT_MEMORY_BUDGET, MAX_CAPACITY
from repro.simulation.grid import SlotPlan

__all__ = ["validate_campaign"]


def validate_campaign(
    compiled: CompiledCircuit,
    pairs: Sequence[PatternPair],
    plan: SlotPlan,
    *,
    config: Optional[SimulationConfig] = None,
    kernel_table: Optional[DelayKernelTable] = None,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
) -> None:
    """Validate a campaign; raises :class:`PreflightError` on the first
    problem, returns ``None`` when the campaign is runnable."""
    config = config or SimulationConfig()

    # -- stimuli ---------------------------------------------------------------
    if not pairs:
        raise PreflightError("campaign has no pattern pairs")
    widths = {pair.width for pair in pairs}
    if len(widths) > 1:
        raise PreflightError(
            f"pattern pairs have mixed widths {sorted(widths)}"
        )
    num_inputs = len(compiled.circuit.inputs)
    (width,) = widths
    if width != num_inputs:
        raise PreflightError(
            f"pattern width {width} does not match the circuit's "
            f"{num_inputs} inputs"
        )

    # -- slot plan -------------------------------------------------------------
    if int(plan.pattern_indices.min()) < 0:
        raise PreflightError("slot plan contains negative pattern indices")
    highest = int(plan.pattern_indices.max())
    if highest >= len(pairs):
        raise PreflightError(
            f"slot plan references pattern {highest} but only "
            f"{len(pairs)} pairs were given"
        )
    if not np.all(np.isfinite(plan.voltages)):
        raise PreflightError("slot plan contains non-finite voltages")
    if float(plan.voltages.min()) <= 0.0:
        raise PreflightError("slot plan contains non-positive voltages")

    # -- delay model -----------------------------------------------------------
    if kernel_table is None and plan.distinct_voltages().size > 1:
        raise PreflightError(
            "static delay mode cannot differentiate operating points; "
            "a kernel table is required for multi-voltage plans"
        )
    if kernel_table is not None:
        space = kernel_table.space
        voltages = plan.distinct_voltages()
        outside = voltages[(voltages < space.v_min)
                           | (voltages > space.v_max)]
        if outside.size:
            raise PreflightError(
                f"plan voltage {float(outside[0]):g} V is outside the "
                f"kernel table's box [{space.v_min:g}, {space.v_max:g}] V")
        used_types = np.unique(compiled.gate_type_ids)
        for type_id in used_types.tolist():
            cell = compiled.library.cell_by_type_id(type_id)
            if type_id >= kernel_table.num_types:
                raise PreflightError(
                    f"kernel table has {kernel_table.num_types} cell types "
                    f"but the circuit uses type id {type_id} ({cell.name})"
                )
            if kernel_table.type_names[type_id] != cell.name:
                raise PreflightError(
                    f"kernel table type id {type_id} is "
                    f"{kernel_table.type_names[type_id]!r} but the library "
                    f"maps it to {cell.name!r} — table and library disagree"
                )
            max_arity = int(compiled.gate_arity[
                compiled.gate_type_ids == type_id].max())
            if int(kernel_table.pin_counts[type_id]) < max_arity:
                raise PreflightError(
                    f"kernel table covers {int(kernel_table.pin_counts[type_id])} "
                    f"pins of {cell.name} but the circuit drives {max_arity}"
                )

    # -- SDF / nominal delays --------------------------------------------------
    if not np.all(np.isfinite(compiled.nominal_delays)):
        raise PreflightError(
            "compiled circuit contains non-finite nominal delays "
            "(corrupt SDF annotation?)"
        )
    if float(compiled.nominal_delays.min()) < 0.0:
        raise PreflightError(
            "compiled circuit contains negative nominal delays "
            "(corrupt SDF annotation?)"
        )

    # -- memory budget ---------------------------------------------------------
    if config.waveform_capacity > MAX_CAPACITY:
        raise PreflightError(
            f"waveform capacity {config.waveform_capacity} exceeds the "
            f"engine ceiling {MAX_CAPACITY}"
        )
    per_slot = (compiled.num_nets + 1) * config.waveform_capacity * 8
    if per_slot > memory_budget:
        raise PreflightError(
            f"memory budget {memory_budget} B cannot hold a single slot "
            f"({per_slot} B at capacity {config.waveform_capacity}); "
            "raise the budget or lower the capacity"
        )
