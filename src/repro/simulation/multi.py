"""Multi-device slot distribution (the paper's multi-GPU outlook).

The paper closes Sec. V-B noting that "the evaluation of a test stimuli
under a given operating point is viewed as an independent simulation
problem. Therefore, simulation problems could be grouped for distribution
and execution on multi-GPU systems."  This module implements exactly that
grouping: the slot plane is partitioned into contiguous chunks, each
executed by a worker process with its own engine instance ("device"),
and the per-slot results are stitched back in place.

Every worker receives the same compiled circuit and delay-kernel table
(the coefficient memory is tiny — this mirrors replicating the constant
tables into each GPU's global memory) and a disjoint slice of the slot
plan — together with only the pattern pairs that slice references, so
per-worker IPC stays proportional to the chunk, not the campaign.  No
communication happens during simulation.
"""

from __future__ import annotations

import multiprocessing
import os
import time as _time
from concurrent.futures import ProcessPoolExecutor
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.cells.library import CellLibrary
from repro.core.delay_kernel import DelayKernelTable
from repro.errors import SimulationError
from repro.netlist.circuit import Circuit
from repro.simulation.base import PatternPair, SimulationConfig, SimulationResult
from repro.simulation.compiled import CompiledCircuit, compile_circuit
from repro.simulation.gpu import GpuWaveSim, _BatchStats
from repro.simulation.grid import SlotPlan
from repro.waveform.plane import WaveformPlane

__all__ = ["MultiDeviceWaveSim"]


def _run_chunk(
    compiled: CompiledCircuit,
    config: SimulationConfig,
    kernel_table: Optional[DelayKernelTable],
    pairs: Sequence[PatternPair],
    pattern_indices: np.ndarray,
    voltages: np.ndarray,
    variation,
    global_slots: np.ndarray,
) -> Tuple[WaveformPlane, _BatchStats]:
    """Worker entry point: simulate one slot-plane chunk on one 'device'.

    ``global_slots`` carries each chunk slot's index in the full plane so
    Monte-Carlo die factors stay identical to a single-device run.  Goes
    through the public :meth:`GpuWaveSim.run` entry point, so pattern
    width/plan validation and memory-budget batching apply to every
    chunk; the engine's real :class:`_BatchStats` travel back with the
    result plane (a handful of arrays to pickle, not one object per
    waveform).
    """
    engine = GpuWaveSim(compiled.circuit, compiled.library, config=config,
                        compiled=compiled)
    plan = SlotPlan(pattern_indices=pattern_indices, voltages=voltages)
    result = engine.run(pairs, plan=plan, kernel_table=kernel_table,
                        variation=variation, global_slots=global_slots)
    return result.plane, engine.last_stats


def _merge_stats(target: _BatchStats, source: Optional[_BatchStats]) -> None:
    if source is None:
        return
    target.gate_evaluations += source.gate_evaluations
    target.kernel_calls += source.kernel_calls
    target.kernel_iterations += source.kernel_iterations
    target.retries += source.retries
    target.slots_retried += source.slots_retried
    target.capacity_used = max(target.capacity_used, source.capacity_used)
    target.batches += source.batches
    target.lanes_skipped += source.lanes_skipped
    target.demotions.extend(source.demotions)
    target.delay_seconds += source.delay_seconds
    target.merge_seconds += source.merge_seconds
    target.pack_seconds += source.pack_seconds
    if source.backend:
        target.backend = source.backend


def _chunk_pairs(pairs: Sequence[PatternPair],
                 pattern_indices: np.ndarray):
    """Slice the pattern pairs down to the ones a chunk references.

    Workers receive (pickle) only the pairs their sub-plan actually
    uses, with ``pattern_indices`` remapped into the sliced list — a
    chunk of a large plane no longer ships the full pattern set over
    IPC.
    """
    used, remapped = np.unique(pattern_indices, return_inverse=True)
    return ([pairs[int(i)] for i in used],
            np.ascontiguousarray(remapped, dtype=np.int64))


class MultiDeviceWaveSim:
    """Slot-plane partitioning across worker processes.

    Parameters
    ----------
    num_devices:
        Worker count; defaults to the machine's CPU count.  One device
        degenerates to an in-process :class:`GpuWaveSim` run.
    """

    def __init__(
        self,
        circuit: Circuit,
        library: CellLibrary,
        config: Optional[SimulationConfig] = None,
        compiled: Optional[CompiledCircuit] = None,
        num_devices: Optional[int] = None,
    ) -> None:
        self.config = config or SimulationConfig()
        self.compiled = compiled or compile_circuit(circuit, library)
        if num_devices is not None and num_devices < 1:
            raise SimulationError("need at least one device")
        self.num_devices = num_devices or max(1, os.cpu_count() or 1)
        self.last_stats: Optional[_BatchStats] = None

    def run(
        self,
        pairs: Sequence[PatternPair],
        plan: Optional[SlotPlan] = None,
        voltage: float = 0.8,
        kernel_table: Optional[DelayKernelTable] = None,
        variation=None,
        global_slots: Optional[np.ndarray] = None,
    ) -> SimulationResult:
        """Simulate the slot plane across all devices.

        Same contract as :meth:`GpuWaveSim.run` (including Monte-Carlo
        ``variation``; die factors follow *global* slot indices, so the
        distribution is independent of the device count); results are
        ordered by global slot index regardless of which device produced
        them.

        ``global_slots`` lets a caller that itself sliced a larger plane
        (the simulation service dispatching a coalesced batch) pin each
        local slot's full-plane index; every per-device chunk forwards
        its slice, so die factors stay bit-identical however the plane
        is partitioned.
        """
        if not pairs:
            raise SimulationError("need at least one pattern pair")
        plan = plan or SlotPlan.uniform(len(pairs), voltage)
        if global_slots is not None:
            global_slots = np.asarray(global_slots, dtype=np.int64)
            if global_slots.shape != (plan.num_slots,):
                raise SimulationError(
                    "global_slots must provide one index per plan slot"
                )
        start = _time.perf_counter()

        devices = min(self.num_devices, plan.num_slots)
        if devices == 1:
            engine = GpuWaveSim(self.compiled.circuit, self.compiled.library,
                                config=self.config, compiled=self.compiled)
            result = engine.run(pairs, plan=plan, kernel_table=kernel_table,
                                variation=variation,
                                global_slots=global_slots)
            self.last_stats = engine.last_stats
            return SimulationResult(
                circuit_name=result.circuit_name,
                slot_labels=result.slot_labels,
                waveforms=result.waveforms,
                runtime_seconds=_time.perf_counter() - start,
                gate_evaluations=result.gate_evaluations,
                engine=f"multi-device[1][{engine.backend.name}]",
            )

        chunk_size = (plan.num_slots + devices - 1) // devices
        chunks = list(plan.batches(chunk_size))
        planes = []
        totals = _BatchStats()
        # Spawned, never forked: the parent may already have run an
        # OpenMP kernel, and a forked child deadlocks in libgomp on its
        # first parallel region.
        with ProcessPoolExecutor(
                max_workers=devices,
                mp_context=multiprocessing.get_context("spawn")) as pool:
            futures = []
            for indices, sub in chunks:
                sub_pairs, sub_indices = _chunk_pairs(pairs,
                                                      sub.pattern_indices)
                chunk_globals = (global_slots[indices]
                                 if global_slots is not None else indices)
                futures.append(pool.submit(
                    _run_chunk, self.compiled, self.config, kernel_table,
                    sub_pairs, sub_indices, sub.voltages,
                    variation, chunk_globals,
                ))
            for future in futures:
                chunk_plane, chunk_stats = future.result()
                _merge_stats(totals, chunk_stats)
                planes.append(chunk_plane)

        self.last_stats = totals
        return SimulationResult(
            circuit_name=self.compiled.circuit.name,
            slot_labels=plan.labels(),
            waveforms=WaveformPlane.concat(planes),
            runtime_seconds=_time.perf_counter() - start,
            gate_evaluations=totals.gate_evaluations,
            engine=f"multi-device[{devices}][{totals.backend}]",
        )
