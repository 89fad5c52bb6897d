"""The parallel waveform time simulator (the paper's engine, Sec. IV).

``GpuWaveSim`` is the NumPy-SIMT port of the paper's CUDA simulator.  The
three dimensions of parallelism map onto array axes:

* **gates** — the circuit is processed level by level; all gates of a
  level are structurally independent and evaluated together as one
  uniform SIMD thread group (narrow gates run with don't-care-padded
  truth tables and a constant dummy input, so control flow never
  diverges; an optional per-arity grouping mode exists for ablation),
* **stimuli × operating points** — the slot plane (Fig. 3): each kernel
  call spans ``lanes = gates_in_level × slots`` with per-lane waveform
  data and per-lane delays,
* **online delay calculation** — in parametric mode each level's
  pin-to-pin delays are computed on the fly from the polynomial kernel
  table and the slots' supply voltages (Sec. IV-A steps 1–5); delays are
  evaluated once per *distinct* voltage and broadcast to slots, because
  parallel instances of a gate share coefficients and function calls
  (Sec. IV-B).  In static mode the SDF nominal delays are used unchanged
  — the baseline [25] configuration.

Waveform memory is a dense ``(nets, slots, capacity)`` float64 array with
``+inf`` termination, like the GPU global-memory layout.  Overflowing
batches are re-run with doubled capacity (configurable); the batch is
re-sized at the grown capacity so the memory budget holds on retries.
The arena is *pooled* per engine instance: successive batches reset the
same allocation in place instead of re-allocating (and re-faulting) up
to a gigabyte per batch.  Every path ends by copying the wanted net rows
out of the arena into one columnar
:class:`~repro.waveform.plane.WaveformPlane` (toggle counts, block
offsets and a flat toggle-time payload); sub-batches are joined by
plane ``concat`` / ``take`` and no per-``(net, slot)`` Python object is
built unless a caller indexes ``result.waveforms``.

On realistic low-activity stimuli most lanes carry zero input toggles —
their output is a pure logic settle with no waveform work.  The engine
therefore prunes at two slot-classified granularities: slots whose
stimulus launches no toggle at all settle in one vectorized truth-table
sweep and never touch the arena, and slots toggling only a small
fraction of their inputs run with per-(net, slot) activity tracking —
the per-(gate, slot) active mask is derived before each level and only
active lanes are dispatched to the backend (the lane-compaction path
GATSPI demonstrates as the dominant speedup lever for gate-level GPU
simulation).  High-toggle slots run the plain dense path, where mask
bookkeeping could not pay for itself.  Quiet lanes get their settled
output value from a vectorized truth-table lookup; results are
bit-identical to dense evaluation (``config.prune_inactive=False``).

The kernels themselves are pluggable (:mod:`repro.simulation.backend`):
the vectorized lockstep numpy port, JIT-compiled per-lane loops (numba),
or compiled C (cext).  The JIT backends consume per-gate net-id index
arrays and read/write the waveform arena in place, skipping the
``(k, lanes, capacity)`` gather copy and the output reshape of the numpy
path entirely.
"""

from __future__ import annotations

import mmap
import time as _time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import faults
from repro.cells.library import CellLibrary
from repro.core.delay_kernel import DelayKernelTable
from repro.errors import SimulationError, WaveformOverflowError
from repro.netlist.circuit import Circuit
from repro.netlist.sdf import SdfAnnotation
from repro.simulation.backend import (
    ComputeBackend,
    demote_backend,
    resolve_backend,
)
from repro.simulation.base import (
    LAUNCH_TIME,
    PatternPair,
    SimulationConfig,
    SimulationResult,
)
from repro.simulation.compiled import CompiledCircuit, compile_circuit
from repro.simulation.delta import BaseArena, DeltaPlan
from repro.simulation.grid import SlotPlan
from repro.waveform.plane import WaveformPlane

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.variation import ProcessVariation

__all__ = ["GpuWaveSim"]

INF = np.float64(np.inf)

#: Waveform-memory budget per batch (bytes); batches are sized so the
#: dense (nets × slots × capacity) array stays below this.
DEFAULT_MEMORY_BUDGET = 1024 * 1024 * 1024

#: Hard ceiling for overflow-driven capacity growth.
MAX_CAPACITY = 4096

#: A thread group takes the lane-compacted sparse path only when its
#: active lane share is below this fraction; above it the dense kernel
#: is cheaper (a toggle-free lane settles in about one event-loop
#: iteration, while compaction pays index bookkeeping per lane).  The
#: dispatch choice never affects results or the evaluated/skipped lane
#: accounting — both are derived from the activity mask alone.
SPARSE_DISPATCH_FRACTION = 0.5

#: Slots toggling at least this fraction of the primary inputs skip
#: lane-grained activity tracking entirely — activity spreads so wide
#: that the per-level mask bookkeeping cannot pay for itself, so they
#: run the plain dense path (and count every lane as evaluated).  The
#: classification is per slot, keeping the accounting invariant across
#: backends and slot-plane chunkings.
LANE_TRACK_INPUT_FRACTION = 0.25


@dataclass
class _BatchStats:
    """Per-run engine diagnostics.

    With activity pruning enabled, ``lanes_skipped`` counts the quiet
    lanes settled by truth-table lookup instead of kernel work — whole
    quiet slots plus, in lane-tracked slots, lanes whose inputs carry no
    toggles — and ``gate_evaluations`` the rest;
    ``gate_evaluations + lanes_skipped`` equals the dense lane count,
    and the split is invariant across backends and slot-plane chunkings
    (each lane's class depends only on its own slot's stimulus).
    """

    gate_evaluations: int = 0
    kernel_calls: int = 0
    kernel_iterations: int = 0
    retries: int = 0
    batches: int = 0
    lanes_skipped: int = 0
    #: Lanes whose waveforms were spliced out of a cached base arena
    #: instead of being evaluated or settled (delta runs only).  For a
    #: fully base-mapped delta run
    #: ``lanes_spliced + gate_evaluations == gates * slots`` exactly.
    lanes_spliced: int = 0
    #: Payload bytes reused from the base arena (toggle times + initial
    #: values) — the zero-copy volume the delta path avoided recomputing.
    bytes_spliced: int = 0
    backend: str = ""
    #: Backend demotion steps taken during this run (``"cext->numpy"``),
    #: in order; ``backend`` reflects the post-demotion backend.
    demotions: List[str] = field(default_factory=list)
    #: Per-phase wall time (seconds): online delay evaluation, waveform
    #: merge kernels, and result-plane extraction (arena unpack, quiet
    #: settle, base splice, sub-batch joins).  In fused dispatch the
    #: lane backends evaluate delays inside the merge loop, so their
    #: delay share is folded into ``merge_seconds``.
    delay_seconds: float = 0.0
    merge_seconds: float = 0.0
    pack_seconds: float = 0.0

    @property
    def active_fraction(self) -> float:
        """Dispatched share of all lanes (1.0 when nothing was skipped)."""
        total = self.gate_evaluations + self.lanes_skipped
        return 1.0 if total == 0 else self.gate_evaluations / total

    @property
    def delta_fraction(self) -> float:
        """Evaluated share of a delta run's lanes (1.0 = no splicing)."""
        total = self.gate_evaluations + self.lanes_spliced
        return 1.0 if total == 0 else self.gate_evaluations / total

    def phase_seconds(self) -> Dict[str, float]:
        """The per-phase timing breakdown as a plain dict."""
        return {
            "delay": self.delay_seconds,
            "merge": self.merge_seconds,
            "pack": self.pack_seconds,
        }


def _anonymous_mapping(nbytes: int) -> mmap.mmap:
    """``nbytes`` (at least one) of zero pages private to this process
    — copy-on-write across ``fork`` like heap memory, unmapped when the
    last buffer export is gone."""
    nbytes = max(nbytes, 1)
    if hasattr(mmap, "MAP_PRIVATE"):
        return mmap.mmap(-1, nbytes,
                         flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    return mmap.mmap(-1, nbytes)  # Windows: anonymous is process-private


class _ArenaPool:
    """Reusable backing store for the waveform arena.

    A batch needs a ``(nets, slots, capacity)`` float64 toggle-time
    array and a ``(nets, slots)`` uint8 initial-value array.
    Allocating these per batch costs up to ``memory_budget`` bytes of
    fresh pages each time; the pool keeps one flat buffer per dtype and
    hands out reset-in-place views instead.  Safe because the engine
    copies every surviving toggle out of the arena into the result
    plane (``WaveformPlane.from_arena``) before the next acquire.

    The toggle-time buffer — the largest allocation of a run, regrown
    whenever a wider batch arrives and dropped with its engine — lives
    in a private anonymous mapping, not on the malloc heap: glibc
    raises its mmap threshold to the largest mapping it has freed, so
    in a long-lived process (a service retiring one engine per worker
    generation) every later arena would come from the heap, and each
    regrowth or teardown would leave an arena-sized hole pinned between
    the small long-lived result arrays allocated meanwhile.  A mapping
    goes back to the OS the moment its last view dies.
    """

    def __init__(self) -> None:
        self._times: Optional[np.ndarray] = None
        self._initial: Optional[np.ndarray] = None

    def acquire(self, nets: int, slots: int, capacity: int,
                rows: Optional[np.ndarray] = None):
        """A ``(times, initial)`` arena pair of the given shape.

        With ``rows=None`` the whole arena is reset: every toggle time
        ``+inf``, every initial value 0.  With ``rows`` only those net
        rows are reset and every other row holds whatever the previous
        batch left — for callers that write each remaining row in full
        before anything reads it (dense fused dispatch: one lane per
        gate output and slot, see :meth:`ComputeBackend.run_level`).
        """
        faults.trip("engine.alloc")
        n_times = nets * slots * capacity
        if self._times is None or self._times.size < n_times:
            self._times = np.frombuffer(_anonymous_mapping(n_times * 8),
                                        dtype=np.float64)
        times = self._times[:n_times].reshape(nets, slots, capacity)
        n_initial = nets * slots
        if self._initial is None or self._initial.size < n_initial:
            self._initial = np.empty(n_initial, dtype=np.uint8)
        initial = self._initial[:n_initial].reshape(nets, slots)
        if rows is None:
            times.fill(INF)
            initial.fill(0)
        else:
            times[rows] = INF
            initial[rows] = 0
        return times, initial


class GpuWaveSim:
    """Massively parallel waveform simulator (NumPy-SIMT).

    Parameters
    ----------
    group_by_arity:
        ``False`` (default): one kernel call per level with padded truth
        tables.  ``True``: split levels into per-arity groups (smaller
        calls, no padding overhead) — kept for the ablation benchmark.

    The compute backend executing the kernels follows
    ``config.backend`` / the ``REPRO_BACKEND`` environment variable
    (default ``auto``; see :mod:`repro.simulation.backend`).
    """

    def __init__(
        self,
        circuit: Circuit,
        library: CellLibrary,
        annotation: Optional[SdfAnnotation] = None,
        loads: Optional[Dict[str, float]] = None,
        config: Optional[SimulationConfig] = None,
        compiled: Optional[CompiledCircuit] = None,
        memory_budget: int = DEFAULT_MEMORY_BUDGET,
        group_by_arity: bool = False,
    ) -> None:
        self.config = config or SimulationConfig()
        self.compiled = compiled or compile_circuit(circuit, library, annotation, loads)
        self.memory_budget = memory_budget
        self.group_by_arity = group_by_arity
        if self.config.faults:
            faults.ensure(self.config.faults)
        self.backend: ComputeBackend = resolve_backend(self.config.backend)
        self.last_stats: Optional[_BatchStats] = None
        #: Demotion steps taken over the engine's lifetime (see
        #: ``_absorb_kernel_fault``); per-run steps live on the stats.
        self.demotions: List[str] = []
        self._kernel_faults = 0
        self._arena_pool = _ArenaPool()
        # Fused dispatch needs the per-level compacted plans; resolved
        # lazily (and fingerprint-cached across engines/services) on
        # first use.  Ablation per-arity grouping keeps the unfused path.
        self._plans = None
        self._fused = bool(self.config.fused) and not group_by_arity
        # Result rows: every real net (arena rows are already in
        # net_index order) or just the primary outputs.
        self._all_nets = self.compiled.result_nets(True)
        self._output_nets = self.compiled.result_nets(False)
        self._output_ids = np.asarray(
            [self.compiled.net_index[net] for net in self._output_nets],
            dtype=np.int64)
        # Arena rows no gate drives (primary inputs, the dummy net):
        # all a dense fused batch has to reset, every other row being
        # written in full by the lane that owns it.
        undriven = np.ones(self.compiled.num_nets + 1, dtype=bool)
        undriven[self.compiled.gate_output] = False
        self._undriven_rows = np.flatnonzero(undriven)

    # -- public API ----------------------------------------------------------------

    def run(
        self,
        pairs: Sequence[PatternPair],
        plan: Optional[SlotPlan] = None,
        voltage: float = 0.8,
        kernel_table: Optional[DelayKernelTable] = None,
        variation: Optional["ProcessVariation"] = None,
        global_slots: Optional[np.ndarray] = None,
        delta: Optional[DeltaPlan] = None,
        capture_base: bool = False,
    ) -> SimulationResult:
        """Simulate a slot plane.

        Parameters
        ----------
        pairs:
            The stimuli referenced by the plan's pattern indices.
        plan:
            Slot plane; defaults to all pairs at the single ``voltage``.
        kernel_table:
            Compiled polynomial delay kernels.  ``None`` selects static
            (nominal SDF) delays — the baseline [25] configuration; plans
            spanning several voltages then raise, because static delays
            cannot differentiate operating points.
        variation:
            Optional :class:`~repro.simulation.variation.ProcessVariation`;
            each slot then gets its own random per-gate delay factors
            (Monte-Carlo over the slot plane).
        global_slots:
            When the plan is a chunk of a larger plane (multi-device or
            campaign execution), the full-plane slot index of each local
            slot.  Monte-Carlo die factors follow these *global* indices,
            so chunked runs stay bit-identical to a whole-plane run.
            Defaults to ``0..num_slots-1`` (the plan is the whole plane).
        delta:
            Optional :class:`~repro.simulation.delta.DeltaPlan` mapping
            slots onto a cached base arena: fully matching slots are
            spliced straight out of the base, slots with changed inputs
            re-evaluate only the cone of influence, unmapped slots run
            from scratch.  Results are bit-identical to ``delta=None``.
        capture_base:
            Capture this run's full waveform state as a
            :class:`~repro.simulation.delta.BaseArena` on
            ``result.base_arena`` so later jobs can delta against it.
        """
        if not pairs:
            raise SimulationError("need at least one pattern pair")
        plan = plan or SlotPlan.uniform(len(pairs), voltage)
        if int(plan.pattern_indices.max()) >= len(pairs):
            raise SimulationError("slot plan references missing pattern index")
        if global_slots is not None:
            global_slots = np.asarray(global_slots, dtype=np.int64)
            if global_slots.shape != (plan.num_slots,):
                raise SimulationError(
                    "global_slots must provide one index per plan slot"
                )
            if global_slots.size and int(global_slots.min()) < 0:
                raise SimulationError("global_slots must be non-negative")
        if kernel_table is None and plan.distinct_voltages().size > 1:
            raise SimulationError(
                "static delay mode cannot differentiate operating points; "
                "pass a kernel_table for voltage-aware simulation"
            )

        v1 = np.stack([p.v1 for p in pairs])
        v2 = np.stack([p.v2 for p in pairs])
        if v1.shape[1] != len(self.compiled.circuit.inputs):
            raise SimulationError("pattern width does not match circuit inputs")
        if delta is not None:
            if delta.base_slot.shape != (plan.num_slots,):
                raise SimulationError(
                    "delta plan must map every plan slot")
            if delta.changed_inputs.shape != (plan.num_slots, v1.shape[1]):
                raise SimulationError(
                    "delta changed-input plane does not match the stimuli")
            if delta.base.num_nets != self.compiled.num_nets:
                raise SimulationError(
                    "delta base arena belongs to a different circuit")
            if delta.base_slot.size and (
                    int(delta.base_slot.max()) >= delta.base.num_slots):
                raise SimulationError(
                    "delta plan references a missing base slot")

        stats = _BatchStats(backend=self.backend.name)
        start = _time.perf_counter()
        # A captured base needs every net; the wanted rows are then a
        # zero-copy selection of the same plane.
        rows = (None if capture_base or self.config.record_all_nets
                else self._output_ids)
        planes: List[WaveformPlane] = []
        max_slots = self._max_batch_slots()
        for indices, sub_plan in plan.batches(max_slots):
            stats.batches += 1
            batch_globals = (global_slots[indices] if global_slots is not None
                             else indices)
            planes.append(self._run_batch(
                v1, v2, sub_plan, kernel_table, stats, variation,
                batch_globals,
                delta=delta.take(indices) if delta is not None else None,
                rows=rows))
        pack_start = _time.perf_counter()
        result_plane = WaveformPlane.concat(planes)
        stats.pack_seconds += _time.perf_counter() - pack_start
        base_arena = None
        if capture_base:
            base_arena = BaseArena(
                plane=result_plane,
                v1=v1[plan.pattern_indices], v2=v2[plan.pattern_indices],
                voltages=np.array(plan.voltages, dtype=np.float64),
                global_slots=(global_slots.copy() if global_slots is not None
                              else np.arange(plan.num_slots, dtype=np.int64)))
            if not self.config.record_all_nets:
                result_plane = result_plane.rows(self._output_nets,
                                                 self._output_ids)
        runtime = _time.perf_counter() - start
        self.last_stats = stats
        mode = "gpu-static" if kernel_table is None else "gpu-parametric"
        sparse = ",sparse" if self.config.prune_inactive else ""
        delta_tag = ",delta" if stats.lanes_spliced else ""
        demoted = "".join(f",demoted:{step}" for step in stats.demotions)
        return SimulationResult(
            circuit_name=self.compiled.circuit.name,
            slot_labels=plan.labels(),
            waveforms=result_plane,
            runtime_seconds=runtime,
            gate_evaluations=stats.gate_evaluations,
            engine=f"{mode}[{self.backend.name}{sparse}{delta_tag}{demoted}]",
            base_arena=base_arena,
        )

    # -- internals ---------------------------------------------------------------------

    def _max_batch_slots(self, capacity: Optional[int] = None) -> int:
        capacity = capacity or self.config.waveform_capacity
        per_slot = (self.compiled.num_nets + 1) * capacity * 8
        return max(4, int(self.memory_budget // max(per_slot, 1)))

    def _run_batch(
        self,
        v1: np.ndarray,
        v2: np.ndarray,
        plan: SlotPlan,
        kernel_table: Optional[DelayKernelTable],
        stats: _BatchStats,
        variation: Optional["ProcessVariation"] = None,
        global_slots: Optional[np.ndarray] = None,
        delta: Optional[DeltaPlan] = None,
        rows: Optional[np.ndarray] = None,
    ) -> WaveformPlane:
        capacity = self.config.waveform_capacity
        # Per-voltage delays depend only on (gates, distinct voltages) —
        # the cache survives capacity-doubling retries and budget splits,
        # so overflow recovery never re-evaluates the polynomials.
        delay_cache: Optional[Dict] = {} if kernel_table is not None else None
        while True:
            try:
                return self._run_batch_within_budget(
                    v1, v2, plan, kernel_table, capacity, stats, variation,
                    global_slots, delay_cache, delta=delta, rows=rows)
            except WaveformOverflowError:
                if not self.config.grow_on_overflow or capacity >= MAX_CAPACITY:
                    raise
                capacity *= 2
                stats.retries += 1
            except Exception as error:  # noqa: BLE001 - demotion ladder
                if not self._absorb_kernel_fault(error, stats):
                    raise

    def _absorb_kernel_fault(self, error: Exception,
                             stats: _BatchStats) -> bool:
        """Retry policy for non-overflow batch failures.

        The batch is retried on the same backend until ``demote_after``
        consecutive faults, then the backend is demoted one rung
        (cext → numba → numpy, skipping unavailable rungs) and the
        counter resets.  Returns False — re-raise — at the numpy floor,
        so total attempts are bounded by ``demote_after × rungs``.  A
        successful demoted retry leaves the engine on the demoted
        backend: a native kernel that faulted repeatedly is not trusted
        again.  (:class:`WorkerDeathError` is a ``BaseException`` and
        never reaches this handler — a dead worker is not a kernel
        fault.)
        """
        del error  # the retry decision depends only on the fault count
        self._kernel_faults += 1
        stats.retries += 1
        if self._kernel_faults < self.config.demote_after:
            return True
        demoted = demote_backend(self.backend.name)
        if demoted is None:
            return False
        step = f"{self.backend.name}->{demoted.name}"
        self.backend = demoted
        self._kernel_faults = 0
        self.demotions.append(step)
        stats.demotions.append(step)
        stats.backend = demoted.name
        return True

    def _run_batch_within_budget(
        self,
        v1: np.ndarray,
        v2: np.ndarray,
        plan: SlotPlan,
        kernel_table: Optional[DelayKernelTable],
        capacity: int,
        stats: _BatchStats,
        variation: Optional["ProcessVariation"],
        global_slots: Optional[np.ndarray],
        delay_cache: Optional[Dict],
        delta: Optional[DeltaPlan] = None,
        rows: Optional[np.ndarray] = None,
    ) -> WaveformPlane:
        """Run one batch at the given capacity, re-chunking first if the
        grown capacity would blow the memory budget (a retried batch is
        re-sized instead of exceeding ``memory_budget`` by the growth
        factor)."""
        max_slots = self._max_batch_slots(capacity)
        if plan.num_slots <= max_slots:
            return self._run_batch_at_capacity(
                v1, v2, plan, kernel_table, capacity, stats, variation,
                global_slots, delay_cache, delta=delta, rows=rows)
        if global_slots is None:
            global_slots = np.arange(plan.num_slots, dtype=np.int64)
        return WaveformPlane.concat([
            self._run_batch_at_capacity(
                v1, v2, sub_plan, kernel_table, capacity, stats, variation,
                global_slots[indices], delay_cache,
                delta=delta.take(indices) if delta is not None else None,
                rows=rows)
            for indices, sub_plan in plan.batches(max_slots)])

    def _run_batch_at_capacity(
        self,
        v1: np.ndarray,
        v2: np.ndarray,
        plan: SlotPlan,
        kernel_table: Optional[DelayKernelTable],
        capacity: int,
        stats: _BatchStats,
        variation: Optional["ProcessVariation"] = None,
        global_slots: Optional[np.ndarray] = None,
        delay_cache: Optional[Dict] = None,
        delta: Optional[DeltaPlan] = None,
        rows: Optional[np.ndarray] = None,
    ) -> WaveformPlane:
        """One batch through the level loop; returns the plane of the
        net rows ``rows`` (``None``: every real net)."""
        compiled = self.compiled
        num_slots = plan.num_slots
        inertial = self.config.pulse_filtering == "inertial"

        # Delta evaluation: slots mapped onto a cached base arena splice
        # or cone-evaluate; only unmapped slots fall through to the full
        # path below.
        if delta is not None and bool((delta.base_slot >= 0).any()):
            return self._run_batch_delta(
                v1, v2, plan, kernel_table, capacity, stats, variation,
                global_slots, delay_cache, delta, rows)

        # Load stimuli (Fig. 2 step 3): per slot, its pattern pair.
        pattern_of_slot = plan.pattern_indices
        first = v1[pattern_of_slot]                        # (S, num_inputs)
        toggles = (v1 != v2)[pattern_of_slot]              # (S, num_inputs)

        # Slot-grained pruning: classify each slot by its input-toggle
        # fraction.  Quiet slots (zero toggles) never enter the arena or
        # the level loop; low-toggle slots run with lane-grained
        # activity tracking; high-toggle slots run the plain dense path
        # where the per-level mask bookkeeping could not pay for
        # itself.  The classification is per slot, so the
        # evaluated/skipped accounting stays invariant across backends
        # and slot-plane chunkings.
        track_lanes = False
        if self.config.prune_inactive:
            fraction = toggles.mean(axis=1)                # (S,)
            quiet = fraction == 0.0
            tracked = ~quiet & (fraction < LANE_TRACK_INPUT_FRACTION)
            n_quiet = int(np.count_nonzero(quiet))
            n_tracked = int(np.count_nonzero(tracked))
            if n_quiet or (0 < n_tracked < num_slots):
                return self._run_batch_slot_compacted(
                    v1, v2, plan, kernel_table, capacity, stats, variation,
                    global_slots, delay_cache, first, quiet, tracked, rows)
            track_lanes = n_tracked == num_slots

        # Fused dispatch needs the polynomial kernel table (its
        # coefficients feed the in-kernel Horner evaluation); duck-typed
        # alternative delay models (LUT / analytical backends) take the
        # unfused per-group path, which only requires
        # ``delays_for_gates``.
        fused = self._fused and (kernel_table is None
                                 or isinstance(kernel_table, DelayKernelTable))

        # Waveform memory: (nets + dummy, slots, capacity) toggle times.
        # Pooled per engine: batches (and overflow retries) reset the
        # same allocation in place instead of np.full-ing a fresh one.
        # Dense fused dispatch runs one lane per (gate, slot) and each
        # writes its whole output row, so only the undriven rows need
        # the reset; every path that skips lanes reads the rows it
        # skipped as quiet and keeps the full reset.
        times_all, initial_all = self._arena_pool.acquire(
            compiled.num_nets + 1, num_slots, capacity,
            rows=self._undriven_rows if fused and not track_lanes else None)

        initial_all[compiled.input_net_ids] = first.T
        times_all[compiled.input_net_ids, :, 0] = np.where(
            toggles.T, LAUNCH_TIME, INF
        )

        # Toggle activity per (net, slot): a lane is dispatched to the
        # backend only when at least one of its input nets toggles.
        activity = None
        if track_lanes:
            activity = np.zeros((compiled.num_nets + 1, num_slots),
                                dtype=bool)
            activity[compiled.input_net_ids] = toggles.T

        # Parallel instances share delay-function calls: evaluate each
        # distinct voltage once and broadcast to its slots.
        distinct_v, slot_to_v = np.unique(plan.voltages, return_inverse=True)
        slot_to_v = np.ascontiguousarray(slot_to_v, dtype=np.int64)

        # Monte-Carlo die samples: per-gate, per-slot delay factors.
        factors = None
        if variation is not None:
            if global_slots is None:
                global_slots = np.arange(num_slots)
            factors = variation.factors(compiled.num_gates, global_slots)

        # Level-wise processing (the vertical grid dimension).
        if fused:
            # One backend call per level over the precompiled plan, with
            # predictor normalizations (phi_V, phi_C) resolved once from
            # the fingerprint-cached plan memos.
            plans = self._plans
            if plans is None:
                plans = self._plans = compiled.plans()
            nv = None
            nc_levels = None
            if kernel_table is not None:
                nv = plans.normalized_voltages(kernel_table.space, distinct_v)
                nc_levels = plans.normalized_loads(kernel_table.space)
            if activity is None:
                # Dense batch: hand the whole level sequence to the
                # backend in one call (the C extension loops levels
                # natively, paying its ctypes marshalling cost once).
                self._run_levels(
                    plans, times_all, initial_all, slot_to_v, kernel_table,
                    nv, capacity, inertial, stats, factors=factors,
                    delay_cache=delay_cache,
                )
            else:
                for level_index, level_plan in enumerate(plans.levels):
                    self._run_level(
                        level_plan, times_all, initial_all, slot_to_v,
                        kernel_table, nv,
                        nc_levels[level_index]
                        if nc_levels is not None else None,
                        capacity, inertial, stats, factors=factors,
                        delay_cache=delay_cache, activity=activity,
                    )
        else:
            for level_index, level_gates in enumerate(compiled.levels):
                if self.group_by_arity:
                    for group_index, (arity, gate_indices) in enumerate(
                            compiled.level_groups[level_index]):
                        self._run_group(
                            gate_indices, arity,
                            compiled.gate_inputs[gate_indices, :arity],
                            compiled.gate_output[gate_indices],
                            compiled.truth_tables_i64[gate_indices],
                            times_all, initial_all,
                            distinct_v, slot_to_v, kernel_table, capacity,
                            inertial, stats, factors=factors,
                            delay_cache=delay_cache,
                            cache_key=(level_index, group_index),
                            activity=activity,
                        )
                else:
                    self._run_group(
                        level_gates, compiled.max_pins,
                        compiled.level_inputs[level_index],
                        compiled.level_outputs[level_index],
                        compiled.level_tables[level_index],
                        times_all, initial_all,
                        distinct_v, slot_to_v, kernel_table, capacity,
                        inertial, stats, factors=factors,
                        delay_cache=delay_cache, cache_key=(level_index,),
                        activity=activity,
                    )

        return self._extract(times_all, initial_all, rows, stats)

    def _run_batch_slot_compacted(
        self,
        v1: np.ndarray,
        v2: np.ndarray,
        plan: SlotPlan,
        kernel_table: Optional[DelayKernelTable],
        capacity: int,
        stats: _BatchStats,
        variation: Optional["ProcessVariation"],
        global_slots: Optional[np.ndarray],
        delay_cache: Optional[Dict],
        first: np.ndarray,
        quiet: np.ndarray,
        tracked: np.ndarray,
        rows: Optional[np.ndarray] = None,
    ) -> WaveformPlane:
        """Split a batch into quiet / lane-tracked / dense slot classes.

        Quiet slots (no launched transition on any input) are settled by
        :meth:`_settle_values` — they contribute ``num_gates`` skipped
        lanes each, never touch the arena and become a toggle-free
        plane.  The tracked and dense subsets re-enter
        :meth:`_run_batch_at_capacity` on homogeneous slot-compacted
        plans, so the split never recurses twice.
        """
        compiled = self.compiled
        quiet_idx = np.nonzero(quiet)[0]
        stats.lanes_skipped += compiled.num_gates * int(quiet_idx.size)
        if global_slots is None:
            global_slots = np.arange(plan.num_slots, dtype=np.int64)

        parts: List[Tuple[np.ndarray, WaveformPlane]] = []
        for subset in (np.nonzero(tracked)[0], np.nonzero(~quiet & ~tracked)[0]):
            if subset.size:
                parts.append((subset, self._run_batch_at_capacity(
                    v1, v2, plan.take(subset), kernel_table, capacity, stats,
                    variation, global_slots[subset], delay_cache, rows=rows)))
        if quiet_idx.size:
            pack_start = _time.perf_counter()
            values, inverse = self._settle_values(first[quiet_idx])
            values = (values[: compiled.num_nets] if rows is None
                      else values[rows])
            parts.append((quiet_idx, WaveformPlane.constant(
                self._nets_of(rows), values[:, inverse])))
            stats.pack_seconds += _time.perf_counter() - pack_start
        return self._join(parts, stats)

    def _run_batch_delta(
        self,
        v1: np.ndarray,
        v2: np.ndarray,
        plan: SlotPlan,
        kernel_table: Optional[DelayKernelTable],
        capacity: int,
        stats: _BatchStats,
        variation: Optional["ProcessVariation"],
        global_slots: Optional[np.ndarray],
        delay_cache: Optional[Dict],
        delta: DeltaPlan,
        rows: Optional[np.ndarray],
    ) -> WaveformPlane:
        """Partition a delta batch into splice / cone / full slot classes.

        Slots whose stimuli and operating point match a base slot
        exactly are *spliced*: their columns are gathered straight out
        of the base plane and every lane counts as ``lanes_spliced``.
        Slots with changed inputs re-evaluate only the cone of influence
        (:meth:`_run_batch_delta_cone`); slots no base slot could serve
        re-enter the normal full path.
        """
        compiled = self.compiled
        if global_slots is None:
            global_slots = np.arange(plan.num_slots, dtype=np.int64)
        base = delta.base.plane
        mapped = delta.base_slot >= 0
        changed_any = delta.changed_inputs.any(axis=1)
        parts: List[Tuple[np.ndarray, WaveformPlane]] = []

        unmapped_idx = np.nonzero(~mapped)[0]
        if unmapped_idx.size:
            parts.append((unmapped_idx, self._run_batch_at_capacity(
                v1, v2, plan.take(unmapped_idx), kernel_table, capacity,
                stats, variation, global_slots[unmapped_idx], delay_cache,
                rows=rows)))

        splice_idx = np.nonzero(mapped & ~changed_any)[0]
        if splice_idx.size:
            pack_start = _time.perf_counter()
            cols = delta.base_slot[splice_idx]
            source = (base if rows is None
                      else base.rows(self._output_nets, rows))
            parts.append((splice_idx, source.take(cols)))
            stats.lanes_spliced += compiled.num_gates * int(splice_idx.size)
            stats.bytes_spliced += (
                int(base.counts[:, cols].sum()) * 8
                + compiled.num_nets * int(splice_idx.size))
            stats.pack_seconds += _time.perf_counter() - pack_start

        cone_idx = np.nonzero(mapped & changed_any)[0]
        if cone_idx.size:
            parts.append((cone_idx, self._run_batch_delta_cone(
                v1, v2, plan.take(cone_idx), kernel_table, capacity, stats,
                variation, global_slots[cone_idx], delay_cache,
                delta.take(cone_idx), rows)))
        return self._join(parts, stats)

    def _run_batch_delta_cone(
        self,
        v1: np.ndarray,
        v2: np.ndarray,
        plan: SlotPlan,
        kernel_table: Optional[DelayKernelTable],
        capacity: int,
        stats: _BatchStats,
        variation: Optional["ProcessVariation"],
        global_slots: np.ndarray,
        delay_cache: Optional[Dict],
        delta: DeltaPlan,
        rows: Optional[np.ndarray],
    ) -> WaveformPlane:
        """Cone-of-influence re-evaluation against a seeded base arena.

        The per-slot activity mask is the *static* cone of the changed
        inputs: every lane inside the cone is dispatched (or settled and
        sparsely dispatched) exactly as the lane-tracked path would, and
        every lane outside it is spliced — its output row is seeded with
        the base toggles and its accounting goes to ``lanes_spliced``.
        ``splice=True`` keeps the per-level dispatch from narrowing the
        mask or touching the accounting of skipped lanes, so
        ``lanes_spliced + gate_evaluations`` over a cone slot is exactly
        ``gates``.  Cone *output* rows stay ``+inf`` from the pool reset
        (plane extraction counts every finite entry, so a re-evaluated row
        must start empty); a dense-dispatched group rewriting a seeded
        non-cone row writes bit-identical values — its inputs, delays
        and factors match the base run by eligibility construction.
        """
        compiled = self.compiled
        num_slots = plan.num_slots
        inertial = self.config.pulse_filtering == "inertial"
        base = delta.base.plane
        base_cols = delta.base_slot

        counts = base.counts[:, base_cols]                 # (N, S)
        if counts.size and int(counts.max()) > capacity:
            raise WaveformOverflowError(
                f"base waveforms exceed capacity {capacity}")

        plans = self._plans
        if plans is None:
            plans = self._plans = compiled.plans()
        changed, inverse = np.unique(delta.changed_inputs, axis=0,
                                     return_inverse=True)
        activity = plans.input_cones(compiled, changed)[:, inverse]

        times_all, initial_all = self._arena_pool.acquire(
            compiled.num_nets + 1, num_slots, capacity)

        pack_start = _time.perf_counter()
        initial_all[: compiled.num_nets] = base.initial[:, base_cols]
        splice_mask = ~activity[: compiled.num_nets] & (counts > 0)
        nets, slots = np.nonzero(splice_mask)
        if nets.size:
            cnt = counts[nets, slots]
            ends = np.cumsum(cnt)
            total = int(ends[-1])
            span = np.arange(total, dtype=np.int64) - np.repeat(
                ends - cnt, cnt)
            src = np.repeat(base.starts[nets, base_cols[slots]], cnt) + span
            dst = np.repeat((nets * num_slots + slots) * capacity, cnt) + span
            times_all.reshape(-1)[dst] = base.times[src]
            stats.bytes_spliced += total * 8
        stats.pack_seconds += _time.perf_counter() - pack_start

        # Variant stimuli overwrite the input rows — value-identical for
        # unchanged inputs, by construction of the changed mask.
        pattern_of_slot = plan.pattern_indices
        first = v1[pattern_of_slot]
        toggles = (v1 != v2)[pattern_of_slot]
        initial_all[compiled.input_net_ids] = first.T
        times_all[compiled.input_net_ids, :, 0] = np.where(
            toggles.T, LAUNCH_TIME, INF)

        distinct_v, slot_to_v = np.unique(plan.voltages, return_inverse=True)
        slot_to_v = np.ascontiguousarray(slot_to_v, dtype=np.int64)
        factors = None
        if variation is not None:
            factors = variation.factors(compiled.num_gates, global_slots)

        fused = self._fused and (kernel_table is None
                                 or isinstance(kernel_table, DelayKernelTable))
        if fused:
            nv = None
            nc_levels = None
            if kernel_table is not None:
                nv = plans.normalized_voltages(kernel_table.space, distinct_v)
                nc_levels = plans.normalized_loads(kernel_table.space)
            for level_index, level_plan in enumerate(plans.levels):
                self._run_level(
                    level_plan, times_all, initial_all, slot_to_v,
                    kernel_table, nv,
                    nc_levels[level_index]
                    if nc_levels is not None else None,
                    capacity, inertial, stats, factors=factors,
                    delay_cache=delay_cache, activity=activity,
                    splice=True)
        else:
            for level_index, level_gates in enumerate(compiled.levels):
                if self.group_by_arity:
                    for group_index, (arity, gate_indices) in enumerate(
                            compiled.level_groups[level_index]):
                        self._run_group(
                            gate_indices, arity,
                            compiled.gate_inputs[gate_indices, :arity],
                            compiled.gate_output[gate_indices],
                            compiled.truth_tables_i64[gate_indices],
                            times_all, initial_all,
                            distinct_v, slot_to_v, kernel_table, capacity,
                            inertial, stats, factors=factors,
                            delay_cache=delay_cache,
                            cache_key=(level_index, group_index),
                            activity=activity, splice=True)
                else:
                    self._run_group(
                        level_gates, compiled.max_pins,
                        compiled.level_inputs[level_index],
                        compiled.level_outputs[level_index],
                        compiled.level_tables[level_index],
                        times_all, initial_all,
                        distinct_v, slot_to_v, kernel_table, capacity,
                        inertial, stats, factors=factors,
                        delay_cache=delay_cache, cache_key=(level_index,),
                        activity=activity, splice=True)

        return self._extract(times_all, initial_all, rows, stats)

    def _nets_of(self, rows: Optional[np.ndarray]) -> Tuple[str, ...]:
        return self._all_nets if rows is None else self._output_nets

    def _extract(self, times_all: np.ndarray, initial_all: np.ndarray,
                 rows: Optional[np.ndarray], stats: _BatchStats
                 ) -> WaveformPlane:
        """Waveform analysis (Fig. 2 step 4): copy the wanted rows out
        of the pooled arena — one ``isfinite`` / ``sum`` / boolean
        gather for the whole batch."""
        pack_start = _time.perf_counter()
        plane = WaveformPlane.from_arena(self._nets_of(rows), times_all,
                                         initial_all, rows)
        stats.pack_seconds += _time.perf_counter() - pack_start
        return plane

    @staticmethod
    def _join(parts: List[Tuple[np.ndarray, WaveformPlane]],
              stats: _BatchStats) -> WaveformPlane:
        """Concatenate ``(slot subset, plane)`` parts that partition a
        batch and restore the batch's slot order (columns are
        re-indexed, the payload is copied once by ``concat``)."""
        pack_start = _time.perf_counter()
        plane = WaveformPlane.concat([plane for _, plane in parts])
        if len(parts) > 1:
            position = np.argsort(np.concatenate([idx for idx, _ in parts]))
            plane = plane.take(position, copy=False)
        stats.pack_seconds += _time.perf_counter() - pack_start
        return plane

    def _settle_values(self, first: np.ndarray
                       ) -> tuple:
        """Settled logic values for toggle-free slots.

        One truth-table sweep per level over the ``(gates, quiet_slots)``
        plane — no waveform arena, no kernel dispatch.  Matches what
        dense evaluation produces for these slots bit for bit: with zero
        input toggles every merge degenerates to the same table lookup.

        Slots repeating the same input vector settle identically, so the
        sweep runs once per *unique* vector; returns the per-unique-
        vector ``(num_nets + 1, U)`` value plane and the slot → unique
        inverse mapping.
        """
        compiled = self.compiled
        first, inverse = np.unique(first, axis=0, return_inverse=True)
        quiet = first.shape[0]
        initial = np.zeros((compiled.num_nets + 1, quiet), dtype=np.uint8)
        initial[compiled.input_net_ids] = first.T
        for level_index in range(len(compiled.levels)):
            in_ids = compiled.level_inputs[level_index]
            tables = compiled.level_tables[level_index]
            out_ids = compiled.level_outputs[level_index]
            index = np.zeros((in_ids.shape[0], quiet), dtype=np.int64)
            for pin in range(in_ids.shape[1]):
                index |= initial[in_ids[:, pin]].astype(np.int64) << pin
            initial[out_ids] = ((tables[:, None] >> index) & 1).astype(
                np.uint8)
        return initial, inverse

    def _group_delays(
        self,
        gate_indices: np.ndarray,
        arity: int,
        distinct_v: np.ndarray,
        kernel_table: Optional[DelayKernelTable],
        delay_cache: Optional[Dict],
        cache_key: tuple,
    ) -> np.ndarray:
        """Per-gate ``(g, arity, 2, V)`` delays per distinct voltage.

        Parametric results are memoized per (group, voltage set): they
        depend only on the gates and the distinct voltages, never on the
        waveform capacity, so overflow retries reuse them.
        """
        compiled = self.compiled
        if kernel_table is None:
            return compiled.nominal_delays[gate_indices, :arity][..., None]
        key = cache_key + (distinct_v.tobytes(),)
        if delay_cache is not None and key in delay_cache:
            return delay_cache[key]
        per_voltage = self.backend.delays_for_gates(
            kernel_table,
            compiled.gate_type_ids[gate_indices],
            compiled.gate_loads[gate_indices],
            compiled.nominal_delays[gate_indices],
            distinct_v,
        )[:, :arity]                                       # (g, k, 2, V)
        if delay_cache is not None:
            delay_cache[key] = per_voltage
        return per_voltage

    @staticmethod
    def _settle_group_outputs(
        in_ids: np.ndarray,
        out_ids: np.ndarray,
        tables: np.ndarray,
        arity: int,
        initial_all: np.ndarray,
        num_slots: int,
    ) -> None:
        """Write every lane's settled output value into ``initial_all``
        via one vectorized truth-table lookup over the group plane."""
        index = np.zeros((in_ids.shape[0], num_slots), dtype=np.int64)
        for pin in range(arity):
            index |= initial_all[in_ids[:, pin]].astype(np.int64) << pin
        initial_all[out_ids] = ((tables[:, None] >> index) & 1).astype(
            np.uint8)

    def _run_group(
        self,
        gate_indices: np.ndarray,
        arity: int,
        in_ids: np.ndarray,
        out_ids: np.ndarray,
        tables: np.ndarray,
        times_all: np.ndarray,
        initial_all: np.ndarray,
        distinct_v: np.ndarray,
        slot_to_v: np.ndarray,
        kernel_table: Optional[DelayKernelTable],
        capacity: int,
        inertial: bool,
        stats: _BatchStats,
        factors: Optional[np.ndarray] = None,
        delay_cache: Optional[Dict] = None,
        cache_key: tuple = (),
        activity: Optional[np.ndarray] = None,
        splice: bool = False,
    ) -> None:
        """Evaluate one SIMD thread group across all slots.

        ``in_ids``/``out_ids``/``tables`` are the group's ``(g, k)``
        input net ids, ``(g,)`` output net ids and ``(g,)`` int64 truth
        tables — the whole level with don't-care-padded tables and a
        constant dummy net on spare pins, or a same-arity subset
        (ablation mode).  The compute backend does the actual work
        against the waveform arena.

        With ``activity`` (the per-(net, slot) toggle mask), quiet lanes
        never count as evaluated and their (pooled, +inf-reset) arena
        row stays empty.  How they settle depends on the group's active
        share: mostly-quiet groups take the lane-compacted backend path
        (quiet outputs via a vectorized truth-table lookup, only active
        lanes dispatched); mostly-active groups dispatch dense, because
        the kernel settles a toggle-free lane in about one iteration —
        cheaper than the compaction bookkeeping.  The lane *accounting*
        is decoupled from the dispatch choice, so the
        ``gate_evaluations`` / ``lanes_skipped`` split is invariant
        across backends and slot-plane chunkings either way.

        With ``splice=True`` (delta cone evaluation) ``activity`` is the
        *static* cone-of-influence mask: lanes outside it are spliced
        from the base arena rather than skipped, so their count goes to
        ``lanes_spliced``, and the mask is never mutated — the all-quiet
        write is a no-op by cone construction (``cone[out] =
        any(cone[in])``), while the end-of-group ``isfinite`` narrowing
        would wrongly re-activate non-cone outputs whose seeded base
        rows carry toggles.
        """
        if gate_indices.size == 0:
            return
        num_slots = slot_to_v.size
        total_lanes = in_ids.shape[0] * num_slots

        # Online delay calculation (Sec. IV-A): adapt the nominal delays
        # to each distinct operating point (static mode: V = 1).
        delay_start = _time.perf_counter()
        per_voltage = self._group_delays(gate_indices, arity, distinct_v,
                                         kernel_table, delay_cache, cache_key)
        stats.delay_seconds += _time.perf_counter() - delay_start
        group_factors = factors[gate_indices] if factors is not None else None

        lane_gates = lane_slots = None
        active_lanes = total_lanes
        if activity is not None:
            lane_active = activity[in_ids].any(axis=1)           # (g, S)
            active_lanes = int(np.count_nonzero(lane_active))
            if splice:
                stats.lanes_spliced += total_lanes - active_lanes
            else:
                stats.lanes_skipped += total_lanes - active_lanes
            if active_lanes == 0:
                # Whole group is quiet: settle, outputs stay toggle-free.
                self._settle_group_outputs(in_ids, out_ids, tables, arity,
                                           initial_all, num_slots)
                if not splice:
                    activity[out_ids] = False
                return
            if active_lanes < total_lanes * SPARSE_DISPATCH_FRACTION:
                # Settle every lane's output from the input initial
                # values — the same table lookup the kernel performs
                # before its event loop, so dispatched lanes just
                # rewrite the same byte.
                self._settle_group_outputs(in_ids, out_ids, tables, arity,
                                           initial_all, num_slots)
                lane_gates, lane_slots = np.nonzero(lane_active)

        faults.trip("backend.merge_group")
        merge_start = _time.perf_counter()
        if lane_gates is not None:
            result = self.backend.merge_group_sparse(
                times_all, initial_all, in_ids, out_ids, per_voltage,
                slot_to_v, group_factors, tables, capacity, inertial,
                lane_gates, lane_slots,
            )
        else:
            result = self.backend.merge_group(
                times_all, initial_all, in_ids, out_ids, per_voltage,
                slot_to_v, group_factors, tables, capacity, inertial,
            )
        stats.merge_seconds += _time.perf_counter() - merge_start
        stats.gate_evaluations += active_lanes
        stats.kernel_calls += 1
        stats.kernel_iterations += result.iterations
        if result.overflow_lanes:
            raise WaveformOverflowError(
                f"{result.overflow_lanes} lanes exceeded capacity {capacity}"
            )
        if activity is not None and not splice:
            # A net is active downstream iff the lane kept >= 1 toggle
            # (all-cancelled lanes settle back to a quiet output).
            activity[out_ids] = np.isfinite(times_all[out_ids, :, 0])

    def _run_levels(
        self,
        plans,
        times_all: np.ndarray,
        initial_all: np.ndarray,
        slot_to_v: np.ndarray,
        kernel_table: Optional[DelayKernelTable],
        nv: Optional[np.ndarray],
        capacity: int,
        inertial: bool,
        stats: _BatchStats,
        factors: Optional[np.ndarray] = None,
        delay_cache: Optional[Dict] = None,
    ) -> None:
        """Whole-batch fused dispatch: every level in one backend call.

        Dense counterpart of the per-level :meth:`_run_level` loop, used
        when no activity tracking is in effect (every lane of every
        level runs).  Accounting — gate evaluations, kernel calls,
        kernel iterations, overflow behaviour — matches the per-level
        loop exactly; see :meth:`ComputeBackend.run_levels`.
        """
        faults.trip("backend.run_levels")
        merge_start = _time.perf_counter()
        result = self.backend.run_levels(
            plans, times_all, initial_all, slot_to_v, factors, capacity,
            inertial, kernel_table=kernel_table, nv=nv,
            delay_cache=delay_cache,
        )
        wall = _time.perf_counter() - merge_start
        stats.delay_seconds += result.delay_seconds
        stats.merge_seconds += wall - result.delay_seconds
        stats.gate_evaluations += result.lanes
        stats.kernel_calls += result.kernel_calls
        stats.kernel_iterations += result.iterations
        if result.overflow_lanes:
            raise WaveformOverflowError(
                f"{result.overflow_lanes} lanes exceeded capacity {capacity}"
            )

    def _run_level(
        self,
        plan,
        times_all: np.ndarray,
        initial_all: np.ndarray,
        slot_to_v: np.ndarray,
        kernel_table: Optional[DelayKernelTable],
        nv: Optional[np.ndarray],
        nc: Optional[np.ndarray],
        capacity: int,
        inertial: bool,
        stats: _BatchStats,
        factors: Optional[np.ndarray] = None,
        delay_cache: Optional[Dict] = None,
        activity: Optional[np.ndarray] = None,
        splice: bool = False,
    ) -> None:
        """Fused dispatch of one whole level via its precompiled plan.

        One :meth:`ComputeBackend.run_level` call covers every arity
        group of the level; the lane backends evaluate the Horner delay
        kernel inside the merge loop per (gate, voltage), so no per-lane
        delay array is materialized.  ``nv``/``nc`` are the plan-cached
        predictor normalizations (``None`` in static mode).  The
        activity classification, lane accounting and results are
        bit-identical to the unfused :meth:`_run_group` path — plan rows
        are arity-sorted, but lanes are independent and each output net
        is written by exactly one gate.
        """
        if plan.num_gates == 0:
            return
        num_slots = slot_to_v.size
        total_lanes = plan.num_gates * num_slots
        max_pins = plan.in_ids.shape[1]
        group_factors = (factors[plan.gate_indices]
                         if factors is not None else None)

        lane_gates = lane_slots = None
        active_lanes = total_lanes
        if activity is not None:
            lane_active = activity[plan.in_ids].any(axis=1)       # (g, S)
            active_lanes = int(np.count_nonzero(lane_active))
            if splice:
                stats.lanes_spliced += total_lanes - active_lanes
            else:
                stats.lanes_skipped += total_lanes - active_lanes
            if active_lanes == 0:
                self._settle_group_outputs(plan.in_ids, plan.out_ids,
                                           plan.tables, max_pins,
                                           initial_all, num_slots)
                if not splice:
                    activity[plan.out_ids] = False
                return
            if active_lanes < total_lanes * SPARSE_DISPATCH_FRACTION:
                self._settle_group_outputs(plan.in_ids, plan.out_ids,
                                           plan.tables, max_pins,
                                           initial_all, num_slots)
                lane_gates, lane_slots = np.nonzero(lane_active)

        faults.trip("backend.merge_group")
        merge_start = _time.perf_counter()
        result = self.backend.run_level(
            plan, times_all, initial_all, slot_to_v, group_factors,
            capacity, inertial, kernel_table=kernel_table, nv=nv, nc=nc,
            delay_cache=delay_cache, lane_gates=lane_gates,
            lane_slots=lane_slots,
        )
        wall = _time.perf_counter() - merge_start
        stats.delay_seconds += result.delay_seconds
        stats.merge_seconds += wall - result.delay_seconds
        stats.gate_evaluations += active_lanes
        stats.kernel_calls += 1
        stats.kernel_iterations += result.iterations
        if result.overflow_lanes:
            raise WaveformOverflowError(
                f"{result.overflow_lanes} lanes exceeded capacity {capacity}"
            )
        if activity is not None and not splice:
            activity[plan.out_ids] = np.isfinite(
                times_all[plan.out_ids, :, 0])
