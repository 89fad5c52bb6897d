"""The parallel waveform time simulator (the paper's engine, Sec. IV).

``GpuWaveSim`` is the NumPy-SIMT port of the paper's CUDA simulator.  The
three dimensions of parallelism map onto array axes:

* **gates** — the circuit is processed level by level; all gates of a
  level are structurally independent and evaluated together in one
  backend call over the level's precompiled plan (narrow gates run with
  a constant dummy input on their spare pins, so control flow never
  diverges),
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
``+inf`` termination, like the GPU global-memory layout.  A lane whose
toggles do not fit its row flags its *slot* and the walk goes on; the
flagged slots alone are re-run at a grown capacity (configurable) and
put back among the others, re-sized so the memory budget holds on
retries.  Because being wrong costs one slot, a plane large enough to
stream from memory starts with rows of one cache line
(:data:`COMPACT_CAPACITY`).
The arena is *pooled* per engine instance: successive batches reset the
same allocation in place instead of re-allocating (and re-faulting) up
to a gigabyte per batch.  Every run of the level loop ends by copying
the wanted net rows out of the arena (``backend.extract``) into
columnar :class:`~repro.waveform.plane.WaveformPlane` form (toggle
counts, block offsets and a flat toggle-time payload) — one plane for
the batch, or one per consumer when the caller named its
:class:`~repro.simulation.grid.Segments`.  The answer of a batch that
lowers several ways is written in place: one
:class:`~repro.waveform.plane.PlaneCanvas` is allocated for it and each
part writes its own columns — the walk's unpack
(``backend.extract_columns``) and the quiet settle straight from the
backend — as does an overflow re-run, whose walk left the flagged
slots' columns out; memory-budget batches, already in slot order, are
concatenated.  No per-``(net, slot)`` Python object is built unless a
caller indexes ``result.waveforms``.

On realistic low-activity stimuli most lanes carry zero input toggles —
their output is a pure logic settle with no waveform work.  The engine
therefore prunes at two slot-classified granularities: slots whose
stimulus launches no toggle at all settle once per pattern they name in
one bit-sliced truth-table sweep and never touch the arena, and slots
toggling only a small
fraction of their inputs run with per-(net, slot) activity tracking —
the backend walks the levels under an activity mask it grows itself,
and only lanes with an active input are dispatched (the lane-compaction
path GATSPI demonstrates as the dominant speedup lever for gate-level
GPU simulation).  High-toggle slots run dense, where mask
bookkeeping could not pay for itself.  Quiet lanes get their settled
output value from a truth-table lookup; results are
bit-identical to dense evaluation (``config.prune_inactive=False``).

Every one of those shapes — and the delta splice of
:mod:`repro.simulation.delta` — *lowers* to the one level loop in
:meth:`GpuWaveSim._execute`: a batch is partitioned into slot subsets
(:func:`_lower`), and each subset is either answered without the arena
(quiet settle, base splice) or executed with an optional lane mask.
Dense is "no mask", lane tracking is a mask grown from the input
toggles.

The kernels themselves are pluggable (:mod:`repro.simulation.backend`):
the vectorized lockstep numpy reference or compiled per-lane C loops
(cext), which consume per-gate net-id index arrays and read/write the
waveform arena in place, skipping the ``(k, lanes, capacity)`` gather
copy and the output reshape of the numpy path entirely.
"""

from __future__ import annotations

import mmap
import time as _time
from dataclasses import dataclass, field, replace
from typing import (TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple,
                    Union)

import numpy as np

from repro import faults
from repro.cells.library import CellLibrary
from repro.core.delay_kernel import DelayKernelTable
from repro.errors import (
    InjectedFaultError,
    ReproError,
    SimulationError,
    WaveformOverflowError,
)
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
from repro.simulation.grid import Segments, SlotPlan
from repro.waveform.plane import PlaneCanvas, WaveformPlane, net_keys

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.variation import ProcessVariation

__all__ = ["EngineStats", "GpuWaveSim"]

INF = np.float64(np.inf)

#: Waveform-memory budget per batch (bytes); batches are sized so the
#: dense (nets × slots × capacity) array stays below this.
DEFAULT_MEMORY_BUDGET = 1024 * 1024 * 1024

#: Hard ceiling for overflow-driven capacity growth.
MAX_CAPACITY = 4096

#: The capacity a large plane starts at: a row of one 64-byte cache
#: line.  The walk's time follows the row *stride*, not the bytes a lane
#: touches — the prefetcher streams the whole arena: on the 1024-slot
#: b17 x0.1 sweep the walk takes 49 / 86 / 153 ms at capacity 8 / 16 /
#: 32, and a build that wrote only the terminator of a row 82 / 124 ms
#: at 16 / 32 — while the waveforms are short: in the same plane 60 %
#: of the (net, slot) rows carry no toggle, 99.7 % at most four, and
#: one slot in 1024 has a row above eight.
COMPACT_CAPACITY = 8

#: A batch starts at :data:`COMPACT_CAPACITY` when its arena at the
#: configured ``waveform_capacity`` would be at least this large.
#: Measured on the 2-core box (b17 x0.1, 8..1024 slots, run time at
#: capacity 16 over capacity 8, median of 9): x0.95 / 1.07 / 1.15 /
#: 1.14 at 4 / 17 / 33 / 66 MB with no slot above eight, x1.10 / 1.36 /
#: 1.45 at 132 / 264 / 527 MB with one slot re-run.  Below the threshold
#: the rows saved are worth 0.2-1.4 ms and the narrowest re-run costs
#: 1.5-2 ms (63 levels of fixed cost), so one overflowing slot turns the
#: gain into a loss; above it the saving is 10-30 ms.
COMPACT_MIN_BYTES = 128 * 1024 * 1024

#: A compact walk that has to re-run more than one slot in this many
#: turns compact starts off for the engine's later batches — one way,
#: because the share of slots with a row above eight is a property of
#: the circuit.  Measured (suite scale 0.05, 64 pairs x 3 supplies, run
#: time configured over compact): b18 1.6 % of the slots re-run, x1.18;
#: p141k 8 %, x1.16; b19 13 %, x1.11; p418k 33 %, x0.88; p500k 35 %,
#: x0.92 — break-even near 23 %.  (A walk at 8 costs ~0.64 of one at 16,
#: but the re-run walk is narrow and pays ~1.5x per slot.)
COMPACT_RETRY_DIVISOR = 4

#: Consecutive non-overflow kernel faults an engine absorbs before it
#: demotes its compute backend one rung (cext → numpy); a batch that
#: returns resets the count.  At the numpy floor the fault propagates.
DEMOTE_AFTER = 2

#: Slots toggling at least this fraction of the primary inputs skip
#: lane-grained activity tracking entirely — activity spreads so wide
#: that the per-level mask bookkeeping cannot pay for itself, so they
#: run unmasked (and count every lane as evaluated).  The
#: classification is per slot, keeping the accounting invariant across
#: backends and slot-plane chunkings.
LANE_TRACK_INPUT_FRACTION = 0.25


@dataclass
class EngineStats:
    """Per-run engine diagnostics — the one record an engine run's
    counters travel in, from the walk to every report.

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
    #: Re-runs: overflow recoveries (each re-running ``slots_retried``
    #: flagged slots at a grown capacity) and absorbed kernel faults.
    #: The lane counters count every lane of the answer once; the work
    #: of a flagged slot's discarded attempt shows only here.
    retries: int = 0
    slots_retried: int = 0
    #: Largest waveform capacity a walk of the run used.
    capacity_used: int = 0
    batches: int = 0
    lanes_skipped: int = 0
    #: Lanes whose waveforms were spliced out of a cached base arena
    #: instead of being evaluated or settled (delta runs only): every
    #: lane of a mapped slot, so
    #: ``gate_evaluations + lanes_skipped + lanes_spliced == gates * slots``.
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
    #: settle, base splice, sub-batch joins).  The per-lane backend
    #: evaluates polynomial delays inside the merge loop, so that
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

    def __iadd__(self, other: "EngineStats") -> "EngineStats":
        """Sum another run's stats into these: counters and seconds add,
        demotions concatenate, the capacity is the larger and the
        backend the later run's (a run of no walk, like a result-cache
        hit, names none and keeps the earlier one)."""
        for name, value in vars(other).items():
            if name == "capacity_used":
                self.capacity_used = max(self.capacity_used, value)
            elif name == "backend":
                self.backend = value or self.backend
            else:
                setattr(self, name, getattr(self, name) + value)
        return self

    def share(self, n: int, total: int) -> "EngineStats":
        """The share of ``n`` of a run's ``total`` slots: lane counters
        ``x * n // total``, phase seconds ``value * n / total``.  The
        rest stays whole — the slots ran as one plane, so they share
        its capacity, retries, kernel calls, backend and demotions."""
        values = dict(vars(self), demotions=list(self.demotions))
        for name in ("gate_evaluations", "lanes_skipped", "lanes_spliced",
                     "bytes_spliced"):
            values[name] = values[name] * n // total
        for name in ("delay_seconds", "merge_seconds", "pack_seconds"):
            values[name] = values[name] * n / total
        return EngineStats(**values)

    def record_walk(self, result, wall: float, capacity: int) -> None:
        """Account one ``backend.run_levels`` call; its masked-out
        lanes count as ``lanes_skipped``."""
        self.delay_seconds += result.delay_seconds
        self.merge_seconds += wall - result.delay_seconds
        self.count_lanes(result.lanes, result.lanes_skipped)
        self.kernel_calls += result.kernel_calls
        self.kernel_iterations += result.iterations
        self.capacity_used = max(self.capacity_used, capacity)

    def count_lanes(self, evaluated: int, skipped: int) -> None:
        """Add a walk's lanes to the counters — or, negated, take a
        flagged slot's discarded attempt back out."""
        self.gate_evaluations += evaluated
        self.lanes_skipped += skipped


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
    planes (``ComputeBackend.extract``) before the next acquire.

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
                rows: np.ndarray):
        """A ``(times, initial)`` arena pair of the given shape.

        Only the net ``rows`` are reset (toggle times ``+inf``, initial
        values 0): the engine passes the rows that neither the stimulus
        nor a gate writes.  Every other row holds whatever the previous
        batch left — the engine writes the input slab whole and the walk
        each gate-output row in full before anything reads it (the row
        contract of :meth:`ComputeBackend.run_levels`).
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
        times[rows] = INF
        initial[rows] = 0
        return times, initial


@dataclass(frozen=True)
class _Batch:
    """What one trip through the level loop works on.

    Built once per run over the whole slot plane.  Memory-budget
    batching, the partitioners and overflow recovery only narrow it
    (:meth:`take`), and recovery regrows what it narrowed
    (``replace(capacity=...)``), so no argument is threaded through the
    engine's call chain one by one.
    """

    plan: SlotPlan
    #: Per *pattern*, not per slot: a slot reads the rows of its
    #: ``plan.pattern_indices`` entry, so narrowing a batch moves none.
    v1: np.ndarray                    # (P, inputs) launch values
    toggles: np.ndarray               # (P, inputs) launched transitions
    global_slots: np.ndarray          # (S,) full-plane index (die factors)
    kernel_table: Optional[object]    # delay source; None: nominal delays
    variation: Optional["ProcessVariation"]
    capacity: int
    #: Per-voltage delays depend only on (gates, distinct voltages) —
    #: the cache survives capacity-doubling retries and budget splits,
    #: so overflow recovery re-evaluates a delay model only for a
    #: voltage set it has not seen.
    delay_cache: Optional[Dict]
    rows: Optional[np.ndarray]        # capture rows; None: every real net
    #: The consumers of the batch's slots: a batch that reaches the
    #: arena whole is extracted once per segment, into a list of
    #: planes.  A subset has no segments.
    segments: Optional[Segments]
    stats: EngineStats
    #: The run captures a base or names segments: its answer must not
    #: share payload with a delta base (see :meth:`GpuWaveSim._splice`).
    private: bool = False

    def take(self, slots: np.ndarray,
             plan: Optional[SlotPlan] = None) -> "_Batch":
        """The same batch over a subset of its slots (``plan``: the
        sub-plan, when the caller already holds it); the per-pattern
        rows are shared."""
        return replace(self, plan=plan or self.plan.take(slots),
                       global_slots=self.global_slots[slots], segments=None)


#: What a batch's trip through the engine answers: one plane, or — for
#: a batch that kept its segments all the way into
#: :meth:`GpuWaveSim._execute` — one private plane per segment.  A batch
#: handed an :data:`_Into` writes its answer there and returns ``None``.
_Answer = Union[WaveformPlane, List[WaveformPlane], None]

#: Where a batch writes its answer in place: the canvas of the batch
#: being assembled and, per slot of this (sub-)batch, its column there.
_Into = Optional[Tuple[PlaneCanvas, np.ndarray]]


def _narrow(batch: _Batch, delta: Optional[DeltaPlan], slots: np.ndarray,
            plan: Optional[SlotPlan] = None
            ) -> Tuple[_Batch, Optional[DeltaPlan]]:
    """A batch and its delta plan over ``slots`` — an ascending subset,
    so one as long as the batch is the batch itself."""
    if slots.size == batch.plan.num_slots:
        return batch, delta
    return (batch.take(slots, plan),
            delta.take(slots) if delta is not None else None)


#: How a slot subset is answered (the second half of a :func:`_lower`
#: pair).  DENSE and TRACKED reach the level loop — with no mask and a
#: mask grown from the input toggles; QUIET and SPLICE never touch the
#: arena.
DENSE, TRACKED, QUIET, SPLICE = "dense", "tracked", "quiet", "splice"


def _lower(toggles: np.ndarray, prune: bool, delta: Optional[DeltaPlan],
           patterns: Optional[np.ndarray] = None
           ) -> List[Tuple[np.ndarray, str]]:
    """Partition a batch into ``(slot subset, lowering)`` pairs.

    ``toggles`` are the launched transitions per pattern row and
    ``patterns`` each slot's row (``None``: row ``s`` is slot ``s``'s).
    Slots a delta plan maps onto its base are spliced whole.  The rest
    are classified by their pattern's input-toggle count: quiet slots
    (no launched transition) settle by truth-table sweep, slots under
    :data:`LANE_TRACK_INPUT_FRACTION` of the inputs run lane-tracked,
    the others dense — everything dense when pruning is off.  Each
    slot's class depends only on its own stimulus and mapping, so the
    evaluated / skipped / spliced accounting is invariant across
    backends and slot-plane chunkings.  Empty subsets are dropped.
    """
    num_slots = toggles.shape[0] if patterns is None else patterns.size
    slots = np.arange(num_slots)
    parts: List[Tuple[np.ndarray, str]] = []
    if delta is not None:
        mapped = delta.base_slot >= 0
        parts = [(np.flatnonzero(mapped), SPLICE)]
        slots = np.flatnonzero(~mapped)
    if not prune:
        parts.insert(0, (slots, DENSE))
    elif slots.size:
        active = np.count_nonzero(toggles, axis=1)
        if patterns is not None:
            active = active[patterns]
        active = active[slots]
        quiet = active == 0
        tracked = ~quiet & (active < LANE_TRACK_INPUT_FRACTION
                            * toggles.shape[1])
        parts = [(slots[tracked], TRACKED),
                 (slots[~quiet & ~tracked], DENSE),
                 (slots[quiet], QUIET)] + parts
    return [(subset, lowering) for subset, lowering in parts if subset.size]


def _check_delta(delta: DeltaPlan, plan: SlotPlan, v1: np.ndarray,
                 v2: np.ndarray, global_slots: np.ndarray, variation,
                 num_nets: int) -> None:
    """Refuse a delta plan the splice would answer wrongly: a mapped
    slot is answered with its base slot's waveforms, so it must match
    that slot exactly — stimulus rows, voltage and, under ``variation``
    (die factors follow the global slot), global slot."""
    base = delta.base
    if delta.base_slot.shape != (plan.num_slots,):
        raise SimulationError("delta plan must map every plan slot")
    if base.num_nets != num_nets or base.v1.shape[1] != v1.shape[1]:
        raise SimulationError(
            "delta base arena belongs to a different circuit")
    if delta.base_slot.size and (
            int(delta.base_slot.max()) >= base.num_slots):
        raise SimulationError("delta plan references a missing base slot")
    slots = np.flatnonzero(delta.base_slot >= 0)
    cols = delta.base_slot[slots]
    patterns = plan.pattern_indices[slots]
    differs = ((v1[patterns] != base.v1[cols]).any(axis=1)
               | (v2[patterns] != base.v2[cols]).any(axis=1)
               | (plan.voltages[slots] != base.voltages[cols]))
    if variation is not None:
        differs |= global_slots[slots] != base.global_slots[cols]
    if differs.any():
        slot = int(slots[np.argmax(differs)])
        raise SimulationError(
            f"delta plan maps slot {slot} onto base slot "
            f"{int(delta.base_slot[slot])}, whose stimulus rows, voltage "
            f"or global slot differ")


class GpuWaveSim:
    """Massively parallel waveform simulator (NumPy-SIMT).

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
    ) -> None:
        self.config = config or SimulationConfig()
        self.compiled = compiled or compile_circuit(circuit, library, annotation, loads)
        self.memory_budget = memory_budget
        self.backend: ComputeBackend = resolve_backend(self.config.backend)
        self.last_stats: Optional[EngineStats] = None
        #: Demotion steps taken over the engine's lifetime (see
        #: ``_absorb_kernel_fault``); per-run steps live on the stats.
        self.demotions: List[str] = []
        self._kernel_faults = 0
        #: Large batches start at :data:`COMPACT_CAPACITY` until a
        #: compact walk re-runs too many of its slots
        #: (:data:`COMPACT_RETRY_DIVISOR`).
        self._compact = True
        self._arena_pool = _ArenaPool()
        # The per-level compacted plans; resolved lazily (and
        # fingerprint-cached across engines/services) on first use.
        self._plans = None
        # Result rows: every real net (arena rows are already in
        # net_index order) or just the primary outputs.  Each set's
        # names, {net: row} index and names CRC are built here once and
        # handed to every plane the engine constructs.
        self._all_keys = net_keys(self.compiled.result_nets(True))
        self._output_keys = net_keys(self.compiled.result_nets(False))
        self._output_ids = np.asarray(
            [self.compiled.net_index[net]
             for net in self._output_keys["nets"]], dtype=np.int64)
        self._result_rows = (None if self.config.record_all_nets
                             else self._output_ids)
        # The stimulus rows: compile_circuit numbers the primary inputs
        # first (``input_net_ids`` is ``arange``), so a batch writes
        # them as one contiguous slab.
        self._inputs = slice(0, self.compiled.input_net_ids.size)
        # Arena rows neither a gate nor the stimulus writes (the dummy
        # net, any net nothing drives): all a batch has to reset, every
        # other row being written in full by the lane that owns it.
        undriven = np.ones(self.compiled.num_nets + 1, dtype=bool)
        undriven[self.compiled.gate_output] = False
        undriven[self._inputs] = False
        self._reset_rows = np.flatnonzero(undriven)

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
        segments: Optional[Segments] = None,
    ) -> SimulationResult:
        """Simulate a slot plane.

        Parameters
        ----------
        pairs:
            The stimuli referenced by the plan's pattern indices.
        plan:
            Slot plane; defaults to all pairs at the single ``voltage``.
        kernel_table:
            Compiled polynomial delay kernels, or any delay model
            offering ``delays_for_gates`` (LUT, analytical).  ``None``
            selects static (nominal SDF) delays — the baseline [25]
            configuration; plans spanning several voltages then raise,
            because static delays cannot differentiate operating
            points.
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
            slots onto a cached base arena: mapped slots are spliced
            whole out of the base, unmapped slots are simulated like
            any slot.  A mapped slot must match its base slot exactly
            — stimulus rows, voltage and, under ``variation``, global
            slot — or the run raises :class:`SimulationError` naming
            it.  Results are bit-identical to ``delta=None``.  A plan
            mapping slot ``s`` onto base slot ``s`` for every base slot
            answers by reference when the run neither captures a base
            nor names ``segments``: the result is the base's plane
            itself (``record_all_nets``) or a row view over its payload
            (outputs only).  Every other delta result is private.
        capture_base:
            Capture this run's full waveform state as a
            :class:`~repro.simulation.delta.BaseArena` on
            ``result.base_arena`` so later jobs can delta against it.
        segments:
            The consumers sharing this plane
            (:class:`~repro.simulation.grid.Segments`: the jobs of a
            service batch; not with ``capture_base``).  A plane that
            goes through the arena as one batch is then unpacked once
            per segment: ``result.segments`` holds each segment's
            private result plane.  When the plane is partitioned on the
            way (memory-budget batches, a mixed lowering, an overflow
            re-chunk) ``result.segments`` is ``None`` and ``waveforms``
            covers the whole plane as without ``segments``.
        """
        if not pairs:
            raise SimulationError("need at least one pattern pair")
        plan = plan or SlotPlan.uniform(len(pairs), voltage)
        if int(plan.pattern_indices.max()) >= len(pairs):
            raise SimulationError("slot plan references missing pattern index")
        if global_slots is None:
            global_slots = np.arange(plan.num_slots, dtype=np.int64)
        else:
            global_slots = np.array(global_slots, dtype=np.int64)
            if global_slots.shape != (plan.num_slots,):
                raise SimulationError(
                    "global_slots must provide one index per plan slot"
                )
            if global_slots.size and int(global_slots.min()) < 0:
                raise SimulationError("global_slots must be non-negative")
        if segments is not None:
            if segments.num_slots != plan.num_slots:
                raise SimulationError("segments must cover the plan's slots")
            if capture_base:
                raise SimulationError(
                    "segments cannot be combined with capture_base")
        if kernel_table is None and plan.distinct_voltages().size > 1:
            raise SimulationError(
                "static delay mode cannot differentiate operating points; "
                "pass a kernel_table for voltage-aware simulation"
            )
        if (isinstance(kernel_table, DelayKernelTable)
                and self.compiled.max_pins > kernel_table.max_pins):
            raise SimulationError(
                f"gates have {self.compiled.max_pins} pins but the "
                f"kernel table holds {kernel_table.max_pins}"
            )

        v1 = np.array([p.v1 for p in pairs])
        v2 = np.array([p.v2 for p in pairs])
        if v1.shape[1] != len(self.compiled.circuit.inputs):
            raise SimulationError("pattern width does not match circuit inputs")
        if delta is not None:
            _check_delta(delta, plan, v1, v2, global_slots, variation,
                         self.compiled.num_nets)

        stats = EngineStats(backend=self.backend.name)
        start = _time.perf_counter()
        # Load stimuli (Fig. 2 step 3): per slot, its pattern pair.
        whole = _Batch(
            plan=plan,
            v1=v1,
            toggles=v1 != v2,
            global_slots=global_slots,
            kernel_table=kernel_table,
            variation=variation,
            capacity=self._start_capacity(plan.num_slots),
            delay_cache={} if kernel_table is not None else None,
            # A captured base needs every net; the wanted rows are then
            # a zero-copy selection of the same plane.
            rows=None if capture_base else self._result_rows,
            segments=segments,
            stats=stats,
            private=capture_base or segments is not None,
        )
        parts: List[_Answer] = []
        # Batches are sized at the capacity the run starts at; each
        # starts at what the engine has learnt by then (a batch sized
        # for compact rows that may not start compact is re-chunked).
        for indices, sub_plan in plan.batches(
                self._max_batch_slots(whole.capacity)):
            stats.batches += 1
            batch, batch_delta = _narrow(whole, delta, indices, sub_plan)
            parts.append(self._run_batch(
                replace(batch, capacity=self._start_capacity(indices.size)),
                batch_delta))
        pack_start = _time.perf_counter()
        base_arena = per_segment = None
        if isinstance(parts[0], list):
            # The plane ran as one arena part; nothing to join or slice.
            per_segment = parts[0]
            result_plane = WaveformPlane.concat(per_segment)
        else:
            result_plane = WaveformPlane.concat(parts)
            if capture_base:
                base_arena = BaseArena(
                    result_plane, v1[plan.pattern_indices],
                    v2[plan.pattern_indices],
                    np.array(plan.voltages, dtype=np.float64), global_slots)
                if not self.config.record_all_nets:
                    result_plane = result_plane.rows(
                        ids=self._output_ids, **self._output_keys)
        stats.pack_seconds += _time.perf_counter() - pack_start
        runtime = _time.perf_counter() - start
        self.last_stats = stats
        mode = "gpu-static" if kernel_table is None else "gpu-parametric"
        sparse = ",sparse" if self.config.prune_inactive else ""
        delta_tag = ",delta" if stats.lanes_spliced else ""
        demoted = "".join(f",demoted:{step}" for step in stats.demotions)
        return SimulationResult(
            circuit_name=self.compiled.circuit.name,
            slot_labels=plan,
            waveforms=result_plane,
            runtime_seconds=runtime,
            gate_evaluations=stats.gate_evaluations,
            engine=f"{mode}[{self.backend.name}{sparse}{delta_tag}{demoted}]",
            base_arena=base_arena,
            segments=per_segment,
        )

    # -- batching, retries, lowering -----------------------------------------------

    def _max_batch_slots(self, capacity: int) -> int:
        per_slot = (self.compiled.num_nets + 1) * capacity * 8
        return max(4, int(self.memory_budget // max(per_slot, 1)))

    def _start_capacity(self, num_slots: int) -> int:
        """The capacity a batch of ``num_slots`` first runs at:
        ``config.waveform_capacity``, or :data:`COMPACT_CAPACITY` where
        the arena that would take is :data:`COMPACT_MIN_BYTES` large."""
        configured = self.config.waveform_capacity
        if self._compact and configured > COMPACT_CAPACITY:
            slots = min(num_slots, self._max_batch_slots(configured))
            arena = (self.compiled.num_nets + 1) * slots * configured * 8
            if arena >= COMPACT_MIN_BYTES:
                return COMPACT_CAPACITY
        return configured

    def _run_batch(self, batch: _Batch, delta: Optional[DeltaPlan],
                   into: _Into = None) -> _Answer:
        """One memory-budget batch — or the flagged slots of one, on
        their way back from :meth:`_recover` — through the kernel-fault
        ladder.  Like the two steps below it, it passes on the
        per-segment planes of a batch that kept its segments all the
        way into :meth:`_execute`, and writes into ``into`` when given
        one (a retry rewrites the same columns)."""
        while True:
            try:
                plane = self._run_within_budget(batch, delta, into)
                self._kernel_faults = 0
                return plane
            except Exception as error:  # noqa: BLE001 - demotion ladder
                # A library error other than an injected fault is the
                # deterministic answer to a bad input: retrying or
                # demoting cannot change it.
                if (isinstance(error, ReproError)
                        and not isinstance(error, InjectedFaultError)):
                    raise
                if not self._absorb_kernel_fault(batch.stats):
                    raise

    def _absorb_kernel_fault(self, stats: EngineStats) -> bool:
        """Retry policy for batch failures that may be a kernel fault.

        The batch is retried on the same backend until
        :data:`DEMOTE_AFTER` consecutive faults (a batch that returns
        resets the count), then the backend is demoted one rung (cext →
        numpy) and the counter resets.  Returns False — re-raise — at
        the numpy floor, so total attempts are bounded by
        ``DEMOTE_AFTER × rungs``.  A successful demoted retry leaves the
        engine on the demoted backend: a native kernel that faulted
        repeatedly is not trusted again.
        (:class:`WorkerDeathError` is a ``BaseException`` and never
        reaches this handler — a dead worker is not a kernel fault.)
        """
        self._kernel_faults += 1
        stats.retries += 1
        if self._kernel_faults < DEMOTE_AFTER:
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

    def _run_within_budget(self, batch: _Batch, delta: Optional[DeltaPlan],
                           into: _Into = None) -> _Answer:
        """Run a batch at its capacity, re-chunking first if a grown
        capacity would blow the memory budget (a retried batch is
        re-sized instead of exceeding ``memory_budget`` by the growth
        factor)."""
        max_slots = self._max_batch_slots(batch.capacity)
        if batch.plan.num_slots <= max_slots:
            return self._run_lowered(batch, delta, into)
        chunks = batch.plan.batches(max_slots)
        if into is not None:
            for indices, sub_plan in chunks:
                self._run_lowered(*_narrow(batch, delta, indices, sub_plan),
                                  (into[0], into[1][indices]))
            return None
        return WaveformPlane.concat([
            self._run_lowered(*_narrow(batch, delta, indices, sub_plan))
            for indices, sub_plan in chunks])

    def _run_lowered(self, batch: _Batch, delta: Optional[DeltaPlan],
                     into: _Into = None) -> _Answer:
        """Answer every :func:`_lower` part of a batch.

        A batch that lowers one way to a walk or a splice answers as
        that part stands.  Any other — a quiet or mixed one, or one
        given ``into`` — has its answer written in place: each part
        writes its own columns of one canvas, the walk's unpack and the
        quiet settle straight from the backend, and no part builds a
        plane of its own."""
        parts = _lower(batch.toggles, self.config.prune_inactive, delta,
                       batch.plan.pattern_indices)
        whole = into is None and len(parts) == 1 and parts[0][1] != QUIET
        fresh = into is None and not whole
        if fresh:
            into = self._canvas(batch)
        answer = None
        for subset, lowering in parts:
            sub, sub_delta, target = batch, delta, None
            if not whole:
                sub, sub_delta = _narrow(batch, delta, subset)
                target = (into[0], into[1][subset])
            if lowering == QUIET:
                self._settle(sub, target)
            elif lowering == SPLICE:
                answer = self._splice(sub, sub_delta, target)
            elif lowering == TRACKED:
                mask = np.zeros((self.compiled.num_nets + 1,
                                 sub.plan.num_slots), dtype=bool)
                mask[self._inputs] = sub.toggles[sub.plan.pattern_indices].T
                answer = self._execute(sub, mask, target)
            else:
                answer = self._execute(sub, None, target)
        return self._finish(into[0], batch) if fresh else answer

    def _canvas(self, batch: _Batch) -> Tuple[PlaneCanvas, np.ndarray]:
        """A blank answer over a batch's slots, and their columns."""
        num_slots = batch.plan.num_slots
        width = len(self._keys_of(batch.rows)["nets"])
        return PlaneCanvas(width, num_slots), np.arange(num_slots)

    def _finish(self, canvas: PlaneCanvas, batch: _Batch) -> WaveformPlane:
        """The plane of a batch answer written in place."""
        pack_start = _time.perf_counter()
        plane = canvas.plane(**self._keys_of(batch.rows))
        batch.stats.pack_seconds += _time.perf_counter() - pack_start
        return plane

    def _keys_of(self, rows: Optional[np.ndarray]) -> dict:
        """The plane-constructor keywords (:func:`net_keys`) of a
        capture-row choice."""
        return self._all_keys if rows is None else self._output_keys

    def _level_plans(self):
        if self._plans is None:
            self._plans = self.compiled.plans()
        return self._plans

    # -- lowerings that never touch the arena ----------------------------------------

    def _settle(self, batch: _Batch, into: _Into) -> None:
        """Quiet slots (no launched transition on any input): their
        settled values fill the ``initial`` columns of ``into`` alone —
        the whole answer of a toggle-free slot, its counts staying 0 —
        and every slot counts ``num_gates`` skipped lanes.

        One settle per *pattern* the slots name, with no waveform arena
        (:meth:`ComputeBackend.settle`): with zero input toggles every
        merge degenerates to the same table lookup, so it matches what
        dense evaluation produces bit for bit.  Only the captured rows
        are unpacked, straight into their columns.
        """
        compiled = self.compiled
        stats = batch.stats
        stats.lanes_skipped += compiled.num_gates * batch.plan.num_slots
        pack_start = _time.perf_counter()
        patterns, vectors = np.unique(batch.plan.pattern_indices,
                                      return_inverse=True)
        self.backend.settle(self._level_plans(), batch.v1, patterns,
                            compiled.num_nets, batch.rows, vectors,
                            into[0].initial, into[1])
        stats.pack_seconds += _time.perf_counter() - pack_start

    def _splice(self, batch: _Batch, delta: DeltaPlan,
                into: _Into = None) -> Optional[WaveformPlane]:
        """Slots mapped onto a base slot (which they match exactly):
        their columns come straight out of the base plane and every
        lane counts as ``lanes_spliced``.

        Slots that map onto the base slot-for-slot (``base_slot`` is
        ``0 .. base.num_slots - 1``) in a run whose answer may share a
        base's payload (not ``batch.private``), and make up the whole
        batch (no ``into``), are answered by
        reference — the base plane itself, or its zero-copy
        :meth:`~repro.waveform.plane.WaveformPlane.rows` view over the
        outputs — the aliasing a capturing run already has between its
        result and ``result.base_arena``.  Any other splice gathers a
        private plane, which a batch that splices only some of its slots
        writes to its columns of ``into``.
        """
        compiled = self.compiled
        stats = batch.stats
        pack_start = _time.perf_counter()
        base = delta.base.plane
        cols = delta.base_slot
        source = (base if batch.rows is None
                  else base.rows(ids=batch.rows, **self._output_keys))
        if not batch.private and into is None and np.array_equal(
                cols, np.arange(base.num_slots)):
            plane, counts = source, base.counts
        else:
            plane, counts = source.take(cols), base.counts[:, cols]
        stats.lanes_spliced += compiled.num_gates * int(cols.size)
        stats.bytes_spliced += (int(counts.sum()) * 8
                                + compiled.num_nets * int(cols.size))
        if into is not None:
            into[0].put(into[1], plane.initial, plane.counts, plane.starts,
                        plane.times)
            plane = None
        stats.pack_seconds += _time.perf_counter() - pack_start
        return plane

    # -- the level loop -------------------------------------------------------------

    def _execute(self, batch: _Batch, mask: Optional[np.ndarray] = None,
                 into: _Into = None) -> _Answer:
        """The one level loop: arena, delay source, levels, extract.

        ``mask`` is the per-(net, slot) activity plane handed to the
        one ``backend.run_levels`` call; ``None`` runs every lane of
        every level.  With a mask only lanes with an active input net
        are dispatched; the others get their settled value by
        truth-table lookup and count as ``lanes_skipped``, and the mask
        *grows*: after each level a net is active iff its lane kept at
        least one toggle.  The lane *accounting* is derived from the
        mask alone, so it is invariant across backends and slot-plane
        chunkings.  Masked or not, the walk writes every gate-output
        row (a skipped lane an all-``+inf`` one) and the stimulus the
        input slab, so only the rows neither writes need a reset.

        A slot with a lane that overflowed comes back flagged; its
        column of the arena is garbage and :meth:`_recover` re-runs it.
        Given ``into``, the unpack writes the batch's columns there.
        """
        compiled = self.compiled
        stats = batch.stats
        capacity = batch.capacity
        num_slots = batch.plan.num_slots
        inertial = self.config.pulse_filtering == "inertial"
        plans = self._level_plans()

        # Waveform memory: (nets + dummy, slots, capacity) toggle times,
        # pooled per engine.
        times_all, initial_all = self._arena_pool.acquire(
            compiled.num_nets + 1, num_slots, capacity, self._reset_rows)
        # The stimulus (Fig. 2 step 3) fills the input slab whole,
        # gathered per slot from its pattern's rows.
        patterns = batch.plan.pattern_indices
        initial_all[self._inputs] = batch.v1[patterns].T
        stimulus = times_all[self._inputs]
        stimulus.fill(INF)
        np.copyto(stimulus[:, :, 0], LAUNCH_TIME,
                  where=batch.toggles[patterns].T)

        # Delay source.  Parallel instances share delay-function calls:
        # each distinct voltage is evaluated once and broadcast to its
        # slots.  The polynomial table is evaluated in-kernel from the
        # plan-cached predictor normalizations (phi_V, phi_C); any other
        # delay model is precomputed into a per-voltage delay table;
        # nominal delays are the backend's one-column default table.
        distinct_v, slot_to_v = np.unique(batch.plan.voltages,
                                          return_inverse=True)
        slot_to_v = np.ascontiguousarray(slot_to_v, dtype=np.int64)
        table = nv = delays = None
        if isinstance(batch.kernel_table, DelayKernelTable):
            table = batch.kernel_table
            nv = plans.normalized_voltages(table.space, distinct_v)
        elif batch.kernel_table is not None:
            delays = self._delay_table(batch, distinct_v)

        # Monte-Carlo die samples: per-gate, per-slot delay factors.
        factors = None
        if batch.variation is not None:
            factors = batch.variation.factors(compiled.num_gates,
                                              batch.global_slots)

        # Level-wise processing (the vertical grid dimension).
        faults.trip("backend.run_levels")
        merge_start = _time.perf_counter()
        result = self.backend.run_levels(
            plans, times_all, initial_all, slot_to_v, factors, capacity,
            inertial, kernel_table=table, nv=nv,
            delay_cache=batch.delay_cache, delays=delays, mask=mask)
        stats.record_walk(result, _time.perf_counter() - merge_start,
                          capacity)
        flagged = np.flatnonzero(result.overflow_slots)
        if flagged.size:
            return self._recover(batch, mask, flagged, times_all,
                                 initial_all, into)
        if into is not None:
            return self._extract(times_all, initial_all, batch.rows, None,
                                 stats, into)
        if batch.segments is None:
            return self._extract(times_all, initial_all, batch.rows, None,
                                 stats)[0]
        return self._extract(times_all, initial_all, batch.rows,
                             batch.segments.bounds, stats)

    def _recover(self, batch: _Batch, mask: Optional[np.ndarray],
                 flagged: np.ndarray, times_all: np.ndarray,
                 initial_all: np.ndarray, into: _Into = None) -> _Answer:
        """Overflow recovery — the only one: the ``flagged`` slots of
        the walk :meth:`_execute` just made are re-run at a grown
        capacity and joined with the healthy columns of its arena.

        The answer is written in place: the walk's unpack writes its
        healthy columns of ``into`` — or of a canvas over the batch —
        and leaves the flagged ones out, and the re-run writes those
        the same way — no gather, no re-sort, no block written twice.

        Slots are independent simulations, so being wrong about the
        capacity costs the slots that were wrong.  The flagged slots'
        first attempt is taken back out of the lane counters — every
        lane of it unmasked; under a mask the lanes with an active
        input net, which the mask as the walk left it still tells
        exactly, each net's byte being written once — so the counters
        count every lane of the answer once, whatever overflowed, and
        the discarded work shows as ``retries`` / ``slots_retried``.
        """
        stats = batch.stats
        capacity = batch.capacity
        num_slots = batch.plan.num_slots
        if not self.config.grow_on_overflow or capacity >= MAX_CAPACITY:
            labels = batch.plan.labels()
            named = ", ".join(
                f"{int(batch.global_slots[slot])} {labels[slot]}"
                for slot in flagged[:4])
            raise WaveformOverflowError(
                f"{flagged.size} of {num_slots} slots exceeded capacity "
                f"{capacity}: plane slot (pattern, voltage) {named}"
                + (", ..." if flagged.size > 4 else ""))
        if (capacity < self.config.waveform_capacity
                and flagged.size * COMPACT_RETRY_DIVISOR > num_slots):
            self._compact = False
        lanes = self.compiled.num_gates * flagged.size
        evaluated = lanes if mask is None else int(np.count_nonzero(
            mask[:, flagged][self._level_plans().concat().in_ids]
            .any(axis=1)))
        stats.count_lanes(-evaluated, evaluated - lanes)
        stats.retries += 1
        stats.slots_retried += int(flagged.size)
        grown = replace(batch, capacity=max(capacity * 2,
                                            self.config.waveform_capacity))
        if flagged.size == num_slots:
            return self._run_batch(grown, None, into)
        fresh = into is None
        if fresh:
            into = self._canvas(batch)
        # Unpack before the re-run reuses the pooled arena.
        healthy = into[1].copy()
        healthy[flagged] = -1
        self._extract(times_all, initial_all, batch.rows, None, stats,
                      (into[0], healthy))
        self._run_batch(grown.take(flagged), None,
                        (into[0], into[1][flagged]))
        if not fresh:
            return None
        plane = self._finish(into[0], batch)
        if batch.segments is not None:
            # Re-cut what a clean walk would have unpacked per segment.
            pack_start = _time.perf_counter()
            bounds = batch.segments.bounds
            plane = [plane.take(np.arange(lo, hi))
                     for lo, hi in zip(bounds, bounds[1:])]
            stats.pack_seconds += _time.perf_counter() - pack_start
        return plane

    def _delay_table(self, batch: _Batch, distinct_v: np.ndarray
                     ) -> np.ndarray:
        """The ``(num_gates, P, 2, V)`` pin-to-pin delays of a delay
        model that offers only ``delays_for_gates``, per distinct
        voltage, in concatenated plan-row order — memoized per voltage
        set, so overflow retries and re-chunked batches reuse it."""
        key = ("table", distinct_v.tobytes())
        delays = batch.delay_cache.get(key)
        if delays is None:
            compiled = self.compiled
            delay_start = _time.perf_counter()
            gates = self._level_plans().concat().gate_indices
            delays = batch.delay_cache[key] = np.ascontiguousarray(
                self.backend.delays_for_gates(
                    batch.kernel_table, compiled.gate_type_ids[gates],
                    compiled.gate_loads[gates],
                    compiled.nominal_delays[gates], distinct_v))
            batch.stats.delay_seconds += _time.perf_counter() - delay_start
        return delays

    def _extract(self, times_all: np.ndarray, initial_all: np.ndarray,
                 rows: Optional[np.ndarray], bounds: Optional[Sequence[int]],
                 stats: EngineStats, into: _Into = None
                 ) -> Optional[List[WaveformPlane]]:
        """Waveform analysis (Fig. 2 step 4): copy the wanted rows out
        of the pooled arena, one private packed plane per slot segment
        of ``bounds`` (``None``: one plane over every slot) — or, given
        ``into``, every slot to its column there (none with column
        ``-1``)."""
        pack_start = _time.perf_counter()
        if into is not None:
            planes = self.backend.extract_columns(times_all, initial_all,
                                                  rows, into[1], into[0])
        else:
            planes = self.backend.extract(times_all, initial_all, rows=rows,
                                          bounds=bounds,
                                          **self._keys_of(rows))
        stats.pack_seconds += _time.perf_counter() - pack_start
        return planes
