"""Pluggable compute backends for the hot simulation kernels.

The engine's inner loops — the waveform-merge kernel and the online
delay calculation (polynomial Horner evaluation, Sec. IV-A) — exist in
two implementations behind one interface:

* ``numpy``  — the vectorized lockstep port and the reference (always
  available).  All lanes of a thread group advance through their event
  streams together; a single long-waveform lane keeps every live lane
  iterating (mitigated, but not removed, by live-set compaction).
* ``cext``   — per-lane scalar loops (each lane runs its own event loop
  to exhaustion, the shape GATSPI demonstrates for gate-level SIMT
  throughput) as portable C99, compiled on first use with the system C
  compiler (OpenMP-parallel) and loaded through :mod:`ctypes`.
  Includes a native Horner evaluator for
  :meth:`DelayKernelTable.delays_for_gates`.
* ``auto``   — the best available: cext, else numpy.  Never an import
  error.

Selection order: explicit :attr:`SimulationConfig.backend` (e.g. from
the ``--backend`` CLI flag), else the ``REPRO_BACKEND`` environment
variable, else ``auto``.

Equivalence guarantee: every backend implements the exact per-lane
algorithm of :func:`~repro.simulation.kernels.waveform_merge_kernel`
with identical IEEE-754 operation order, so results are **bit-identical**
across backends (asserted in ``tests/simulation/test_backend.py``).

Adding a backend: subclass :class:`ComputeBackend` and implement three
arena methods — :meth:`~ComputeBackend.run_levels`, every level of a
batch with an optional activity mask, the one call the engine's level
loop makes, :meth:`~ComputeBackend.extract`, the unpack of the
finished arena into packed result planes, one per slot segment, and
:meth:`~ComputeBackend.extract_columns`, the same unpack into the
columns of a batch answer written in place — plus
:meth:`~ComputeBackend.settle`, the truth-table settle behind quiet
slots.  The base class has numpy ``extract``, ``extract_columns`` and
``settle``, and a backend without a whole-batch entry implements
:meth:`~ComputeBackend.run_level` (one level, dense or restricted to a
lane list) instead and inherits the base-class ``run_levels``: the
per-level Python loop.  Those base-class implementations are also the
references every native one is tested against
(``tests/simulation/test_walk.py``, ``tests/simulation/test_extract.py``).
All honour the row contract documented on ``run_levels`` and take the
same three delay sources (nominal, polynomial table, precomputed delay
table).  ``merge_kernel`` (lane-oriented, used by micro-benchmarks and
as the ``merge_single`` oracle's counterpart) and a native
``delays_for_gates`` are optional.
Then add a loader branch to :func:`_load`, the name to
:data:`BACKEND_CHOICES` and its place in :data:`AUTO_ORDER` /
:data:`DEMOTION_ORDER`.
"""

from __future__ import annotations

import os
import time as _time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.simulation.kernels import MergeResult, waveform_merge_kernel
from repro.waveform.plane import PlaneCanvas, WaveformPlane, _packed_starts

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.compiled import CircuitPlans, LevelPlan

__all__ = [
    "BACKEND_CHOICES",
    "AUTO_ORDER",
    "DEMOTION_ORDER",
    "ComputeBackend",
    "GroupResult",
    "LevelsResult",
    "NumpyBackend",
    "available_backends",
    "backend_status",
    "demote_backend",
    "resolve_backend",
]

#: Valid values for ``SimulationConfig.backend`` / ``REPRO_BACKEND``.
BACKEND_CHOICES = ("auto", "numpy", "cext")

#: Preference order tried by ``auto``.
AUTO_ORDER = ("cext", "numpy")

#: Environment variable consulted when no explicit backend is configured.
ENV_VAR = "REPRO_BACKEND"

INF = np.float64(np.inf)

#: The reference level loop (:meth:`ComputeBackend.run_levels`)
#: dispatches a masked level lane-compacted only when its active lane
#: share is below this fraction; above it the dense kernel is cheaper (a
#: toggle-free lane settles in about one event-loop iteration, while
#: compaction pays index bookkeeping per lane).  The dispatch choice
#: never affects results or the evaluated/skipped lane accounting — both
#: are derived from the activity mask alone.  A native walk decides per
#: lane and has no such threshold.
SPARSE_DISPATCH_FRACTION = 0.5


@dataclass
class GroupResult:
    """Outcome of one arena-level thread-group evaluation."""

    lanes: int            # gate instances evaluated (gates × slots)
    iterations: int       # kernel loop trips (diagnostics; see note below)
    overflow_lanes: int   # lanes that exceeded the waveform capacity
    #: The slots those lanes belong to (indices, ascending).
    overflow_slots: np.ndarray
    #: Seconds spent materializing per-voltage delay arrays inside the
    #: call (numpy ``run_level`` only; the per-lane backend evaluates
    #: the Horner kernel inside the merge loop, so its delay work is
    #: inseparable from — and reported as — merge time).
    delay_seconds: float = 0.0

    # Note: the numpy backend reports global lockstep iterations, the
    # per-lane backend reports the summed per-lane event count — both
    # measure kernel work, on different axes.


@dataclass
class LevelsResult:
    """Outcome of a whole-batch :meth:`ComputeBackend.run_levels` call.

    ``lanes`` counts the dispatched lanes, ``lanes_skipped`` the
    masked-out ones and ``kernel_calls`` the levels that dispatched at
    least one lane.  All three are functions of the activity mask alone
    — without a mask every lane of every non-empty level is dispatched
    — so they agree across backends however a backend chooses to run a
    level.  ``overflow_slots`` is the ``(S,)`` uint8 plane of the call:
    nonzero where a lane of the slot did not fit its row — those
    columns of the arena are not an answer, every other one is.
    """

    lanes: int
    iterations: int
    overflow_lanes: int
    kernel_calls: int
    overflow_slots: np.ndarray
    lanes_skipped: int = 0
    delay_seconds: float = 0.0


class ComputeBackend:
    """Interface shared by all kernel implementations."""

    name = "?"

    #: Which implementation actually executes :meth:`delays_for_gates`.
    #: The base class evaluates through numpy; backends with a native
    #: Horner evaluator override this so benchmarks and logs record the
    #: real execution path instead of a silent fallback.
    delays_impl = "numpy"

    def merge_kernel(
        self,
        input_times: np.ndarray,
        input_initial: np.ndarray,
        delays: np.ndarray,
        truth_tables: np.ndarray,
        out_capacity: int,
        inertial: bool = True,
    ) -> MergeResult:
        """Lane-oriented merge: same contract as
        :func:`~repro.simulation.kernels.waveform_merge_kernel`."""
        raise NotImplementedError

    def merge_group(
        self,
        times_all: np.ndarray,
        initial_all: np.ndarray,
        in_ids: np.ndarray,
        out_ids: np.ndarray,
        per_voltage: np.ndarray,
        slot_to_v: np.ndarray,
        factors: Optional[np.ndarray],
        truth_tables: np.ndarray,
        capacity: int,
        inertial: bool,
    ) -> GroupResult:
        """Lockstep evaluation of one thread group against the arena:
        gather the group's input rows, run
        :func:`~repro.simulation.kernels.waveform_merge_kernel`, scatter
        the output rows.  The helper the numpy :meth:`run_level` is
        built from; it has exactly this one implementation.

        Parameters
        ----------
        times_all, initial_all:
            The ``(nets, slots, capacity)`` toggle-time arena and the
            ``(nets, slots)`` initial values.  Inputs are read from and
            outputs written to these arrays in place.
        in_ids:
            ``(g, k)`` input net ids per gate of the group.
        out_ids:
            ``(g,)`` output net ids.
        per_voltage:
            ``(g, k, 2, V)`` pin-to-pin delays per *distinct* voltage.
        slot_to_v:
            ``(S,)`` index of each slot's voltage into the ``V`` axis.
        factors:
            Optional ``(g, S)`` Monte-Carlo delay factors.
        truth_tables:
            ``(g,)`` int64 truth tables.

        A lane that overflows leaves a quiet row — all ``+inf`` behind
        its settled initial value — and its slot in the result's
        ``overflow_slots`` (the quiet-row rule of :meth:`run_levels`).
        """
        group_size, arity = in_ids.shape
        num_slots = slot_to_v.size
        lanes = group_size * num_slots

        # Gather inputs: (g, k, S, C) -> (k, g*S, C).
        input_times = times_all[in_ids].transpose(1, 0, 2, 3).reshape(
            arity, lanes, capacity
        )
        input_initial = initial_all[in_ids].transpose(1, 0, 2).reshape(
            arity, lanes
        )

        delays = per_voltage[..., slot_to_v]                     # (g, k, 2, S)
        if factors is not None:
            delays = delays * factors[:, None, None, :]
        delays = np.ascontiguousarray(delays.transpose(1, 2, 0, 3)).reshape(
            arity, 2, lanes
        )
        lane_tables = np.repeat(truth_tables, num_slots)

        merged = waveform_merge_kernel(input_times, input_initial, delays,
                                       lane_tables, capacity,
                                       inertial=inertial)
        merged.times[merged.overflow] = INF
        times_all[out_ids] = merged.times.reshape(group_size, num_slots,
                                                  capacity)
        initial_all[out_ids] = merged.initial.reshape(group_size, num_slots)
        return GroupResult(
            lanes=lanes, iterations=merged.iterations,
            overflow_lanes=int(merged.overflow.sum()),
            overflow_slots=np.flatnonzero(
                merged.overflow.reshape(group_size, num_slots).any(axis=0)))

    def merge_group_sparse(
        self,
        times_all: np.ndarray,
        initial_all: np.ndarray,
        in_ids: np.ndarray,
        out_ids: np.ndarray,
        per_voltage: np.ndarray,
        slot_to_v: np.ndarray,
        factors: Optional[np.ndarray],
        truth_tables: np.ndarray,
        capacity: int,
        inertial: bool,
        lane_gates: np.ndarray,
        lane_slots: np.ndarray,
    ) -> GroupResult:
        """Lane-compacted variant of :meth:`merge_group`.

        Instead of the dense ``gates × slots`` plane, only the lanes
        listed in ``lane_gates`` / ``lane_slots`` — parallel ``(i,)``
        index arrays into the group's gate axis and the slot axis — are
        evaluated; results for them are bit-identical to a dense
        :meth:`merge_group` call, quiet rows of overflowing lanes
        included.  Output rows of undispatched lanes are left
        untouched.
        """
        lanes = int(lane_gates.size)

        # Gather only the active lanes: (lanes, k, C) -> (k, lanes, C).
        lane_nets = in_ids[lane_gates]                           # (lanes, k)
        input_times = np.ascontiguousarray(
            times_all[lane_nets, lane_slots[:, None]].transpose(1, 0, 2))
        input_initial = np.ascontiguousarray(
            initial_all[lane_nets, lane_slots[:, None]].T)       # (k, lanes)

        delays = per_voltage[lane_gates, :, :, slot_to_v[lane_slots]]
        if factors is not None:                                  # (lanes, k, 2)
            delays = delays * factors[lane_gates, lane_slots][:, None, None]
        delays = np.ascontiguousarray(delays.transpose(1, 2, 0))  # (k, 2, lanes)
        lane_tables = truth_tables[lane_gates]

        merged = waveform_merge_kernel(input_times, input_initial, delays,
                                       lane_tables, capacity,
                                       inertial=inertial)
        merged.times[merged.overflow] = INF
        times_all[out_ids[lane_gates], lane_slots] = merged.times
        initial_all[out_ids[lane_gates], lane_slots] = merged.initial
        return GroupResult(
            lanes=lanes, iterations=merged.iterations,
            overflow_lanes=int(merged.overflow.sum()),
            overflow_slots=np.unique(lane_slots[merged.overflow]))

    def delays_for_gates(self, kernel_table, type_ids, loads, nominal_delays,
                         voltages) -> np.ndarray:
        """Online delay calculation; same contract as
        :meth:`DelayKernelTable.delays_for_gates`."""
        return kernel_table.delays_for_gates(type_ids, loads, nominal_delays,
                                             voltages)

    def run_level(
        self,
        plan: "LevelPlan",
        times_all: np.ndarray,
        initial_all: np.ndarray,
        slot_to_v: np.ndarray,
        factors: Optional[np.ndarray],
        capacity: int,
        inertial: bool,
        kernel_table=None,
        nv: Optional[np.ndarray] = None,
        nc: Optional[np.ndarray] = None,
        delay_cache: Optional[Dict] = None,
        lane_gates: Optional[np.ndarray] = None,
        lane_slots: Optional[np.ndarray] = None,
        delays: Optional[np.ndarray] = None,
    ) -> GroupResult:
        """Evaluate one whole level (all arity groups) in one call —
        the step the reference :meth:`run_levels` loop is built from.

        ``plan`` is the level's compile-time
        :class:`~repro.simulation.compiled.LevelPlan`.  The delay
        source folds into the same entry point:

        * a delay table — ``delays``, ``(g, P, 2, V)`` pin-to-pin
          delays per distinct voltage in plan gate order, column
          ``slot_to_v[slot]`` per lane.  Delay models that offer only
          ``delays_for_gates`` (LUT, analytical) are precomputed into
          one by the engine; with ``delays`` and ``kernel_table`` both
          ``None`` the table is ``plan.nominal`` with ``V = 1`` (static
          mode),
        * the polynomial ``kernel_table`` plus the *pre-normalized*
          predictors — ``nv`` = ``φ_V`` per distinct voltage, ``nc`` =
          ``φ_C`` per plan gate (cached on the plan) — evaluates the
          2-D Horner kernel per (gate, distinct voltage), never per
          lane.  Its pin width must cover the plan's (the engine
          validates once per run),
        * Monte-Carlo ``factors`` (level-local ``(g, S)``, plan gate
          order) scale each delay whatever its source.

        ``lane_gates`` / ``lane_slots`` (plan-local, ``lane_gates``
        non-decreasing) restrict the call to those lanes.
        ``delay_cache`` memoizes materialized per-voltage arrays across
        overflow retries.

        Every dispatched lane writes its *whole* output row — its
        toggles, then ``+inf`` up to ``capacity``; nothing but ``+inf``
        if they did not fit — and its initial value, and reads nothing
        of what the row held before; rows of lanes that are not
        dispatched are left untouched.
        """
        raise NotImplementedError

    def run_levels(
        self,
        plans: "CircuitPlans",
        times_all: np.ndarray,
        initial_all: np.ndarray,
        slot_to_v: np.ndarray,
        factors: Optional[np.ndarray],
        capacity: int,
        inertial: bool,
        kernel_table=None,
        nv: Optional[np.ndarray] = None,
        delay_cache: Optional[Dict] = None,
        delays: Optional[np.ndarray] = None,
        mask: Optional[np.ndarray] = None,
    ) -> LevelsResult:
        """Evaluate the levels of the circuit, in order, each against
        the arena the preceding levels finalized — the one call the
        engine's level loop makes, whatever the batch lowered to.

        ``factors`` is the full ``(num_gates, S)`` Monte-Carlo array
        (circuit gate order); backends gather it into plan order
        themselves.  The delay sources are those of :meth:`run_level`:
        ``delays`` is the ``(num_gates, P, 2, V)`` table in
        concatenated plan-row order (``plans.concat()``); ``nc`` is not
        a parameter — the per-level ``φ_C`` memos live on ``plans``.

        Overflow does not stop the walk.  A lane whose toggles do not
        fit ``capacity`` flags its slot in the call's ``(S,)`` uint8
        plane, ``LevelsResult.overflow_slots``, and its row goes
        *quiet*: all ``+inf`` behind the settled initial value, its
        mask byte cleared, identically in every backend.  The
        levels after it therefore walk a well-formed arena; slots are
        independent simulations, so every column that is not flagged
        is the answer and a flagged column is garbage nobody reads —
        the caller re-runs those slots at a larger capacity.

        ``mask`` is the C-contiguous ``(nets + 1, S)`` bool activity
        plane; ``None`` dispatches every lane.  With a mask a lane is
        dispatched iff one of its input nets is active in its slot, a
        skipped lane only gets its settled initial value, and the mask
        follows the waveforms (lane tracking): after a level an output
        net is active iff its lane was dispatched and kept at least one
        toggle — an all-cancelled lane settles back to quiet — and the
        mask is updated in place.

        Row contract: every dispatched lane writes its *whole* output
        row — its toggles, then ``+inf`` up to ``capacity`` — and its
        initial value, and reads nothing of what the row held before.
        A skipped lane gets an all-``+inf`` row, and so does one that
        overflowed, so a walk has written every gate-output row and
        initial value of the arena in full, whatever they held on
        entry; only rows no gate drives (primary inputs, the dummy net)
        are read as given.

        This base implementation is the per-level Python loop over
        :meth:`run_level`, and the reference a native whole-batch walk
        is tested against (``tests/simulation/test_walk.py``).  How it
        dispatches a masked level depends on the active share:
        mostly-quiet levels hand :meth:`run_level` a compacted lane
        list, mostly-active ones run whole
        (:data:`SPARSE_DISPATCH_FRACTION`; a skipped lane has no input
        toggle, so evaluating it writes the same empty row).  Results
        and accounting are bit-identical either way.
        """
        num_slots = int(slot_to_v.size)
        overflow_slots = np.zeros(num_slots, dtype=np.uint8)
        totals = LevelsResult(lanes=0, iterations=0, overflow_lanes=0,
                              kernel_calls=0, overflow_slots=overflow_slots)
        for plan, level_factors, nc, level_delays in plans.level_sources(
                kernel_table, factors, delays):
            active_lanes = total_lanes = plan.num_gates * num_slots
            lane_gates = lane_slots = None
            if mask is not None:
                lane_active = mask[plan.in_ids].any(axis=1)       # (g, S)
                active_lanes = int(np.count_nonzero(lane_active))
                totals.lanes_skipped += total_lanes - active_lanes
                if active_lanes < total_lanes * SPARSE_DISPATCH_FRACTION:
                    # Settle every lane's output from the input initial
                    # values — the same table lookup the kernel performs
                    # before its event loop, so dispatched lanes just
                    # rewrite the same byte.
                    _settle_level(plan, initial_all)
                    times_all[plan.out_ids] = INF
                    mask[plan.out_ids] = False
                    if active_lanes == 0:
                        continue
                    lane_gates, lane_slots = np.nonzero(lane_active)
            result = self.run_level(
                plan, times_all, initial_all, slot_to_v, level_factors,
                capacity, inertial, kernel_table=kernel_table, nv=nv, nc=nc,
                delay_cache=delay_cache, lane_gates=lane_gates,
                lane_slots=lane_slots, delays=level_delays)
            totals.lanes += active_lanes
            totals.iterations += result.iterations
            totals.kernel_calls += 1
            totals.delay_seconds += result.delay_seconds
            totals.overflow_lanes += result.overflow_lanes
            overflow_slots[result.overflow_slots] = 1
            if mask is not None:
                # A net is active downstream iff the lane kept >= 1
                # toggle (all-cancelled and overflowed lanes settle
                # back to quiet).
                mask[plan.out_ids] = np.isfinite(
                    times_all[plan.out_ids, :, 0])
        return totals

    def extract(
        self,
        times_all: np.ndarray,
        initial_all: np.ndarray,
        nets: Sequence[str],
        rows: Optional[np.ndarray] = None,
        bounds: Optional[Sequence[int]] = None,
        index: Optional[Dict[str, int]] = None,
        nets_crc: Optional[int] = None,
    ) -> List[WaveformPlane]:
        """Waveform unpack (Fig. 2 step 4): copy the arena rows of
        ``nets`` out as packed planes, one per slot segment.

        ``rows`` are the arena net rows of ``nets`` (``None``: the first
        ``len(nets)``).  ``bounds`` are ascending slot bounds — segment
        ``g`` is the slots ``bounds[g]:bounds[g + 1]``, and the segments
        need not start at slot 0 nor reach the last one; ``None`` is one
        segment over every slot.  ``index`` / ``nets_crc`` are shared by
        every plane returned (:func:`~repro.waveform.plane.net_keys`).

        Each plane is private — it aliases neither the arena nor a
        sibling — and packed: equal, array for array, to
        ``WaveformPlane.from_arena(...).take(segment slots)``, which is
        what this base implementation does (the numpy backend's path,
        and the reference a native extractor is tested against in
        ``tests/simulation/test_extract.py``).  A native extractor may
        stop reading a row at its first non-finite entry: by the row
        contract of :meth:`run_levels` nothing finite follows it.
        """
        if bounds is None:
            return [WaveformPlane.from_arena(nets, times_all, initial_all,
                                             rows, index, nets_crc)]
        edges = [int(edge) for edge in bounds]
        first, last = edges[0], edges[-1]
        plane = WaveformPlane.from_arena(
            nets, times_all[:, first:last], initial_all[:, first:last], rows,
            index, nets_crc)
        return [plane.take(np.arange(lo - first, hi - first))
                for lo, hi in zip(edges, edges[1:])]

    def extract_columns(self, times_all: np.ndarray,
                        initial_all: np.ndarray,
                        rows: Optional[np.ndarray], cols: np.ndarray,
                        canvas: PlaneCanvas) -> None:
        """The unpack of one part of a batch whose answer is written in
        place: arena slot ``s`` lands in column ``cols[s]`` of
        ``canvas`` (a slot with ``cols[s] < 0`` is left out — an
        overflowed slot whose re-run writes the column), its payload
        appended.  ``rows`` are the arena rows of the canvas's nets
        (``None``: the first ``W``).  What lands is what :meth:`extract`
        unpacks; this base implementation is the numpy one and the
        reference a native one is tested against."""
        width = canvas.counts.shape[0]
        keep = np.flatnonzero(cols >= 0)
        times = times_all[:width] if rows is None else times_all[rows]
        initial = initial_all[:width] if rows is None else initial_all[rows]
        if keep.size < cols.size:
            times, initial = times[:, keep], initial[:, keep]
        finite = np.isfinite(times)
        counts = finite.sum(axis=2)
        canvas.put(cols[keep], initial, counts, _packed_starts(counts),
                   times[finite])

    def settle(self, plans: "CircuitPlans", v1: np.ndarray,
               patterns: np.ndarray, num_nets: int,
               rows: Optional[np.ndarray], vectors: np.ndarray,
               out: np.ndarray, cols: np.ndarray) -> None:
        """Settle toggle-free launch vectors with no arena and no
        delays: what a walk writes as initial values when no lane is
        dispatched.

        ``v1`` holds the ``(P, inputs)`` launch values per pattern (the
        primary inputs are nets ``0 .. inputs - 1``) and ``patterns``
        the ``(U,)`` rows to settle; ``out[:, cols[k]]`` gets the
        settled values of the net ``rows`` (``None``: the first
        ``out.shape[0]`` nets) of vector ``vectors[k]``.  This base
        implementation sweeps a ``(num_nets + 1, U)`` byte plane level
        by level (the dummy net's row holds 0) — the reference a native
        bit-sliced settle is tested against
        (``tests/simulation/test_settle.py``)."""
        values = np.zeros((num_nets + 1, patterns.size), dtype=np.uint8)
        values[:v1.shape[1]] = v1[patterns].T
        for plan in plans.levels:
            _settle_level(plan, values)
        wanted = values[:out.shape[0]] if rows is None else values[rows]
        out[:, cols] = wanted[:, vectors]


def _settle_level(plan: "LevelPlan", initial_all: np.ndarray) -> None:
    """Write every lane's settled output value of one level into
    ``initial_all`` via one vectorized truth-table lookup (spare pins
    read the constant-0 dummy net, so the unpadded tables apply)."""
    index = np.zeros((plan.in_ids.shape[0], initial_all.shape[1]),
                     dtype=np.int64)
    for pin in range(plan.in_ids.shape[1]):
        index |= initial_all[plan.in_ids[:, pin]].astype(np.int64) << pin
    initial_all[plan.out_ids] = (
        (plan.tables[:, None] >> index) & 1).astype(np.uint8)


class NumpyBackend(ComputeBackend):
    """The vectorized lockstep reference implementation."""

    name = "numpy"

    def merge_kernel(self, input_times, input_initial, delays, truth_tables,
                     out_capacity, inertial=True):
        return waveform_merge_kernel(input_times, input_initial, delays,
                                     truth_tables, out_capacity,
                                     inertial=inertial)

    def run_level(self, plan, times_all, initial_all, slot_to_v, factors,
                  capacity, inertial, kernel_table=None, nv=None, nc=None,
                  delay_cache=None, lane_gates=None, lane_slots=None,
                  delays=None):
        delay_seconds = 0.0
        if kernel_table is None:
            per_voltage = (delays if delays is not None
                           else plan.nominal[..., None])  # (g, P, 2, V)
        else:
            key = (plan.level, nv.tobytes())
            per_voltage = (delay_cache.get(key)
                           if delay_cache is not None else None)
            if per_voltage is None:
                start = _time.perf_counter()
                per_voltage = kernel_table.delays_from_normalized(
                    plan.type_ids, nv, nc, plan.nominal)
                delay_seconds = _time.perf_counter() - start
                if delay_cache is not None:
                    delay_cache[key] = per_voltage
        # One padded dispatch for the whole level (don't-care-padded
        # tables, spare pins on the constant-0 dummy net).  Splitting
        # into per-arity calls would multiply the lockstep kernel's
        # fixed per-call cost; per lane the padded op sequence is
        # bit-identical anyway.
        if lane_gates is not None:
            result = self.merge_group_sparse(
                times_all, initial_all, plan.in_ids, plan.out_ids,
                per_voltage, slot_to_v, factors, plan.padded_tables,
                capacity, inertial, lane_gates, lane_slots)
        else:
            result = self.merge_group(
                times_all, initial_all, plan.in_ids, plan.out_ids,
                per_voltage, slot_to_v, factors, plan.padded_tables,
                capacity, inertial)
        result.delay_seconds = delay_seconds
        return result


class CextBackend(ComputeBackend):
    """Per-lane scalar loops in C, loaded through ctypes (requires a
    working C compiler).  ``kernels`` is the loaded
    :mod:`~repro.simulation.kernels_cext` module."""

    name = "cext"
    delays_impl = "cext"

    def __init__(self, kernels) -> None:
        self._kernels = kernels

    def merge_kernel(self, input_times, input_initial, delays, truth_tables,
                     out_capacity, inertial=True):
        k, num_lanes, _ = input_times.shape
        if input_initial.shape != (k, num_lanes):
            raise ValueError("input_initial shape mismatch")
        if delays.shape != (k, 2, num_lanes):
            raise ValueError("delays shape mismatch")
        initial, times, counts, overflow, iterations = self._kernels.merge_lanes(
            input_times, input_initial, delays, truth_tables, out_capacity,
            inertial,
        )
        return MergeResult(initial=initial, times=times, counts=counts,
                           overflow=overflow, iterations=int(iterations))

    def run_levels(self, plans, times_all, initial_all, slot_to_v, factors,
                   capacity, inertial, kernel_table=None, nv=None,
                   delay_cache=None, delays=None, mask=None):
        # One ctypes crossing for the whole batch: the C entry walks the
        # levels over the concatenated plan arrays and reads and grows
        # the activity mask itself.
        cat = plans.concat()
        overflow_slots = np.zeros(slot_to_v.size, dtype=np.uint8)
        coeffs = nc = None
        if kernel_table is not None:
            coeffs = kernel_table.coefficients
            nc = plans.concat_normalized_loads(kernel_table.space)
        overflow_lanes, iterations, calls, lanes, skipped = \
            self._kernels.run_levels(
                times_all, initial_all, cat,
                delays if delays is not None else cat.nominal[..., None],
                coeffs, nv, nc, slot_to_v,
                factors[cat.gate_indices] if factors is not None else None,
                capacity, inertial, mask=mask, overflow_slots=overflow_slots,
            )
        return LevelsResult(lanes=lanes, iterations=iterations,
                            overflow_lanes=overflow_lanes,
                            kernel_calls=calls, overflow_slots=overflow_slots,
                            lanes_skipped=skipped)

    def extract(self, times_all, initial_all, nets, rows=None, bounds=None,
                index=None, nets_crc=None):
        # Count, prefix-sum and copy in C, segment-major: a segment's
        # slices of the flat outputs are its packed plane as they stand.
        width = len(nets)
        edges = ([0, times_all.shape[1]] if bounds is None
                 else [int(edge) for edge in bounds])
        initial, counts, starts, offsets, times = self._kernels.extract(
            times_all, initial_all, width, rows, edges)
        offsets = offsets.tolist()
        planes = []
        for segment, (lo, hi) in enumerate(zip(edges, edges[1:])):
            block = slice(width * (lo - edges[0]), width * (hi - edges[0]))
            fields = [flat[block].reshape(width, hi - lo)
                      for flat in (initial, counts, starts)]
            fields.append(times[offsets[segment]:offsets[segment + 1]])
            if len(edges) > 2:
                # Private per segment: a retained plane must not pin
                # its batch neighbours' payload.
                fields = [array.copy() for array in fields]
            segment_initial, segment_counts, segment_starts, payload = fields
            planes.append(WaveformPlane.from_packed(
                nets, segment_initial, segment_counts, payload,
                starts=segment_starts, index=index, nets_crc=nets_crc))
        return planes

    def extract_columns(self, times_all, initial_all, rows, cols, canvas):
        canvas.append(self._kernels.extract_columns(
            times_all, initial_all, rows, cols, canvas.initial,
            canvas.counts, canvas.starts, canvas.size))

    def settle(self, plans, v1, patterns, num_nets, rows, vectors, out,
               cols):
        # 64 vectors per word, the gates walked once in C; only the
        # wanted rows are unpacked, straight into their columns.
        self._kernels.settle(plans.concat(), v1, patterns, num_nets + 1,
                             rows, vectors, out, cols)

    def delays_for_gates(self, kernel_table, type_ids, loads, nominal_delays,
                         voltages):
        if not hasattr(kernel_table, "coefficients"):
            # Duck-typed delay model (LUT / analytical): only the
            # ``delays_for_gates`` protocol is guaranteed.
            return super().delays_for_gates(kernel_table, type_ids, loads,
                                            nominal_delays, voltages)
        return self._kernels.delays_for_gates(kernel_table, type_ids, loads,
                                              nominal_delays, voltages)


# -- registry ----------------------------------------------------------------------

_CACHE: Dict[str, ComputeBackend] = {}
_FAILURES: Dict[str, str] = {}


def _clear_caches() -> None:
    """Forget loaded backends and failure reasons (for tests)."""
    _CACHE.clear()
    _FAILURES.clear()


def _load(name: str) -> Optional[ComputeBackend]:
    """Load a concrete backend, caching both successes and failures."""
    if name in _CACHE:
        return _CACHE[name]
    if name in _FAILURES:
        return None
    try:
        from repro import faults
        faults.trip("backend.load")
        if name == "numpy":
            backend: ComputeBackend = NumpyBackend()
        elif name == "cext":
            from repro.simulation import kernels_cext
            backend = CextBackend(kernels_cext.load())
        else:  # pragma: no cover - guarded by resolve_backend
            raise SimulationError(f"unknown backend {name!r}")
    except Exception as error:  # gated dependency missing / build failure
        _FAILURES[name] = f"{type(error).__name__}: {error}"
        return None
    _CACHE[name] = backend
    return backend


def resolve_backend(name: Optional[str] = None) -> ComputeBackend:
    """Resolve a backend by name, env var or ``auto`` preference.

    ``auto`` silently falls back along :data:`AUTO_ORDER` and can never
    fail (numpy always loads); a concrete name raises
    :class:`~repro.errors.SimulationError` when its dependency is
    missing.
    """
    requested = (name or os.environ.get(ENV_VAR) or "auto").strip().lower()
    if requested not in BACKEND_CHOICES:
        raise SimulationError(
            f"unknown compute backend {requested!r} "
            f"(choose from {', '.join(BACKEND_CHOICES)})"
        )
    if requested == "auto":
        for candidate in AUTO_ORDER:
            backend = _load(candidate)
            if backend is not None:
                return backend
        raise SimulationError(  # pragma: no cover - numpy always loads
            "no compute backend available"
        )
    backend = _load(requested)
    if backend is None:
        raise SimulationError(
            f"compute backend {requested!r} is unavailable "
            f"({_FAILURES[requested]}); use backend='auto' for automatic "
            f"fallback"
        )
    return backend


def available_backends() -> List[str]:
    """Names of the concrete backends that load on this machine."""
    return [name for name in BACKEND_CHOICES[1:] if _load(name) is not None]


def backend_status() -> Dict[str, str]:
    """Per-backend availability ("ok" or the load-failure reason)."""
    status = {}
    for name in BACKEND_CHOICES[1:]:
        status[name] = "ok" if _load(name) is not None else _FAILURES[name]
    return status


#: Demotion ladder walked when a native kernel faults repeatedly: from
#: the most accelerated backend down to the always-available numpy port.
DEMOTION_ORDER = ("cext", "numpy")


def demote_backend(name: str) -> Optional[ComputeBackend]:
    """Next *loadable* backend below ``name`` on the demotion ladder.

    Skips rungs that do not load on this machine.  Returns ``None`` at
    the numpy floor — there is nothing safer to fall back to.
    """
    try:
        position = DEMOTION_ORDER.index(name)
    except ValueError:  # pragma: no cover - unknown engine name
        return None
    for candidate in DEMOTION_ORDER[position + 1:]:
        backend = _load(candidate)
        if backend is not None:
            return backend
    return None
