"""Pluggable compute backends for the hot simulation kernels.

The engine's inner loops — the waveform-merge kernel and the online
delay calculation (polynomial Horner evaluation, Sec. IV-A) — exist in
several implementations behind one interface:

* ``numpy``  — the vectorized lockstep port (always available).  All
  lanes of a thread group advance through their event streams together;
  a single long-waveform lane keeps every live lane iterating
  (mitigated, but not removed, by live-set compaction).
* ``numba``  — ``@njit(parallel=True)`` per-lane scalar loops over
  ``prange``: each lane runs its own event loop to exhaustion, the shape
  GATSPI demonstrates for gate-level SIMT throughput.  Includes a JIT
  Horner evaluator for :meth:`DelayKernelTable.delays_for_gates`.
  Gated on ``import numba``.
* ``cext``   — the same per-lane scalar loops as portable C99, compiled
  on first use with the system C compiler (OpenMP-parallel) and loaded
  through :mod:`ctypes`.  Covers machines where numba is not installed
  but a toolchain is.
* ``auto``   — the best available: numba, else cext, else numpy.  Never
  an import error.

Selection order: explicit :attr:`SimulationConfig.backend` (e.g. from
the ``--backend`` CLI flag), else the ``REPRO_BACKEND`` environment
variable, else ``auto``.

Equivalence guarantee: every backend implements the exact per-lane
algorithm of :func:`~repro.simulation.kernels.waveform_merge_kernel`
with identical IEEE-754 operation order, so results are **bit-identical**
across backends (asserted in ``tests/simulation/test_backend.py``).

Adding a backend: subclass :class:`ComputeBackend`, implement
``merge_kernel`` (lane-oriented API, used by micro-benchmarks and the
gather path), ``merge_group`` (dense arena API, used by the engine) and
``merge_group_sparse`` (the lane-compacted arena path driven by the
engine's activity tracker), add a loader branch to :func:`_load` and
the name to :data:`BACKEND_CHOICES`.
"""

from __future__ import annotations

import os
import time as _time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from repro.errors import SimulationError
from repro.simulation.kernels import MergeResult, waveform_merge_kernel

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
BACKEND_CHOICES = ("auto", "numpy", "numba", "cext")

#: Preference order tried by ``auto``.
AUTO_ORDER = ("numba", "cext", "numpy")

#: Environment variable consulted when no explicit backend is configured.
ENV_VAR = "REPRO_BACKEND"


@dataclass
class GroupResult:
    """Outcome of one arena-level thread-group evaluation."""

    lanes: int            # gate instances evaluated (gates × slots)
    iterations: int       # kernel loop trips (diagnostics; see note below)
    overflow_lanes: int   # lanes that exceeded the waveform capacity
    #: Seconds spent materializing per-voltage delay arrays inside the
    #: call (numpy ``run_level`` only; the per-lane backends evaluate
    #: the Horner kernel inside the merge loop, so their delay work is
    #: inseparable from — and reported as — merge time).
    delay_seconds: float = 0.0

    # Note: the numpy backend reports global lockstep iterations, the
    # per-lane backends report the summed per-lane event count — both
    # measure kernel work, on different axes.


@dataclass
class LevelsResult:
    """Outcome of a whole-batch :meth:`ComputeBackend.run_levels` call.

    Accounting matches the equivalent sequence of per-level
    :meth:`ComputeBackend.run_level` calls exactly: ``kernel_calls``
    counts non-empty levels dispatched (the overflowing level
    included), ``lanes`` sums ``gates × slots`` over those levels.
    """

    lanes: int
    iterations: int
    overflow_lanes: int
    kernel_calls: int
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
        """Evaluate one thread group directly against the waveform arena.

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

        On overflow the arena contents for the group's output nets are
        unspecified — the caller discards the arena and retries at a
        larger capacity.
        """
        raise NotImplementedError

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
        evaluated.  The engine's activity tracker compacts the plane
        down to lanes whose inputs actually carry toggles; every other
        lane's output is a pure logic settle the engine writes itself.

        The per-lane algorithm is the same, so results for dispatched
        lanes are bit-identical to a dense :meth:`merge_group` call.
        Output rows of undispatched lanes are left untouched.
        """
        raise NotImplementedError

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
    ) -> GroupResult:
        """Evaluate one whole level (all arity groups) in one call.

        ``plan`` is the level's compile-time
        :class:`~repro.simulation.compiled.LevelPlan`: arity-sorted
        compacted arrays, so the backend loops the arity runs natively
        instead of one engine dispatch per group.  Delay handling folds
        into the same entry point:

        * static mode (``kernel_table is None``) uses ``plan.nominal``
          unchanged,
        * parametric mode receives the polynomial table plus the
          *pre-normalized* predictors — ``nv`` = ``φ_V`` per distinct
          voltage, ``nc`` = ``φ_C`` per plan gate (cached on the plan) —
          and evaluates the 2-D Horner kernel per (gate, distinct
          voltage), never per lane; the per-lane backends do so inside
          the merge loop (memoized over each run of lanes a thread
          owns), never materializing a per-lane delay array,
        * Monte-Carlo ``factors`` (level-local ``(g, S)``, plan gate
          order) scale each delay exactly as in :meth:`merge_group`.

        ``lane_gates`` / ``lane_slots`` (plan-local, ``lane_gates``
        non-decreasing) select the activity-compacted sparse path.
        ``delay_cache`` memoizes materialized per-voltage arrays across
        overflow retries (numpy path only).  Results are bit-identical
        to the equivalent per-group :meth:`merge_group` dispatch.

        Row contract: every dispatched lane writes its *whole* output
        row — its toggles, then ``+inf`` up to ``capacity`` — and its
        initial value, and reads nothing of what the row held before;
        rows of lanes that are not dispatched are left untouched.  A
        dense call therefore needs no reset of the level's output rows
        (the engine resets only undriven rows); a sparse call needs the
        skipped rows reset by the caller.  On overflow the level's
        output rows are unspecified, as in :meth:`merge_group`.
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
    ) -> LevelsResult:
        """Evaluate *every* level of the circuit in one backend call.

        Dense (non-activity-tracked) counterpart of level-by-level
        :meth:`run_level` dispatch: levels run strictly in order, each
        against the arena the preceding levels finalized.  ``factors``
        is the full ``(num_gates, S)`` Monte-Carlo array (circuit gate
        order); backends gather it into plan order themselves.  ``nc``
        is not a parameter — the per-level ``φ_C`` memos live on
        ``plans``.  Stops at the first level with overflowing lanes so
        the caller can retry at doubled capacity.  The :meth:`run_level`
        row contract holds level by level: a call that returns without
        overflow has written every gate-output row of the arena in
        full, whatever those rows held on entry; only rows no gate
        drives (primary inputs, the dummy net) are read as given.

        The base implementation loops :meth:`run_level`; backends with
        per-call dispatch overhead (ctypes marshalling in the C
        extension) override it with a single native whole-batch entry.
        Results are bit-identical either way.
        """
        space = kernel_table.space if kernel_table is not None else None
        nc_levels = (plans.normalized_loads(space)
                     if kernel_table is not None else None)
        lanes = 0
        iterations = 0
        kernel_calls = 0
        delay_seconds = 0.0
        num_slots = int(slot_to_v.size)
        for index, plan in enumerate(plans.levels):
            if plan.num_gates == 0:
                continue
            group_factors = (factors[plan.gate_indices]
                             if factors is not None else None)
            result = self.run_level(
                plan, times_all, initial_all, slot_to_v, group_factors,
                capacity, inertial, kernel_table=kernel_table, nv=nv,
                nc=nc_levels[index] if nc_levels is not None else None,
                delay_cache=delay_cache,
            )
            lanes += plan.num_gates * num_slots
            iterations += result.iterations
            kernel_calls += 1
            delay_seconds += result.delay_seconds
            if result.overflow_lanes:
                return LevelsResult(lanes=lanes, iterations=iterations,
                                    overflow_lanes=result.overflow_lanes,
                                    kernel_calls=kernel_calls,
                                    delay_seconds=delay_seconds)
        return LevelsResult(lanes=lanes, iterations=iterations,
                            overflow_lanes=0, kernel_calls=kernel_calls,
                            delay_seconds=delay_seconds)


class NumpyBackend(ComputeBackend):
    """The vectorized lockstep reference implementation."""

    name = "numpy"

    def merge_kernel(self, input_times, input_initial, delays, truth_tables,
                     out_capacity, inertial=True):
        return waveform_merge_kernel(input_times, input_initial, delays,
                                     truth_tables, out_capacity,
                                     inertial=inertial)

    def merge_group(self, times_all, initial_all, in_ids, out_ids,
                    per_voltage, slot_to_v, factors, truth_tables, capacity,
                    inertial):
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
        overflow_lanes = int(merged.overflow.sum())
        if overflow_lanes == 0:
            times_all[out_ids] = merged.times.reshape(group_size, num_slots,
                                                      capacity)
            initial_all[out_ids] = merged.initial.reshape(group_size,
                                                          num_slots)
        return GroupResult(lanes=lanes, iterations=merged.iterations,
                           overflow_lanes=overflow_lanes)

    def merge_group_sparse(self, times_all, initial_all, in_ids, out_ids,
                           per_voltage, slot_to_v, factors, truth_tables,
                           capacity, inertial, lane_gates, lane_slots):
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
        overflow_lanes = int(merged.overflow.sum())
        if overflow_lanes == 0:
            times_all[out_ids[lane_gates], lane_slots] = merged.times
            initial_all[out_ids[lane_gates], lane_slots] = merged.initial
        return GroupResult(lanes=lanes, iterations=merged.iterations,
                           overflow_lanes=overflow_lanes)

    def run_level(self, plan, times_all, initial_all, slot_to_v, factors,
                  capacity, inertial, kernel_table=None, nv=None, nc=None,
                  delay_cache=None, lane_gates=None, lane_slots=None):
        delay_seconds = 0.0
        if kernel_table is None:
            per_voltage = plan.nominal[..., None]        # (g, P, 2, 1)
        else:
            key = ("fused", plan.level, nv.tobytes())
            per_voltage = (delay_cache.get(key)
                           if delay_cache is not None else None)
            if per_voltage is None:
                start = _time.perf_counter()
                per_voltage = kernel_table.delays_from_normalized(
                    plan.type_ids, nv, nc, plan.nominal)
                delay_seconds = _time.perf_counter() - start
                if delay_cache is not None:
                    delay_cache[key] = per_voltage
        # One padded dispatch for the whole level — the same max_pins
        # group shape as the unfused level path (don't-care-padded
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
        return GroupResult(lanes=result.lanes, iterations=result.iterations,
                           overflow_lanes=result.overflow_lanes,
                           delay_seconds=delay_seconds)


class _LaneBackend(ComputeBackend):
    """Shared shim for the per-lane scalar backends (numba / cext).

    The kernel modules expose a uniform API:

    * ``merge_lanes(times, initial, delays, tables, out_capacity,
      inertial)`` → ``(initial, times, counts, overflow, iterations)``
    * ``merge_group(times_all, initial_all, in_ids, out_ids, per_voltage,
      slot_to_v, factors, tables, capacity, inertial)``
      → ``(overflow_lanes, iterations)``
    * ``merge_group_sparse(..., lane_gates, lane_slots)`` — the
      lane-compacted entry path, same return shape
    """

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

    def merge_group(self, times_all, initial_all, in_ids, out_ids,
                    per_voltage, slot_to_v, factors, truth_tables, capacity,
                    inertial):
        lanes = in_ids.shape[0] * slot_to_v.size
        overflow_lanes, iterations = self._kernels.merge_group(
            times_all, initial_all, in_ids, out_ids, per_voltage, slot_to_v,
            factors, truth_tables, capacity, inertial,
        )
        return GroupResult(lanes=lanes, iterations=int(iterations),
                           overflow_lanes=int(overflow_lanes))

    def merge_group_sparse(self, times_all, initial_all, in_ids, out_ids,
                           per_voltage, slot_to_v, factors, truth_tables,
                           capacity, inertial, lane_gates, lane_slots):
        overflow_lanes, iterations = self._kernels.merge_group_sparse(
            times_all, initial_all, in_ids, out_ids, per_voltage, slot_to_v,
            factors, truth_tables, capacity, inertial, lane_gates, lane_slots,
        )
        return GroupResult(lanes=int(lane_gates.size),
                           iterations=int(iterations),
                           overflow_lanes=int(overflow_lanes))

    def run_level(self, plan, times_all, initial_all, slot_to_v, factors,
                  capacity, inertial, kernel_table=None, nv=None, nc=None,
                  delay_cache=None, lane_gates=None, lane_slots=None):
        coeffs = None
        if kernel_table is not None:
            if plan.nominal.shape[1] > kernel_table.max_pins:
                raise SimulationError(
                    f"gates have {plan.nominal.shape[1]} pins but the "
                    f"kernel table holds {kernel_table.max_pins}"
                )
            coeffs = kernel_table.coefficients
        overflow_lanes, iterations = self._kernels.run_level(
            times_all, initial_all, plan.in_ids, plan.out_ids, plan.tables,
            plan.arities, plan.type_ids, plan.nominal, coeffs, nv, nc,
            slot_to_v, factors, capacity, inertial, lane_gates, lane_slots,
        )
        lanes = (int(lane_gates.size) if lane_gates is not None
                 else plan.num_gates * int(slot_to_v.size))
        return GroupResult(lanes=lanes, iterations=int(iterations),
                           overflow_lanes=int(overflow_lanes))


class NumbaBackend(_LaneBackend):
    """``@njit(parallel=True)`` per-lane loops (requires numba)."""

    name = "numba"
    delays_impl = "numba"

    def delays_for_gates(self, kernel_table, type_ids, loads, nominal_delays,
                         voltages):
        if not hasattr(kernel_table, "coefficients"):
            # Duck-typed delay model (LUT / analytical): only the
            # ``delays_for_gates`` protocol is guaranteed.
            return super().delays_for_gates(kernel_table, type_ids, loads,
                                            nominal_delays, voltages)
        return self._kernels.delays_for_gates(kernel_table, type_ids, loads,
                                              nominal_delays, voltages)


class CextBackend(_LaneBackend):
    """ctypes-loaded C kernels (requires a working C compiler)."""

    name = "cext"
    delays_impl = "cext"

    def run_levels(self, plans, times_all, initial_all, slot_to_v, factors,
                   capacity, inertial, kernel_table=None, nv=None,
                   delay_cache=None):
        # One ctypes crossing for the whole batch: the C entry loops the
        # levels over the concatenated plan arrays, so the per-call
        # marshalling cost (~15 array arguments) is paid once instead of
        # once per level.
        cat = plans.concat()
        if cat.out_ids.size == 0:
            return LevelsResult(lanes=0, iterations=0, overflow_lanes=0,
                                kernel_calls=0)
        coeffs = nc = None
        if kernel_table is not None:
            if cat.nominal.shape[1] > kernel_table.max_pins:
                raise SimulationError(
                    f"gates have {cat.nominal.shape[1]} pins but the "
                    f"kernel table holds {kernel_table.max_pins}"
                )
            coeffs = kernel_table.coefficients
            nc = plans.concat_normalized_loads(kernel_table.space)
        gathered = (np.ascontiguousarray(factors[cat.gate_indices])
                    if factors is not None else None)
        overflow_lanes, iterations, levels_done, lanes = \
            self._kernels.run_levels(
                times_all, initial_all, cat, coeffs, nv, nc, slot_to_v,
                gathered, capacity, inertial,
            )
        return LevelsResult(lanes=int(lanes), iterations=int(iterations),
                            overflow_lanes=int(overflow_lanes),
                            kernel_calls=int(levels_done))

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
        elif name == "numba":
            from repro.simulation import kernels_numba
            backend = NumbaBackend(kernels_numba)
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
DEMOTION_ORDER = ("cext", "numba", "numpy")


def demote_backend(name: str) -> Optional[ComputeBackend]:
    """Next *loadable* backend below ``name`` on the demotion ladder.

    Skips rungs whose dependency is missing on this machine (e.g.
    cext → numpy when numba is not installed).  Returns ``None`` at the
    numpy floor — there is nothing safer to fall back to.
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
