"""The offline cell-characterization flow (paper Fig. 1, steps A–D).

For every cell type, input pin and output transition polarity:

A. run a SPICE parameter sweep over the operating-point grid,
B. normalize (φ_V, φ_C, φ_D) and densify the sample grid by bilinear
   sub-sampling,
C. fit a surface polynomial by multivariable linear regression,
D. compile the coefficients into a delay-kernel table for the GPU.

This flow runs **once per cell library**; the compiled kernels are reused
by every simulation (the paper reports 1–40 ms of regression time per
entry, a negligible preprocessing cost).

Two sampling strategies feed step A:

* the **fixed grid** of the paper's Sec. V setup (12 voltages × 9 loads
  per entry), and
* an **error-driven adaptive** flow (:class:`AdaptiveConfig`): a coarse
  curvature-aware seed grid is refined by whole axis lines — the grid
  stays rectilinear, so bilinear sub-sampling and the LUT comparator keep
  working — where the fitted polynomial disagrees most with the bilinear
  reference of the samples gathered so far.  Refinement stops when both
  the probe residual *and* the measured error on freshly sampled lines
  drop below a target, or when the per-entry evaluation budget runs out.
  The polynomial half-order is then picked per entry by cross-validated
  error (:class:`repro.core.regression.CrossValidation`).

Both strategies run **in lockstep over shared sample geometries**.
Every entry of a library starts from the same grid and refines it along
the same bisection lattice, so the ~1670 refinement fits of the 370
Nangate15 entries stand on a dozen distinct ``(voltage axis, load
axis)`` grids, and the fixed flow on one.  What depends on the grid
alone — bilinear stencils for the dense and the probe grid, the design
matrix, ``XᵀX``, ``cond(X)`` — lives in a *fit plan* built once per
grid and owned by the ``characterize_*`` call (:class:`_FitPlans`);
the cross-validation operators are built once per final grid for the
entries that end on it, and dropped with them.  What depends on the
entry — the measured delays, ``Xᵀy``, the solve — is computed as stacks
over all entries of the batch that currently stand on that grid
(:func:`_characterize`).  SPICE
is sampled the same way: the entries of the seed wave, and the entries
that add the same line to the same grid, are measured as one stack in
one SPICE call (:func:`_sample`).  A single entry is a batch of one:
there is no per-entry implementation beside it, and an entry's result
is bit-identical whatever batch it rides in (``docs/architecture.md``
§14).

``characterize_library`` persists and reuses fitted coefficients through
the fingerprint-keyed :class:`~repro.core.charz_cache.CoefficientCache`;
a cell that fails does not cost the cells that completed.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import faults
from repro.cells.cell import Cell, CellPin, DrivePolarity
from repro.cells.library import CellLibrary
from repro.core.charz_cache import CoefficientCache
from repro.core.interpolation import BilinearStencil, GridInterpolator, densify
from repro.core.parameters import ParameterSpace
from repro.core.polynomial import horner
from repro.core.regression import CrossValidation, FitPlan, FitResult
from repro.electrical.spice import AnalyticalSpice, DelayGrid
from repro.errors import CharacterizationError

__all__ = [
    "AdaptiveConfig",
    "PinCharacterization",
    "CellCharacterization",
    "LibraryCharacterization",
    "characterize_pin",
    "characterize_cell",
    "characterize_cell_cached",
    "characterize_library",
]

#: Evaluation count of the paper's fixed per-entry grid (12 × 9) — the
#: baseline adaptive sampling is measured against.
FIXED_GRID_EVALUATIONS = 108

#: Adaptive flow: residual-probe resolution per axis (no SPICE cost).
PROBE_GRID = 33

#: Adaptive flow: largest half-order considered, both while refining
#: and by the final cross-validated order selection.
MAX_ORDER = 4

#: Adaptive flow: step-B densification factor applied before every fit.
SUBSAMPLE_FACTOR = 4

#: Adaptive flow: cross-validation folds of the final order selection.
CV_FOLDS = 4


@dataclass(frozen=True)
class AdaptiveConfig:
    """Settings of the error-driven adaptive sampling loop.

    The defaults reach fixed-grid accuracy parity on the Nangate15
    library with a bit over 3x fewer SPICE delay evaluations (gated in
    ``BENCH_kernels.json``); they are the tuned operating point, not
    arbitrary knobs.  Fewer evaluations is the whole gain: per entry the
    adaptive flow fits 4–5 times and cross-validates, so against the
    analytical SPICE stand-in it takes ~3x the wall time of the fixed
    grid (``characterization_speedups.wall_speedup`` 0.33, a median over
    alternating timed pairs) — it wins when a SPICE evaluation costs
    more than ~6.5 µs (``break_even_us_per_evaluation``), i.e. with any
    real simulator.
    All entries share the settings, which is what lets them share fit
    plans: nothing here varies per entry.

    Attributes
    ----------
    target_error:
        Stopping target (fraction of d_nom) for both the probe residual
        against the bilinear reference of the gathered samples and the
        measured error at freshly sampled lines.
    budget:
        Hard per-entry cap on SPICE delay evaluations.  A refinement
        line that would exceed it is skipped and the current fit kept.
    order:
        Fixed half-order in ``[1, MAX_ORDER]``; ``None`` (default)
        selects per entry by cross-validated error, never accepting a
        lower order that fails the probe-residual criterion the full
        order meets.
    cv_tolerance:
        Cross-validation tolerance of the final order selection
        (:data:`CV_FOLDS` folds).
    seed_voltage_fractions:
        Normalized φ_V seed positions (φ_V of v_nom is always added) —
        biased toward low voltage where the α-power surface curves most.
    seed_load_fractions:
        Normalized φ_C seed positions; the load axis is close to linear
        in φ_C, so three lines suffice to seed it.
    """

    target_error: float = 0.012
    budget: int = 36
    order: Optional[int] = None
    cv_tolerance: float = 0.05
    seed_voltage_fractions: Tuple[float, ...] = (0.0, 0.12, 0.28, 1.0)
    seed_load_fractions: Tuple[float, ...] = (0.0, 0.5, 1.0)

    def __post_init__(self) -> None:
        if not 0 < self.target_error < 1:
            raise CharacterizationError("target_error must be in (0, 1)")
        if self.budget < (len(self.seed_voltage_fractions) + 1) * len(self.seed_load_fractions):
            raise CharacterizationError(
                "budget smaller than the seed grid itself")
        if self.order is not None and not 1 <= self.order <= MAX_ORDER:
            raise CharacterizationError(
                f"order must be in [1, {MAX_ORDER}]")


@dataclass(frozen=True)
class PinCharacterization:
    """Characterization result for one (cell, pin, polarity) entry.

    Attributes
    ----------
    fit:
        The regression result; ``fit.polynomial`` is the delay kernel
        operating on normalized ``(φ_V, φ_C)`` coordinates and returning
        the relative deviation ``d/d_nom − 1``.
    reference:
        Bilinear interpolator of the *normalized deviation* samples —
        the "linear approximation of the SPICE results" used as the
        error reference in Sec. V-A.
    nominal_delays:
        Interpolator of the nominal (v = v_nom) absolute delay versus
        normalized load, used to derive SDF annotations.
    sweep:
        The raw SPICE delay grid (step A output; for the adaptive flow,
        the final refined grid).
    evaluations:
        SPICE delay evaluations spent on this entry (108 for the fixed
        grid; at most ``AdaptiveConfig.budget`` adaptively).
    """

    cell_name: str
    pin_name: str
    pin_index: int
    polarity: DrivePolarity
    space: ParameterSpace
    fit: FitResult
    reference: GridInterpolator = field(repr=False)
    nominal_delays: np.ndarray = field(repr=False)
    sweep: DelayGrid = field(repr=False)
    evaluations: int = FIXED_GRID_EVALUATIONS

    def deviation(self, v, c):
        """Predicted relative deviation at raw ``(v, c)`` operating points."""
        nv = self.space.normalize_voltage(v)
        nc = self.space.normalize_load(c)
        return self.fit.polynomial.evaluate(nv, nc)

    def nominal_delay(self, c) -> float:
        """Nominal absolute delay at load ``c`` (linear in φ_C)."""
        nc = np.asarray(self.space.normalize_load(c), dtype=np.float64)
        nc_axis = self.space.normalize_load(self.sweep.loads)
        return np.interp(nc, nc_axis, self.nominal_delays)

    def delay(self, v, c):
        """Absolute delay ``d' = d_nom(c) · (1 + f(φ_V(v), φ_C(c)))`` (Eq. 9)."""
        return self.nominal_delay(c) * (1.0 + self.deviation(v, c))

    def evaluation_error(self, grid: int = 64) -> Tuple[float, float, float]:
        """Approximation error vs the linear reference on a dense grid.

        Returns ``(mean_abs, std, max_abs)`` of the deviation error over a
        ``grid × grid`` equidistant sample of the normalized space — the
        paper's Fig. 4/5 metric.  Units are fractions of d_nom.
        """
        nv = np.linspace(0.0, 1.0, grid)
        nc = np.linspace(0.0, 1.0, grid)
        reference = self.reference(nv[:, None], nc[None, :])
        predicted = self.fit.polynomial.evaluate(nv[:, None], nc[None, :])
        error = np.abs(predicted - reference)
        return float(error.mean()), float(error.std()), float(error.max())


def characterize_pin(
    spice: AnalyticalSpice,
    cell: Cell,
    pin: CellPin,
    polarity: DrivePolarity,
    space: Optional[ParameterSpace] = None,
    n: int = 3,
    subsample_factor: int = 4,
    method: str = "auto",
    adaptive: Optional[AdaptiveConfig] = None,
) -> PinCharacterization:
    """Run the Fig. 1 flow (steps A–C) for a single pin/polarity entry.

    Parameters
    ----------
    n:
        Polynomial half-order N (polynomial order is 2·N) for the fixed
        flow; ignored when ``adaptive`` is given.
    subsample_factor:
        Densification factor for step B; 1 disables sub-sampling.
    adaptive:
        When given, replace the fixed sweep with the error-driven
        adaptive sampling loop.
    """
    plans = _FitPlans(space or ParameterSpace.paper_default(),
                      n, subsample_factor, method, adaptive)
    task = _CharzTask(cell, None, [(pin, polarity)])
    _characterize(spice, [task], plans)
    if task.error is not None:
        raise task.error
    return task.result.pins[0]


@dataclass(frozen=True)
class CellCharacterization:
    """All pin/polarity characterizations of one cell."""

    cell: Cell
    pins: Tuple[PinCharacterization, ...]
    elapsed_seconds: float

    def entry(self, pin_name: str, polarity: DrivePolarity) -> PinCharacterization:
        for item in self.pins:
            if item.pin_name == pin_name and item.polarity == polarity:
                return item
        raise KeyError(f"no characterization for {self.cell.name}/{pin_name}/{polarity.name}")

    def worst_fit_error(self) -> float:
        return max(item.fit.max_abs_error for item in self.pins)

    @property
    def evaluations(self) -> int:
        """Total SPICE delay evaluations spent on this cell."""
        return sum(item.evaluations for item in self.pins)


def characterize_cell(
    spice: AnalyticalSpice,
    cell: Cell,
    space: Optional[ParameterSpace] = None,
    n: int = 3,
    subsample_factor: int = 4,
    method: str = "auto",
    adaptive: Optional[AdaptiveConfig] = None,
) -> CellCharacterization:
    """Characterize every (pin, polarity) of a cell, in lockstep."""
    plans = _FitPlans(space or ParameterSpace.paper_default(),
                      n, subsample_factor, method, adaptive)
    task = _CharzTask(cell, None)
    _characterize(spice, [task], plans)
    if task.error is not None:
        raise task.error
    return task.result


def characterize_cell_cached(
    spice: AnalyticalSpice,
    cell: Cell,
    cache: Optional[CoefficientCache],
    space: Optional[ParameterSpace] = None,
    n: int = 3,
    subsample_factor: int = 4,
    method: str = "auto",
    adaptive: Optional[AdaptiveConfig] = None,
) -> CellCharacterization:
    """:func:`characterize_cell` through the fingerprint-keyed cache."""
    space = space or ParameterSpace.paper_default()
    if cache is None:
        return characterize_cell(
            spice, cell, space=space, n=n,
            subsample_factor=subsample_factor, method=method, adaptive=adaptive)

    from repro.runtime.fingerprint import characterization_fingerprint

    key = characterization_fingerprint(
        cell, spice.model.corner, space,
        _flow_signature(n, subsample_factor, method, adaptive))
    hit = cache.get(key, cell, space)
    if hit is not None:
        return hit
    result = characterize_cell(
        spice, cell, space=space, n=n,
        subsample_factor=subsample_factor, method=method, adaptive=adaptive)
    cache.put(key, result)
    return result


@dataclass
class LibraryCharacterization:
    """Characterization of a whole cell library (keyed by cell name)."""

    library: CellLibrary
    space: ParameterSpace
    n: int
    cells: Dict[str, CellCharacterization]

    def entry(self, cell_name: str, pin_name: str, polarity: DrivePolarity) -> PinCharacterization:
        return self.cells[cell_name].entry(pin_name, polarity)

    def all_entries(self) -> Iterable[PinCharacterization]:
        for cell_char in self.cells.values():
            yield from cell_char.pins

    def total_evaluations(self) -> int:
        """SPICE delay evaluations represented by this characterization.

        Counts what the entries *cost to produce* — a cache hit carries
        the evaluations its original fit spent, even though replaying it
        performed none.
        """
        return sum(cell.evaluations for cell in self.cells.values())

    def compile(self):
        """Step D: compile into a :class:`~repro.core.delay_kernel.DelayKernelTable`."""
        from repro.core.delay_kernel import DelayKernelTable

        return DelayKernelTable.from_characterization(self)


class _CharzTask:
    """One cell's characterization: the unit of failure and caching."""

    __slots__ = ("cell", "key", "entries", "result", "error")

    def __init__(self, cell: Cell, key: Optional[str],
                 entries: Optional[Sequence[Tuple[CellPin, DrivePolarity]]] = None) -> None:
        self.cell = cell
        self.key = key
        #: The (pin, polarity) entries to characterize, in result order.
        self.entries = entries if entries is not None else [
            (pin, polarity)
            for pin in sorted(cell.pins, key=lambda p: p.index)
            for polarity in (DrivePolarity.RISE, DrivePolarity.FALL)]
        self.result: Optional[CellCharacterization] = None
        self.error: Optional[BaseException] = None


def _flow_signature(
    n: int,
    subsample_factor: int,
    method: str,
    adaptive: Optional[AdaptiveConfig],
) -> dict:
    """The JSON-able flow identity fed into the cache fingerprint."""
    if adaptive is None:
        return {
            "mode": "fixed",
            "n": n,
            "subsample_factor": subsample_factor,
            "method": method,
        }
    # The module constants keep the keys and order they had as fields,
    # so coefficient-cache keys written back then still match.
    return {
        "mode": "adaptive",
        "target_error": adaptive.target_error,
        "budget": adaptive.budget,
        "probe_grid": PROBE_GRID,
        "max_order": MAX_ORDER,
        "order": adaptive.order,
        "subsample_factor": SUBSAMPLE_FACTOR,
        "cv_folds": CV_FOLDS,
        "cv_tolerance": adaptive.cv_tolerance,
        "seed_voltage_fractions": list(adaptive.seed_voltage_fractions),
        "seed_load_fractions": list(adaptive.seed_load_fractions),
    }


def characterize_library(
    library: CellLibrary,
    spice: Optional[AnalyticalSpice] = None,
    space: Optional[ParameterSpace] = None,
    n: int = 3,
    subsample_factor: int = 4,
    method: str = "auto",
    adaptive: Optional[AdaptiveConfig] = None,
    cache: Union[CoefficientCache, str, os.PathLike, None] = None,
) -> LibraryCharacterization:
    """Characterize every cell of a library (the full preprocessing pass).

    Every entry of every uncached cell advances through the flow in
    lockstep over one call-scoped set of fit plans (module docstring):
    what depends only on the sample grid is computed once per distinct
    grid for the whole library and dropped when the call returns.

    Parameters
    ----------
    adaptive:
        Adaptive-sampling settings; ``None`` keeps the paper's fixed
        grid.
    cache:
        A :class:`~repro.core.charz_cache.CoefficientCache` (or a cache
        directory path) keyed by cell/corner/space/flow fingerprints;
        hits skip SPICE entirely.

    Failure is per cell: an entry that fails (a ``charz.fit`` fault, a
    non-positive nominal delay, a SPICE error) fails its cell only.
    Every other cell completes and is stored in ``cache`` before
    :class:`~repro.errors.CharacterizationError` is raised for the
    first failed cell in library order, so a re-run pays only for the
    cells that failed.  What is not an ``Exception`` — an injected
    ``charz.fit:die`` (:class:`~repro.faults.WorkerDeathError`), an
    interrupt — propagates before anything is stored.
    """
    spice = spice or AnalyticalSpice()
    space = space or ParameterSpace.paper_default()
    if cache is not None and not isinstance(cache, CoefficientCache):
        cache = CoefficientCache(os.fspath(cache))
    flow = _flow_signature(n, subsample_factor, method, adaptive)

    from repro.runtime.fingerprint import characterization_fingerprint

    cells: Dict[str, CellCharacterization] = {}
    pending: List[_CharzTask] = []
    for cell in library:
        key = None
        if cache is not None:
            key = characterization_fingerprint(cell, spice.model.corner, space, flow)
            hit = cache.get(key, cell, space)
            if hit is not None:
                cells[cell.name] = hit
                continue
        pending.append(_CharzTask(cell, key))

    _characterize(spice, pending,
                  _FitPlans(space, n, subsample_factor, method, adaptive))

    failed: Optional[_CharzTask] = None
    for task in pending:
        if task.result is None:
            failed = failed or task
            continue
        if cache is not None and task.key is not None:
            cache.put(task.key, task.result)
        cells[task.cell.name] = task.result
    if failed is not None:
        raise CharacterizationError(
            f"characterization of {failed.cell.name} failed: {failed.error}"
        ) from failed.error

    ordered = {cell.name: cells[cell.name] for cell in library}
    if adaptive is not None:
        n_out = max((entry.fit.polynomial.n
                     for cell_char in ordered.values()
                     for entry in cell_char.pins), default=n)
    else:
        n_out = n
    return LibraryCharacterization(
        library=library, space=space, n=n_out, cells=ordered)


# -- the lockstep flow -------------------------------------------------------------

#: Elements per wave temporary (512 KB of float64).  A geometry group is
#: cut into chunks of lanes so that the ``(lanes, probe, probe)`` and
#: ``(lanes, samples)`` stacks stay this small: the per-call overhead is
#: already amortized at a few dozen lanes, and peak memory must not grow
#: with the size of the library.
_WAVE_ELEMENTS = 1 << 16


class _Refinement:
    """One bisection of one axis interval of a geometry."""

    __slots__ = ("axis", "index", "coordinate", "points", "v", "c", "child")

    def __init__(self, plans: "_FitPlans", parent: "_Geometry", axis: int,
                 interval: int) -> None:
        space = plans.flow.space
        self.axis = axis
        if axis == 0:
            value = float(space.denormalize_voltage(
                0.5 * (parent.nv_axis[interval] + parent.nv_axis[interval + 1])))
            #: Normalized coordinate of the new line.
            self.coordinate = float(space.normalize_voltage(value))
            #: Operating points of the new line (its SPICE cost is their count).
            self.points = np.column_stack(
                [np.full(parent.c_axis.size, value), parent.c_axis])
            self.v = np.full(parent.c_axis.size, self.coordinate)
            self.c = parent.nc_axis
            #: Where the line is inserted along ``axis``.
            self.index = int(np.searchsorted(parent.v_axis, value))
            self.child = plans.geometry(
                np.insert(parent.v_axis, self.index, value), parent.c_axis)
        else:
            value = float(space.denormalize_load(
                0.5 * (parent.nc_axis[interval] + parent.nc_axis[interval + 1])))
            self.coordinate = float(space.normalize_load(value))
            self.points = np.column_stack(
                [parent.v_axis, np.full(parent.v_axis.size, value)])
            self.v = parent.nv_axis
            self.c = np.full(parent.v_axis.size, self.coordinate)
            self.index = int(np.searchsorted(parent.c_axis, value))
            self.child = plans.geometry(
                parent.v_axis, np.insert(parent.c_axis, self.index, value))


class _Geometry:
    """One sample grid and everything that follows from its axes alone.

    The fit plan of the issue's wording: normalized and densified axes,
    the bilinear stencils onto the dense grid and the probe grid, the
    regression :class:`~repro.core.regression.FitPlan` over the dense
    samples, the interval each probe line falls into, and the children
    reached by bisecting an interval.  Nothing here depends on a cell,
    and nothing points back at the :class:`_FitPlans` that owns it.
    """

    def __init__(self, flow: "_Flow", v_axis: np.ndarray,
                 c_axis: np.ndarray) -> None:
        space = flow.space
        self.flow = flow
        self.v_axis = v_axis
        self.c_axis = c_axis
        self.key = (v_axis.tobytes(), c_axis.tobytes())
        self.nv_axis = np.asarray(space.normalize_voltage(v_axis))
        self.nc_axis = np.asarray(space.normalize_load(c_axis))
        # Every entry that ends on this grid shares these four arrays.
        for axis in (v_axis, c_axis, self.nv_axis, self.nc_axis):
            axis.setflags(write=False)
        #: Row of the nominal voltage (every grid of either flow has one).
        self.nominal = int(np.flatnonzero(np.isclose(v_axis, space.v_nom))[0])
        self.dense = BilinearStencil(
            self.nv_axis, self.nc_axis,
            densify(self.nv_axis, flow.subsample_factor),
            densify(self.nc_axis, flow.subsample_factor))
        v_samples, c_samples = np.meshgrid(
            self.dense.x_queries, self.dense.y_queries, indexing="ij")
        self.fit = FitPlan(v_samples, c_samples,
                           flow.half_order(v_axis.size * c_axis.size))
        self.chunk = max(1, _WAVE_ELEMENTS // max(
            self.fit.sample_count, flow.probe.size ** 2))
        self.refinements: Dict[Tuple[int, int], _Refinement] = {}

    @cached_property
    def points(self) -> np.ndarray:
        """All operating points of the grid, row-major ``(nv·nc, 2)``."""
        v_mesh, c_mesh = np.meshgrid(self.v_axis, self.c_axis, indexing="ij")
        return np.column_stack([v_mesh.ravel(), c_mesh.ravel()])

    @cached_property
    def probe(self) -> BilinearStencil:
        """Stencil of the residual-probe grid on this sample grid."""
        probe = self.flow.probe
        return BilinearStencil(self.nv_axis, self.nc_axis, probe, probe)

    @cached_property
    def intervals(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per probe line: the enclosing axis interval and its width, per axis."""
        out = []
        for axis in (self.nv_axis, self.nc_axis):
            index = np.clip(
                np.searchsorted(axis, self.flow.probe, side="right") - 1,
                0, axis.size - 2)
            out += [index, axis[index + 1] - axis[index]]
        return tuple(out)

    def deviations(self, delays: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(B, nv, nc)`` delays → (nominal rows, deviations ``d/d_nom − 1``)."""
        nominal = delays[:, self.nominal, :]
        return nominal, delays / nominal[:, None, :] - 1.0


class _Flow:
    """The settings of one ``characterize_*`` call, in the form the waves read."""

    def __init__(self, space: ParameterSpace, n: int, subsample_factor: int,
                 method: str, adaptive: Optional[AdaptiveConfig]) -> None:
        self.space = space
        self.adaptive = adaptive
        self.n = n
        if adaptive is None:
            self.method = method
            self.subsample_factor = subsample_factor
            self.probe = np.empty(0)
        else:
            self.method = "auto"
            self.subsample_factor = SUBSAMPLE_FACTOR
            #: Residual-probe coordinates per axis.
            self.probe = np.linspace(0.0, 1.0, PROBE_GRID)

    def half_order(self, samples: int) -> int:
        """Half-order fitted on a grid of ``samples`` SPICE samples."""
        if self.adaptive is None:
            return self.n
        n = (self.adaptive.order if self.adaptive.order is not None
             else MAX_ORDER)
        while (n + 1) ** 2 > samples and n > 1:
            n -= 1
        return n


class _FitPlans:
    """The geometries one call visits, each with its fit plan.

    Owned by one ``characterize_*`` call and dropped with it: a cold
    call pays for building each geometry once, and nothing outlives the
    call or is shared between calls.
    """

    def __init__(self, space: ParameterSpace, n: int, subsample_factor: int,
                 method: str, adaptive: Optional[AdaptiveConfig]) -> None:
        self.flow = _Flow(space, n, subsample_factor, method, adaptive)
        self._geometries: Dict[Tuple[bytes, bytes], _Geometry] = {}
        if adaptive is None:
            v_axis = _paper_like_voltages(space)
            c_axis = _paper_like_loads(space)
        else:
            nv_nom = float(space.normalize_voltage(space.v_nom))
            seed_v = sorted(set(adaptive.seed_voltage_fractions) | {nv_nom})
            v_axis = np.asarray(space.denormalize_voltage(np.asarray(seed_v)))
            c_axis = np.asarray(space.denormalize_load(
                np.asarray(sorted(set(adaptive.seed_load_fractions)))))
        #: The grid every entry starts from (the only one of the fixed flow).
        self.seed = self.geometry(v_axis, c_axis)

    def geometry(self, v_axis: np.ndarray, c_axis: np.ndarray) -> _Geometry:
        key = (v_axis.tobytes(), c_axis.tobytes())
        found = self._geometries.get(key)
        if found is None:
            found = self._geometries[key] = _Geometry(self.flow, v_axis, c_axis)
        return found

    def refinement(self, geometry: _Geometry, axis: int, interval: int) -> _Refinement:
        """The bisection of ``interval`` along ``axis``, built on first use."""
        step = geometry.refinements.get((axis, interval))
        if step is None:
            step = geometry.refinements[(axis, interval)] = _Refinement(
                self, geometry, axis, interval)
        return step


class _Lane:
    """One (cell, pin, polarity) entry riding through the waves."""

    __slots__ = ("task", "pin", "polarity", "geometry", "delays", "evaluations",
                 "fresh_error", "beta", "method", "seconds", "peak", "order", "row",
                 "step", "result")

    def __init__(self, task: _CharzTask, pin: CellPin,
                 polarity: DrivePolarity) -> None:
        self.task = task
        self.pin = pin
        self.polarity = polarity
        self.fresh_error = np.inf
        self.result: Optional[PinCharacterization] = None


def _characterize(spice: AnalyticalSpice, tasks: Sequence[_CharzTask],
                  plans: _FitPlans) -> None:
    """Run a batch of cells through the flow; settles every task.

    The one implementation of steps A–C for both flows.  All entries of
    the batch advance together, one fit per **wave**: entries standing
    on the same geometry are fitted, probed and refined as one stack,
    then regrouped by the geometry they moved to.  The fixed flow is
    the one-wave case (one geometry, no refinement).  When every entry
    has stopped, order selection and diagnostics run per final
    geometry.  A failing entry fails its task (``task.error``); the
    other tasks of the batch are unaffected, so only what is not an
    ``Exception`` — an injected worker death, an interrupt — leaves this
    function.
    """
    start = time.perf_counter()
    batch = []
    for task in tasks:
        task.result = task.error = None
        batch.append((task, [_Lane(task, pin, polarity)
                             for pin, polarity in task.entries]))
    lanes = [lane for _, mine in batch for lane in mine]

    # The seed wave: every entry starts on the same grid, so its samples
    # are stacks cut like every other wave temporary.
    seed = plans.seed
    stack = max(1, _WAVE_ELEMENTS // len(seed.points))
    active: List[_Lane] = []
    for at in range(0, len(lanes), stack):
        chunk, delays = _sample(spice, lanes[at:at + stack], seed.points)
        for lane, grid in zip(chunk, delays.reshape(
                -1, seed.v_axis.size, seed.c_axis.size)):
            lane.geometry = seed
            lane.delays = grid
            lane.evaluations = int(grid.size)
        active += chunk

    stopped: List[_Lane] = []
    while active:
        active = _by_geometry(
            active,
            lambda geometry, chunk: _wave(spice, plans, geometry, chunk, stopped))
    _by_geometry(stopped, _finish, _select_orders)

    elapsed = time.perf_counter() - start
    for task, mine in batch:
        if task.error is None:
            task.result = CellCharacterization(
                cell=task.cell,
                pins=tuple(lane.result for lane in mine),
                elapsed_seconds=elapsed * len(mine) / max(len(lanes), 1),
            )


def _each(lanes: Sequence[_Lane], action) -> List[_Lane]:
    """Apply a per-entry action; an entry that raises fails its cell only.

    Returns the lanes whose cell is still alive.
    """
    for lane in lanes:
        if lane.task.error is None:
            try:
                action(lane)
            except Exception as error:  # noqa: BLE001 - failure domain is the cell
                lane.task.error = error
    return [lane for lane in lanes if lane.task.error is None]


def _sample(spice: AnalyticalSpice, lanes: List[_Lane],
            points: np.ndarray) -> Tuple[List[_Lane], np.ndarray]:
    """SPICE delays of a stack of lanes at shared ``points``: one call.

    Returns the lanes whose cell is still alive and their ``(B, m)``
    delays.  A stack that raises is replayed entry by entry, so the
    entry SPICE rejects fails its own cell and nobody else's.
    """
    try:
        return lanes, spice.delays_at(
            [lane.task.cell for lane in lanes], [lane.pin for lane in lanes],
            [lane.polarity for lane in lanes], points)
    except Exception:  # noqa: BLE001 - find the entry that raised
        rows: Dict[_Lane, np.ndarray] = {}

        def alone(lane: _Lane) -> None:
            rows[lane] = spice.delays_at(
                lane.task.cell, lane.pin, lane.polarity, points)

        lanes = _each(lanes, alone)
        return lanes, np.asarray([rows[lane] for lane in lanes]).reshape(
            len(lanes), len(points))


def _by_geometry(lanes: Sequence[_Lane], step, prepare=None) -> List[_Lane]:
    """Run ``step(geometry, chunk)`` over the lanes grouped by geometry.

    ``prepare(geometry, group)``, when given, runs once per group before
    its chunks.  A step that raises as a whole (a grid too small for the
    requested order, say) fails the cells of its chunk; a ``prepare``
    that raises fails the cells of its group.
    """
    groups: Dict[Tuple[bytes, bytes], List[_Lane]] = {}
    for lane in lanes:
        if lane.task.error is None:
            groups.setdefault(lane.geometry.key, []).append(lane)
    out: List[_Lane] = []
    for group in groups.values():
        geometry = group[0].geometry
        if prepare is not None:
            try:
                prepare(geometry, group)
            except Exception as error:  # noqa: BLE001 - failure domain is the cell
                _fail(group, error)
                continue
        for at in range(0, len(group), geometry.chunk):
            chunk = group[at:at + geometry.chunk]
            try:
                out += step(geometry, chunk) or []
            except Exception as error:  # noqa: BLE001 - failure domain is the cell
                _fail(chunk, error)
    return out


def _fail(lanes: Sequence[_Lane], error: BaseException) -> None:
    """Fail the cells of ``lanes``; a cell keeps the first error it had."""
    for lane in lanes:
        lane.task.error = lane.task.error or error


def _probe_residual(geometry: _Geometry, beta: np.ndarray,
                    deviations: np.ndarray) -> np.ndarray:
    """|fit − bilinear reference| on the probe grid, ``(B, P, P)``."""
    probe = geometry.flow.probe
    side = math.isqrt(beta.shape[1])
    residual = horner(beta.reshape(-1, 1, 1, side, side),
                      probe[:, None], probe[None, :])
    residual -= geometry.probe(deviations)
    return np.abs(residual, out=residual)


def _wave(spice: AnalyticalSpice, plans: _FitPlans, geometry: _Geometry,
          lanes: List[_Lane], stopped: List[_Lane]) -> List[_Lane]:
    """One fit → probe → refine step for a chunk of lanes on one geometry.

    The grid is refined by whole axis lines, keeping it rectilinear:
    the probe residual (fit vs bilinear reference of the samples so far)
    is projected onto each axis, and the axis whose projected peak —
    weighted by the width of the interval it falls into and discounted
    by the cost of a line on that axis — wins gets a new line bisecting
    that interval in normalized coordinates.  Every fresh line doubles
    as a validation set: the current fit's error at the new, unseen
    samples must also meet the target before an entry stops, which
    protects against the bilinear reference flattering the fit where
    samples are still sparse.

    Returns the lanes that moved to a refined geometry; lanes that met
    the target or ran out of budget are appended to ``stopped``.
    """
    config = geometry.flow.adaptive
    lanes = _each(lanes, lambda lane: faults.trip("charz.fit"))
    if not lanes:
        return []
    delays = np.stack([lane.delays for lane in lanes])
    bad = (delays[:, geometry.nominal] <= 0).any(axis=1)
    if bad.any():
        for lane, flagged in zip(lanes, bad):
            if flagged:
                lane.task.error = lane.task.error or CharacterizationError(
                    f"{lane.task.cell.name}/{lane.pin.name}: "
                    "non-positive nominal delay in sweep")
        alive = [lane.task.error is None for lane in lanes]
        lanes = [lane for lane in lanes if lane.task.error is None]
        if not lanes:
            return []
        delays = delays[alive]
    nominal, deviations = geometry.deviations(delays)

    n = geometry.fit.n
    y = geometry.dense(deviations).reshape(len(lanes), -1)
    beta, used, seconds = geometry.fit.solve(y, n, geometry.flow.method)
    for lane, row in zip(lanes, beta):
        lane.beta, lane.method, lane.seconds = row, used, seconds
    if config is None:
        stopped += lanes
        return []

    residual = _probe_residual(geometry, beta, deviations)
    v_profile = residual.max(axis=2)
    c_profile = residual.max(axis=1)
    peak = v_profile.max(axis=1)
    # Project the residual onto each axis and score the candidate
    # refinements: projected peak × enclosing-interval width, per line
    # cost (a voltage line costs one evaluation per load and vice versa).
    v_interval, v_width, c_interval, c_width = geometry.intervals
    v_at = v_profile.argmax(axis=1)
    c_at = c_profile.argmax(axis=1)
    v_score = peak * v_width[v_at]
    c_score = c_profile.max(axis=1) * c_width[c_at]
    along_v = v_score / geometry.c_axis.size >= c_score / geometry.v_axis.size

    moving: List[_Lane] = []
    for b, lane in enumerate(lanes):
        lane.peak = peak[b]
        if lane.fresh_error <= config.target_error and peak[b] <= config.target_error:
            stopped.append(lane)
            continue
        cost = geometry.c_axis.size if along_v[b] else geometry.v_axis.size
        if lane.evaluations + cost > config.budget:
            stopped.append(lane)
            continue
        lane.row = b
        lane.step = (
            plans.refinement(geometry, 0, int(v_interval[v_at[b]])) if along_v[b]
            else plans.refinement(geometry, 1, int(c_interval[c_at[b]])))
        moving.append(lane)

    by_step: Dict[_Refinement, List[_Lane]] = {}
    for lane in moving:
        by_step.setdefault(lane.step, []).append(lane)
    moved: List[_Lane] = []
    for step, movers in by_step.items():
        movers, lines = _sample(spice, movers, step.points)
        if not movers:
            continue
        moved += movers
        rows = [lane.row for lane in movers]
        if step.axis == 0:
            fresh = lines / nominal[rows] - 1.0
        else:
            fresh = lines / np.asarray([
                float(np.interp(step.coordinate, geometry.nc_axis, nominal[b]))
                for b in rows])[:, None] - 1.0
        side = n + 1
        predicted = horner(beta[rows].reshape(-1, 1, side, side), step.v, step.c)
        fresh_error = np.abs(predicted - fresh).max(axis=1)
        grown = np.insert(delays[rows], step.index, lines, axis=step.axis + 1)
        for lane, error, grid in zip(movers, fresh_error, grown):
            lane.fresh_error = float(error)
            lane.delays = grid
            lane.evaluations += len(step.points)
            lane.geometry = step.child
    return moved


def _final_samples(geometry: _Geometry, lanes: Sequence[_Lane]):
    """Delays, nominal rows, deviations and dense samples of lanes on their final grid."""
    delays = np.stack([lane.delays for lane in lanes])
    nominal, deviations = geometry.deviations(delays)
    return delays, nominal, deviations, geometry.dense(deviations).reshape(len(lanes), -1)


def _select_orders(geometry: _Geometry, lanes: List[_Lane]) -> None:
    """Cross-validated half-order of every lane that ends on ``geometry``.

    The fold operators are built once for the whole group and dropped
    before :func:`_finish` runs, so they never sit under its peak.
    """
    config = geometry.flow.adaptive
    if config is None or config.order is not None:
        return
    selection = CrossValidation(geometry.fit, range(1, geometry.fit.n + 1),
                                CV_FOLDS)
    for at in range(0, len(lanes), geometry.chunk):
        chunk = lanes[at:at + geometry.chunk]
        y = _final_samples(geometry, chunk)[3]
        for lane, choice in zip(chunk, selection.select(y, config.cv_tolerance)):
            lane.order = choice.n


def _finish(geometry: _Geometry, lanes: List[_Lane]) -> None:
    """Diagnostics and results for lanes on their final grid."""
    config = geometry.flow.adaptive
    delays, nominal, deviations, y = _final_samples(geometry, lanes)
    full_n = geometry.fit.n
    orders = np.full(len(lanes), full_n)

    if config is not None and config.order is None:
        # The CV winner replaces the full-order fit only when it keeps
        # the probe residual at least as good as max(full-order residual,
        # target) — parsimony must never cost the accuracy the refinement
        # just paid evaluations for.  The full-order residual is the peak
        # the lane's last wave measured: same grid, same fit.
        chosen = np.asarray([lane.order for lane in lanes])
        for n in np.unique(chosen[chosen < full_n]):
            rows = np.flatnonzero(chosen == n)
            beta, used, seconds = geometry.fit.solve(y[rows], int(n), "auto")
            bound = np.maximum([lanes[b].peak for b in rows], config.target_error)
            residual = _probe_residual(
                geometry, beta, deviations[rows]).max(axis=(1, 2))
            for b, row, ok in zip(rows, beta, residual <= bound):
                if ok:
                    lanes[b].beta, lanes[b].method, lanes[b].seconds = row, used, seconds
                    orders[b] = n

    fits: List[Optional[FitResult]] = [None] * len(lanes)
    for n in np.unique(orders):
        rows = np.flatnonzero(orders == n)
        results = geometry.fit.results(
            y[rows], np.stack([lanes[b].beta for b in rows]), int(n),
            [lanes[b].method for b in rows], [lanes[b].seconds for b in rows])
        for b, fit in zip(rows, results):
            fits[b] = fit

    for b, lane in enumerate(lanes):
        lane.result = PinCharacterization(
            cell_name=lane.task.cell.name,
            pin_name=lane.pin.name,
            pin_index=lane.pin.index,
            polarity=lane.polarity,
            space=geometry.flow.space,
            fit=fits[b],
            reference=GridInterpolator(
                geometry.nv_axis, geometry.nc_axis, deviations[b]),
            nominal_delays=nominal[b].copy(),
            sweep=DelayGrid(voltages=geometry.v_axis, loads=geometry.c_axis,
                            delays=delays[b]),
            evaluations=lane.evaluations,
        )


# -- grid construction helpers ---------------------------------------------------


def _deviation_reference(grid: DelayGrid, nominal_row: np.ndarray,
                         space: ParameterSpace) -> GridInterpolator:
    """Bilinear interpolator of normalized deviations over a sweep grid."""
    deviations = grid.delays / nominal_row[None, :] - 1.0
    return GridInterpolator(
        np.asarray(space.normalize_voltage(grid.voltages)),
        np.asarray(space.normalize_load(grid.loads)),
        deviations,
    )


def _paper_like_voltages(space: ParameterSpace, step: float = 0.05) -> np.ndarray:
    """Voltage sweep points: ``step`` spacing, always including v_nom."""
    count = int(round((space.v_max - space.v_min) / step)) + 1
    voltages = np.linspace(space.v_min, space.v_max, count)
    if not np.any(np.isclose(voltages, space.v_nom)):
        voltages = np.sort(np.append(voltages, space.v_nom))
    return voltages


def _paper_like_loads(space: ParameterSpace) -> np.ndarray:
    """Load sweep points: powers of two spanning the space."""
    lo = np.log2(space.c_min)
    hi = np.log2(space.c_max)
    count = int(round(hi - lo)) + 1
    return np.exp2(np.linspace(lo, hi, max(count, 2)))
