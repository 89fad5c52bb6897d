"""Grid interpolation and sub-sampling (paper Fig. 1 step B).

The SPICE sweep samples the operating-point space on a coarse grid (12
voltages × 9 loads in the paper).  Before regression, *linear
interpolation and sub-sampling on normalized data points* increases the
density of the sample grid.  The same bilinear interpolator also serves
as the *reference* against which the paper measures polynomial
approximation error ("compared to a linear approximation of the SPICE
results", Sec. V-A) — and, packaged as :class:`LutDelayModel`, as the
conventional look-up-table delay model of Sec. II that the polynomial
approach competes with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = ["BilinearStencil", "GridInterpolator", "LutDelayModel", "subsample"]


@dataclass(frozen=True)
class GridInterpolator:
    """Bilinear interpolation of values sampled on a rectilinear grid.

    Axes are arbitrary strictly-increasing coordinates (the
    characterization flow uses *normalized* coordinates, making the
    power-of-two load axis equidistant).
    """

    x_axis: np.ndarray
    y_axis: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x_axis, dtype=np.float64)
        y = np.asarray(self.y_axis, dtype=np.float64)
        z = np.asarray(self.values, dtype=np.float64)
        if z.shape != (len(x), len(y)):
            raise ValueError(
                f"value grid {z.shape} does not match axes ({len(x)}, {len(y)})"
            )
        if len(x) < 1 or len(y) < 1:
            raise ValueError("interpolation grid needs at least 1x1 samples")
        if np.any(np.diff(x) <= 0) or np.any(np.diff(y) <= 0):
            raise ValueError("grid axes must be strictly increasing")
        object.__setattr__(self, "x_axis", x)
        object.__setattr__(self, "y_axis", y)
        object.__setattr__(self, "values", z)

    def __call__(self, x, y):
        """Interpolate at ``(x, y)``; scalars or broadcastable arrays.

        Queries outside the grid are clamped to the boundary (flat
        extrapolation), mirroring how LUT-based tools treat out-of-corner
        parameters.
        """
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        scalar = np.ndim(x) == 0 and np.ndim(y) == 0
        x_b, y_b = np.broadcast_arrays(x, y)

        xi, xj, tx = self._locate(self.x_axis, x_b)
        yi, yj, ty = self._locate(self.y_axis, y_b)

        v00 = self.values[xi, yi]
        v01 = self.values[xi, yj]
        v10 = self.values[xj, yi]
        v11 = self.values[xj, yj]
        result = (
            v00 * (1 - tx) * (1 - ty)
            + v10 * tx * (1 - ty)
            + v01 * (1 - tx) * ty
            + v11 * tx * ty
        )
        return float(result) if scalar else result

    @staticmethod
    def _locate(axis: np.ndarray, queries: np.ndarray):
        """Cell index pair and interpolation weight along one axis.

        A single-sample axis is *flat*: every query maps to the lone
        sample with zero weight toward the (identical) upper neighbor,
        which makes single-row/-column grids interpolate as constants
        along that axis.
        """
        if len(axis) == 1:
            zero = np.zeros(queries.shape, dtype=np.intp)
            return zero, zero, np.zeros(queries.shape, dtype=np.float64)
        lo = np.clip(np.searchsorted(axis, queries, side="right") - 1, 0,
                     len(axis) - 2)
        hi = lo + 1
        t = np.clip((queries - axis[lo]) / (axis[hi] - axis[lo]), 0.0, 1.0)
        return lo, hi, t


class BilinearStencil:
    """Bilinear interpolation onto fixed query axes, located once.

    Where a query falls on a grid depends on the axes only, not on the
    sampled values: the stencil holds the cell indices and weights of
    the outer-product queries ``(x_queries[:, None], y_queries[None, :])``
    on the grid ``(x_axis, y_axis)`` and applies them to any number of
    value grids at once.  The blend is the expression of
    :meth:`GridInterpolator.__call__`, term for term, so a stencil
    answers bit-identically to an interpolator over the same samples.
    """

    def __init__(self, x_axis: np.ndarray, y_axis: np.ndarray,
                 x_queries: np.ndarray, y_queries: np.ndarray) -> None:
        self.x_queries = np.asarray(x_queries, dtype=np.float64)
        self.y_queries = np.asarray(y_queries, dtype=np.float64)
        self._xi, self._xj, tx = GridInterpolator._locate(x_axis, self.x_queries)
        self._yi, self._yj, ty = GridInterpolator._locate(y_axis, self.y_queries)
        self._tx, self._ux = tx[:, None], (1 - tx)[:, None]
        self._ty, self._uy = ty, 1 - ty

    def __call__(self, values: np.ndarray) -> np.ndarray:
        """Interpolate ``(..., nx, ny)`` value grids to ``(..., qx, qy)``."""
        low = values[..., self._xi, :]
        high = values[..., self._xj, :]

        def corner(rows, columns, x_weight, y_weight):
            term = rows[..., columns]
            term *= x_weight
            term *= y_weight
            return term

        result = corner(low, self._yi, self._ux, self._uy)
        result += corner(high, self._yi, self._tx, self._uy)
        result += corner(low, self._yj, self._ux, self._ty)
        result += corner(high, self._yj, self._tx, self._ty)
        return result


def subsample(interpolator: GridInterpolator, factor: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Densify a grid by bilinear sub-sampling (Fig. 1 step B).

    Each original cell is split into ``factor`` sub-cells per axis.
    Returns the new ``(x_axis, y_axis, values)`` with the original
    samples preserved at their positions.
    """
    x_new = densify(interpolator.x_axis, factor)
    y_new = densify(interpolator.y_axis, factor)
    stencil = BilinearStencil(interpolator.x_axis, interpolator.y_axis, x_new, y_new)
    return x_new, y_new, stencil(interpolator.values)


def densify(axis: np.ndarray, factor: int) -> np.ndarray:
    """Insert ``factor − 1`` equidistant points inside every axis segment."""
    if factor < 1:
        raise ValueError("subsample factor must be >= 1")
    if factor == 1:
        return axis.copy()
    pieces = []
    for left, right in zip(axis[:-1], axis[1:]):
        pieces.append(np.linspace(left, right, factor, endpoint=False))
    pieces.append(np.asarray([axis[-1]]))
    return np.concatenate(pieces)


class LutDelayModel:
    """Conventional LUT delay model: bilinear interpolation of raw delays.

    This is the Sec. II state-of-the-art comparator: per (cell, pin,
    polarity) a table of absolute delays over parameter corners,
    interpolated at simulation time.  It trades memory (full grid per
    entry) for lookup cost, whereas the polynomial kernel stores
    ``(N+1)²`` coefficients.
    """

    def __init__(self, voltages: np.ndarray, loads: np.ndarray, delays: np.ndarray) -> None:
        # Interpolate linearly in (v, log2 c) like real liberty tables.
        self._interp = GridInterpolator(
            x_axis=np.asarray(voltages, dtype=np.float64),
            y_axis=np.log2(np.asarray(loads, dtype=np.float64)),
            values=np.asarray(delays, dtype=np.float64),
        )
        self.table_entries = self._interp.values.size

    def delay(self, v, c):
        """Absolute propagation delay at ``(v, c)`` in seconds."""
        return self._interp(v, np.log2(np.asarray(c, dtype=np.float64)))
