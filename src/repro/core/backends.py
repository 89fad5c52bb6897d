"""Alternative delay-model backends (paper Sec. IV-B closing remark).

    "Note that although this work utilizes polynomials for the delay
     calculation [20], analytical models [17, 18] and other types of
     approximations [21] can be applied as well."

Every simulation engine only requires the ``delays_for_gates`` protocol
(the :class:`~repro.core.delay_kernel.DelayKernelTable` batch kernel),
so delay models are pluggable.  This module provides the two families
the paper cites as alternatives:

* :class:`LutDelayBackend` — the *conventional* approach of Sec. II:
  per-entry look-up tables over the operating-point grid, bilinearly
  interpolated at simulation time.  Accurate but memory-hungry (a full
  grid per entry instead of ``(N+1)²`` coefficients).
* :class:`AnalyticalDelayBackend` — a closed-form α-power-law derating
  (refs. [16–18]): one rational voltage function per transition
  polarity, shared by *all* cells and loads.  Tiny and fast, but blind
  to per-cell and load-dependent sensitivity differences — the accuracy
  compromise the paper's learned kernels remove.

``benchmarks/bench_lut_vs_poly.py`` quantifies the trade-offs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple

import numpy as np

from repro.cells.cell import DrivePolarity
from repro.core.delay_kernel import MIN_DELAY
from repro.core.parameters import ParameterSpace
from repro.electrical.alpha_power import AlphaPowerParams
from repro.errors import CharacterizationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.characterization import LibraryCharacterization

__all__ = ["LutDelayBackend", "AnalyticalDelayBackend"]


class LutDelayBackend:
    """Conventional LUT delay model, drop-in for the kernel table.

    Stores the characterization's *reference* deviation grids (the
    linearly interpolated SPICE samples) for every (cell type, pin,
    polarity) and answers delay queries by bilinear interpolation over
    normalized ``(φ_V, φ_C)`` — the Sec. II state of the art, running
    inside the same parallel engine.
    """

    def __init__(self, grids: np.ndarray, nv_axis: np.ndarray,
                 nc_axis: np.ndarray, space: ParameterSpace,
                 type_names: Tuple[str, ...]) -> None:
        if grids.ndim != 5 or grids.shape[2] != 2:
            raise CharacterizationError(f"bad LUT grid shape {grids.shape}")
        self.grids = grids                      # (types, pins, 2, NV, NC)
        self.nv_axis = nv_axis
        self.nc_axis = nc_axis
        self.space = space
        self.type_names = type_names

    @classmethod
    def from_characterization(
        cls, characterization: "LibraryCharacterization"
    ) -> "LutDelayBackend":
        library = characterization.library
        names = tuple(library.names())
        max_pins = max(cell.num_inputs for cell in library)
        first = next(iter(characterization.all_entries()))
        nv_axis = first.reference.x_axis
        nc_axis = first.reference.y_axis
        grids = np.zeros(
            (len(names), max_pins, 2, nv_axis.size, nc_axis.size))
        for type_id, name in enumerate(names):
            for entry in characterization.cells[name].pins:
                if (entry.reference.x_axis.shape != nv_axis.shape
                        or entry.reference.y_axis.shape != nc_axis.shape):
                    raise CharacterizationError(
                        "inconsistent sweep grids across entries")
                grids[type_id, entry.pin_index, int(entry.polarity)] = \
                    entry.reference.values
        return cls(grids, nv_axis, nc_axis, characterization.space, names)

    @property
    def memory_bytes(self) -> int:
        return self.grids.nbytes

    def delays_for_gates(
        self,
        type_ids: np.ndarray,
        loads: np.ndarray,
        nominal_delays: np.ndarray,
        voltages: np.ndarray,
    ) -> np.ndarray:
        """Same contract as :meth:`DelayKernelTable.delays_for_gates`."""
        type_ids = np.asarray(type_ids, dtype=np.int64)
        nominal_delays = np.asarray(nominal_delays, dtype=np.float64)
        pins = nominal_delays.shape[1]
        # The sweep spans the box: a supply or load inside it stays on
        # the grid, one outside raises instead of reading the edge's.
        nv = np.asarray(self.space.normalize_voltage(
            self.space.require(voltages)))
        nc = np.asarray(self.space.normalize_load(
            self.space.require_loads(loads)))

        iv = np.clip(np.searchsorted(self.nv_axis, nv, side="right") - 1,
                     0, self.nv_axis.size - 2)
        tv = (nv - self.nv_axis[iv]) / (self.nv_axis[iv + 1] - self.nv_axis[iv])
        ic = np.clip(np.searchsorted(self.nc_axis, nc, side="right") - 1,
                     0, self.nc_axis.size - 2)
        tc = (nc - self.nc_axis[ic]) / (self.nc_axis[ic + 1] - self.nc_axis[ic])

        grids = self.grids[type_ids, :pins]              # (G, P, 2, NV, NC)
        low = grids[:, :, :, iv, :]                      # (G, P, 2, V, NC)
        high = grids[:, :, :, iv + 1, :]
        along_v = low * (1.0 - tv)[None, None, None, :, None] + \
            high * tv[None, None, None, :, None]

        ic_sel = ic[:, None, None, None, None]
        c0 = np.take_along_axis(along_v, ic_sel, axis=4)[..., 0]
        c1 = np.take_along_axis(along_v, ic_sel + 1, axis=4)[..., 0]
        deviation = c0 * (1.0 - tc)[:, None, None, None] + \
            c1 * tc[:, None, None, None]                 # (G, P, 2, V)

        return np.maximum(nominal_delays[..., None] * (1.0 + deviation),
                          MIN_DELAY)


@dataclass
class AnalyticalDelayBackend:
    """Closed-form α-power derating shared by every cell and load.

    The deviation is the pure supply-voltage factor of the paper's Eq. 1:
    ``f(v) = τ(v) / τ(v_nom) − 1`` with one :class:`AlphaPowerParams`
    per output polarity.  Cheap (no per-cell storage at all) but it
    cannot express per-cell, per-pin or load-dependent sensitivity —
    the simplification typical of analytical timing models.
    """

    rise: AlphaPowerParams
    fall: AlphaPowerParams
    space: ParameterSpace

    @classmethod
    def from_corner(cls, corner, space: ParameterSpace) -> "AnalyticalDelayBackend":
        """Use a corner's load time constants as the derating functions."""
        return cls(
            rise=corner.load_params(DrivePolarity.RISE),
            fall=corner.load_params(DrivePolarity.FALL),
            space=space,
        )

    def delays_for_gates(
        self,
        type_ids: np.ndarray,
        loads: np.ndarray,
        nominal_delays: np.ndarray,
        voltages: np.ndarray,
    ) -> np.ndarray:
        nominal_delays = np.asarray(nominal_delays, dtype=np.float64)
        voltages = np.asarray(self.space.require(voltages),
                              dtype=np.float64)
        deviation = np.stack(
            [params(voltages) / params(self.space.v_nom) - 1.0
             for params in (self.rise, self.fall)]
        )                                                  # (2, V)
        adapted = nominal_delays[..., None] * \
            (1.0 + deviation[None, None, :, :])            # (G, P, 2, V)
        return np.maximum(adapted, MIN_DELAY)
