"""Compiled delay-kernel tables (paper Sec. III-D / IV-A).

After characterization, each (cell type, input pin, transition polarity)
entry is represented *solely* by its ``(N+1)²`` polynomial coefficients.
The table stores them in one dense double-precision array indexed by

    ``coefficients[type_id, pin_index, polarity]  →  (N+1, N+1)``

mirroring the "constant double-precision floating-point array structure
in the global memory" of the GPU implementation.  The evaluation methods
are the *delay computation kernels*: the same Horner-form function for
every thread, parameterized only by the selected coefficients, so no
thread divergence arises across parallel circuit instances (Sec. IV-B).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple

import numpy as np

from repro.cells.cell import DrivePolarity
from repro.core.parameters import ParameterSpace
from repro.errors import CharacterizationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.characterization import LibraryCharacterization

__all__ = ["DelayKernelTable", "horner2d"]

#: Delays are clipped to this floor (seconds) so numerical extrapolation
#: can never produce a zero or negative propagation delay.
MIN_DELAY = 1e-15


def horner2d(coefficients: np.ndarray, v, c):
    """Evaluate 2-D polynomial(s) in nested Horner form.

    ``coefficients`` has shape ``(..., N+1, N+1)``; ``v`` and ``c``
    broadcast against the leading dimensions.  Every step is one
    multiply-add — the FMA-friendly formulation of Sec. IV.
    """
    coefficients = np.asarray(coefficients, dtype=np.float64)
    n1 = coefficients.shape[-1]
    v = np.asarray(v, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    shape = np.broadcast(coefficients[..., 0, 0], v, c).shape
    result = np.zeros(shape, dtype=np.float64)
    for i in range(n1 - 1, -1, -1):
        inner = np.zeros(shape, dtype=np.float64)
        for j in range(n1 - 1, -1, -1):
            inner = inner * c + coefficients[..., i, j]
        result = result * v + inner
    return result


@dataclass
class DelayKernelTable:
    """Dense coefficient storage plus the delay-computation kernel.

    Attributes
    ----------
    coefficients:
        Shape ``(num_types, max_pins, 2, N+1, N+1)`` float64.  Unused pin
        slots are zero-filled (they evaluate to zero deviation but are
        never selected by a well-formed netlist).
    pin_counts:
        Number of input pins per type id, shape ``(num_types,)``.
    type_names:
        Cell name per type id (same order as the source library).
    space:
        Parameter space whose normalizations the kernels expect.
    """

    coefficients: np.ndarray
    pin_counts: np.ndarray
    type_names: Tuple[str, ...]
    space: ParameterSpace

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coefficients, dtype=np.float64)
        if coeffs.ndim != 5 or coeffs.shape[2] != 2 or coeffs.shape[3] != coeffs.shape[4]:
            raise CharacterizationError(
                f"kernel table has invalid shape {coeffs.shape}"
            )
        if len(self.type_names) != coeffs.shape[0]:
            raise CharacterizationError("type_names length mismatch")
        self.coefficients = coeffs
        self.pin_counts = np.asarray(self.pin_counts, dtype=np.int64)

    # -- structure -------------------------------------------------------------

    @property
    def num_types(self) -> int:
        return self.coefficients.shape[0]

    @property
    def max_pins(self) -> int:
        return self.coefficients.shape[1]

    @property
    def n(self) -> int:
        """Polynomial half-order N."""
        return self.coefficients.shape[-1] - 1

    @property
    def order(self) -> int:
        return 2 * self.n

    @property
    def memory_bytes(self) -> int:
        """Coefficient storage footprint (Sec. V-A memory discussion)."""
        return self.coefficients.nbytes

    def type_id(self, cell_name: str) -> int:
        try:
            return self.type_names.index(cell_name)
        except ValueError:
            raise CharacterizationError(
                f"cell {cell_name!r} not in kernel table"
            ) from None

    # -- kernels -----------------------------------------------------------------

    def deviation(self, type_id: int, pin_index: int, polarity: DrivePolarity, v, c):
        """Relative delay deviation ``f(P)`` at raw operating points."""
        nv = self.space.normalize_voltage(v)
        nc = self.space.normalize_load(c)
        coeffs = self.coefficients[type_id, pin_index, int(polarity)]
        return horner2d(coeffs, nv, nc)

    def delay(self, d_nom, type_id: int, pin_index: int, polarity: DrivePolarity, v, c):
        """Adapted delay ``d' = d_nom · (1 + f(P))`` (paper Eq. 9)."""
        deviation = self.deviation(type_id, pin_index, polarity, v, c)
        return np.maximum(np.asarray(d_nom, dtype=np.float64) * (1.0 + deviation),
                          MIN_DELAY)

    def delays_for_gates(
        self,
        type_ids: np.ndarray,
        loads: np.ndarray,
        nominal_delays: np.ndarray,
        voltages: np.ndarray,
    ) -> np.ndarray:
        """Batch kernel: per-gate, per-pin, per-polarity, per-slot delays.

        This is the online delay-calculation phase of Sec. IV-A executed
        for a whole gate batch at once.

        Parameters
        ----------
        type_ids:
            Gate cell-type ids, shape ``(G,)``.
        loads:
            Gate output load capacitances in farads, shape ``(G,)``.
        nominal_delays:
            SDF nominal pin-to-pin delays, shape ``(G, pins, 2)``; the
            pin dimension may be narrower than the table's ``max_pins``
            (a circuit without 4-input cells compiles to fewer pins).
        voltages:
            Slot supply voltages, shape ``(S,)`` — one per parallel
            circuit instance.

        Returns
        -------
        Array of shape ``(G, pins, 2, S)`` with adapted delays.
        """
        nv = np.asarray(self.space.normalize_voltage(voltages), dtype=np.float64)
        nc = np.asarray(self.space.normalize_load(loads), dtype=np.float64)
        return self.delays_from_normalized(type_ids, nv, nc, nominal_delays)

    def delays_from_normalized(
        self,
        type_ids: np.ndarray,
        nv: np.ndarray,
        nc: np.ndarray,
        nominal_delays: np.ndarray,
    ) -> np.ndarray:
        """:meth:`delays_for_gates` with pre-normalized predictors.

        ``nv`` is ``φ_V`` of the slot voltages, ``nc`` is ``φ_C`` of the
        per-gate loads.  The engine's level loop caches both on the
        compiled circuit (:class:`~repro.simulation.compiled.CircuitPlans`)
        so repeated jobs skip the normalization pass; evaluation here is
        the exact op sequence of :meth:`delays_for_gates`, so results
        stay bit-identical.
        """
        type_ids = np.asarray(type_ids, dtype=np.int64)
        nominal_delays = np.asarray(nominal_delays, dtype=np.float64)
        pins = nominal_delays.shape[1]
        if pins > self.max_pins:
            raise CharacterizationError(
                f"gates have {pins} pins but the kernel table holds "
                f"{self.max_pins}"
            )
        nv = np.asarray(nv, dtype=np.float64)
        nc = np.asarray(nc, dtype=np.float64)
        # Follow the caller's pin dimension and insert a slot axis so the
        # coefficient dims (G, P, 2, 1) broadcast against the slot
        # voltages (S,) and per-gate loads (G, 1, 1, 1).
        coeffs = self.coefficients[type_ids][:, :pins, :, None]  # (G, P, 2, 1, n1, n1)
        deviation = horner2d(
            coeffs,
            nv[None, None, None, :],
            nc[:, None, None, None],
        )  # (G, P, 2, S)
        d_nom = nominal_delays[..., None]
        return np.maximum(d_nom * (1.0 + deviation), MIN_DELAY)

    # -- construction ---------------------------------------------------------------

    @classmethod
    def from_characterization(cls, characterization: "LibraryCharacterization") -> "DelayKernelTable":
        """Compile step D: pack all fitted polynomials into one table."""
        library = characterization.library
        names = tuple(library.names())
        max_pins = max(cell.num_inputs for cell in library)
        # Entries may carry different half-orders (the adaptive flow
        # selects per entry); the dense table is sized for the largest
        # and smaller grids are zero-padded at the high-power end, which
        # evaluates bit-identically under Horner.
        n1 = max(
            [characterization.n + 1]
            + [entry.fit.polynomial.coefficients.shape[0]
               for entry in characterization.all_entries()]
        )
        coefficients = np.zeros((len(names), max_pins, 2, n1, n1), dtype=np.float64)
        pin_counts = np.zeros(len(names), dtype=np.int64)
        for type_id, name in enumerate(names):
            cell_char = characterization.cells[name]
            pin_counts[type_id] = cell_char.cell.num_inputs
            for entry in cell_char.pins:
                grid = entry.fit.polynomial.coefficients
                side = grid.shape[0]
                coefficients[type_id, entry.pin_index, int(entry.polarity),
                             :side, :side] = grid
        return cls(
            coefficients=coefficients,
            pin_counts=pin_counts,
            type_names=names,
            space=characterization.space,
        )

    # -- persistence -------------------------------------------------------------------

    def save(self, path: str) -> None:
        """Persist to an ``.npz`` archive."""
        meta = {
            "type_names": list(self.type_names),
            "space": {
                "v_min": self.space.v_min,
                "v_max": self.space.v_max,
                "c_min": self.space.c_min,
                "c_max": self.space.c_max,
                "v_nom": self.space.v_nom,
            },
        }
        np.savez(
            path,
            coefficients=self.coefficients,
            pin_counts=self.pin_counts,
            meta=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
        )

    @classmethod
    def load(cls, path: str) -> "DelayKernelTable":
        with np.load(path) as archive:
            meta = json.loads(bytes(archive["meta"].tobytes()).decode("utf-8"))
            space = ParameterSpace(**meta["space"])
            return cls(
                coefficients=archive["coefficients"],
                pin_counts=archive["pin_counts"],
                type_names=tuple(meta["type_names"]),
                space=space,
            )
