"""Persistent coefficient cache for cell characterizations.

Characterizing a library is the dominant preprocessing cost (the paper
reports minutes of SPICE per cell); the results are pure functions of
the cell geometry, the process corner, the parameter space and the flow
settings.  This module keys fitted coefficient sets by exactly that
identity (:func:`repro.runtime.fingerprint.characterization_fingerprint`)
and stores them in two layers:

* a **process-wide memo** — repeated ``characterize_library`` calls in
  one process (experiments, the service, the AVFS loop) share the same
  :class:`~repro.core.characterization.CellCharacterization` objects;
* an **on-disk store** — one ``.npz`` per cell under a cache directory
  (``REPRO_CHARZ_CACHE`` or ``~/.cache/repro/charz``), written atomically
  (tmp + ``os.replace``) so concurrent writers and crashes can never
  leave a torn file.  A warm disk cache makes re-characterization of an
  unchanged library **zero** SPICE evaluations in a fresh process.

A record is two zip members however many pins the cell has: ``meta``,
a JSON document with the schema number, the cell name and per entry its
identity, fit statistics and *extents* (coefficient side, voltage and
load counts), and ``packed``, one float64 array holding every (pin,
polarity) entry in entry order — per entry its :data:`_PARTS`, each
flattened — from which the loader slices the entries back out by those
extents.  Writing and reading cost per zip member, not per byte, so a
record costs the same for a twelve-entry cell as for an inverter.

A file that cannot be served — a torn or truncated archive, another
schema, another cell's record, extents that do not add up to the array
lengths — has one outcome: it is removed and counted a miss.  The cache
can only ever cost a re-characterization, never wrong coefficients.
"""

from __future__ import annotations

import json
import math
import os
import threading
from typing import Dict, Optional

import numpy as np

from repro.store import atomic_write

__all__ = ["CACHE_ENV", "CoefficientCache", "default_cache_dir"]

#: Environment variable overriding the default on-disk cache directory.
CACHE_ENV = "REPRO_CHARZ_CACHE"

#: Bump when the stored payload or its semantics change: old entries
#: become misses instead of deserialization errors.
_SCHEMA = 3

#: The parts of one (pin, polarity) entry, in their order in ``packed``.
_PARTS = {
    "coefficients": lambda pin: pin.fit.polynomial.coefficients,
    "nominal": lambda pin: pin.nominal_delays,
    "sweep_voltages": lambda pin: pin.sweep.voltages,
    "sweep_loads": lambda pin: pin.sweep.loads,
    "sweep_delays": lambda pin: pin.sweep.delays,
}

_MEMO: Dict[str, object] = {}
_MEMO_LOCK = threading.Lock()


def default_cache_dir() -> str:
    """``$REPRO_CHARZ_CACHE`` or the per-user cache directory."""
    override = os.environ.get(CACHE_ENV, "").strip()
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "repro", "charz")


class CoefficientCache:
    """Two-layer (memo + disk) cache of per-cell characterizations."""

    def __init__(self, directory: Optional[str] = None) -> None:
        self.directory = str(directory) if directory is not None else default_cache_dir()
        self.memo_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self._lock = threading.Lock()

    # -- bookkeeping ----------------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            return {
                "memo_hits": self.memo_hits,
                "disk_hits": self.disk_hits,
                "misses": self.misses,
                "directory": self.directory,
            }

    @staticmethod
    def clear_memo() -> None:
        """Drop the process-wide memo (tests; disk entries survive)."""
        with _MEMO_LOCK:
            _MEMO.clear()

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key[:2], f"{key}.npz")

    # -- lookup ---------------------------------------------------------------

    def get(self, key: str, cell, space):
        """The cached characterization of ``cell`` under ``key``, or None."""
        with _MEMO_LOCK:
            hit = _MEMO.get(key)
        if hit is not None:
            with self._lock:
                self.memo_hits += 1
            return hit
        loaded = self._load(key, cell, space)
        if loaded is not None:
            with _MEMO_LOCK:
                _MEMO.setdefault(key, loaded)
            with self._lock:
                self.disk_hits += 1
            return loaded
        with self._lock:
            self.misses += 1
        return None

    def put(self, key: str, cell_characterization) -> None:
        """Memoize and persist one cell's characterization under ``key``."""
        with _MEMO_LOCK:
            _MEMO[key] = cell_characterization
        try:
            self._store(key, cell_characterization)
        except OSError:
            # An unwritable cache directory degrades to memo-only.
            pass

    # -- disk layer -----------------------------------------------------------

    def _store(self, key: str, cell_char) -> None:
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        pins = cell_char.pins
        meta = {
            "schema": _SCHEMA,
            "cell": cell_char.cell.name,
            "elapsed_seconds": cell_char.elapsed_seconds,
            "entries": [{
                "pin_name": pin.pin_name,
                "pin_index": pin.pin_index,
                "polarity": int(pin.polarity),
                "evaluations": pin.evaluations,
                # The entry's extents in the cell's packed arrays.
                "side": pin.fit.polynomial.n + 1,
                "voltages": int(pin.sweep.voltages.size),
                "loads": int(pin.sweep.loads.size),
                "fit": {
                    "mean_abs_error": pin.fit.mean_abs_error,
                    "rms_error": pin.fit.rms_error,
                    "max_abs_error": pin.fit.max_abs_error,
                    "r_squared": pin.fit.r_squared,
                    "condition_number": pin.fit.condition_number,
                    "sample_count": pin.fit.sample_count,
                    "method": pin.fit.method,
                },
            } for pin in pins],
        }
        packed = np.concatenate([np.ravel(part(pin)) for pin in pins
                                 for part in _PARTS.values()])
        meta_bytes = np.frombuffer(
            json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8)
        atomic_write(path, lambda stream: np.savez(
            stream, meta=meta_bytes, packed=packed))

    def _load(self, key: str, cell, space):
        from repro.cells.cell import DrivePolarity
        from repro.core.characterization import (
            CellCharacterization,
            PinCharacterization,
            _deviation_reference,
        )
        from repro.core.polynomial import SurfacePolynomial
        from repro.core.regression import FitResult
        from repro.electrical.spice import DelayGrid

        path = self._path(key)
        if not os.path.exists(path):
            return None
        try:
            with np.load(path) as archive:
                meta = json.loads(bytes(archive["meta"].tobytes()).decode("utf-8"))
                if meta.get("schema") != _SCHEMA or meta.get("cell") != cell.name:
                    raise ValueError("record of another schema or cell")
                packed = archive["packed"]
                at = 0  # consumed front to back by the entries' extents

                def take(*shape: int) -> np.ndarray:
                    nonlocal at
                    start, at = at, at + math.prod(shape)
                    return packed[start:at].reshape(shape)  # raises when it ran out

                pins = []
                for entry in meta["entries"]:
                    side, nv, nc = entry["side"], entry["voltages"], entry["loads"]
                    # The entry's parts, in :data:`_PARTS` order.
                    coefficients = take(side, side)
                    nominal = take(nc)
                    sweep = DelayGrid(voltages=take(nv), loads=take(nc),
                                      delays=take(nv, nc))
                    stats = entry["fit"]
                    fit = FitResult(
                        polynomial=SurfacePolynomial(coefficients),
                        mean_abs_error=stats["mean_abs_error"],
                        rms_error=stats["rms_error"],
                        max_abs_error=stats["max_abs_error"],
                        r_squared=stats["r_squared"],
                        condition_number=stats["condition_number"],
                        sample_count=stats["sample_count"],
                        solve_seconds=0.0,
                        method=stats["method"],
                    )
                    pins.append(PinCharacterization(
                        cell_name=cell.name,
                        pin_name=entry["pin_name"],
                        pin_index=entry["pin_index"],
                        polarity=DrivePolarity(entry["polarity"]),
                        space=space,
                        fit=fit,
                        reference=_deviation_reference(sweep, nominal, space),
                        nominal_delays=nominal,
                        sweep=sweep,
                        evaluations=entry["evaluations"],
                    ))
                if at != packed.size:
                    raise ValueError("extents do not add up to the packed array")
                return CellCharacterization(
                    cell=cell,
                    pins=tuple(pins),
                    elapsed_seconds=float(meta.get("elapsed_seconds", 0.0)),
                )
        except Exception:
            # A file that cannot be served — torn or truncated archive,
            # another schema or cell, extents that disagree with the
            # arrays — is dropped and the cell re-fitted.
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
