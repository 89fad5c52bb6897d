"""Incremental re-simulation: cached base arenas and delta plans.

A closed AVFS loop is near-duplicate traffic — the same circuit
re-simulated under the same stimuli at operating points it has visited
before (a settled controller revisits one quantized supply every
iteration).  An exact-fingerprint cache cannot exploit a near miss: one
flipped input or one new voltage misses, and the whole dense/sparse
simulation runs again.

This module holds the pieces that make *partial* reuse possible:

* :class:`BaseArena` — a compact, self-contained snapshot of one run's
  full internal waveform state (a
  :class:`~repro.waveform.plane.WaveformPlane` over every net, plus the
  stimuli and operating points that produced it).  The engine captures
  one as a by-product of a normal run (``capture_base=True``) and the
  closed loop (:mod:`repro.avfs.loop.runner`) retains it per visited
  supply — the repo's one delta ring.
* :class:`DeltaPlan` — the per-slot mapping of an incoming job onto a
  base arena: which base slot each job slot reuses (``-1`` = no match).
  A slot is mapped only onto a base slot it matches exactly — the same
  stimulus rows, the same voltage and, under Monte-Carlo variation, the
  same global slot — so the engine splices every mapped slot whole out
  of the base, bit-identical by construction, and lowers every other
  slot like any slot of a plain run.
* :func:`select_delta` — the cheap base-selection policy: compare the
  job's stimuli/operating points against every retained base, pick the
  base that serves the most slots, and refuse (return ``None``) when
  the unmapped share reaches the fallback threshold.

Correctness requirements baked into the layout:

* ``starts[net, slot]`` are arbitrary offsets into ``times`` — each
  ``(net, slot)`` block is contiguous and ascending, but there is no
  global ordering requirement.
* Monte-Carlo splice safety is keyed on ``global_slots``: per-die delay
  factors derive deterministically from the global slot index, so a
  base slot is only eligible for a variation-bearing job when its
  global slot matches — a spliced slot then carries the randomness a
  recomputed one would.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.waveform.plane import WaveformPlane

__all__ = ["BaseArena", "DeltaPlan", "select_delta"]


@dataclass
class BaseArena:
    """Snapshot of one run's full waveform state, splice-ready.

    ``plane`` holds every real net of the circuit (net-id order) over
    the run's slots; ``v1``/``v2`` are the per-slot stimulus planes
    ``(num_slots, width)`` and ``voltages`` / ``global_slots`` the
    per-slot operating points — everything :func:`select_delta` needs
    to match a new job without touching the payload.  Results may share
    it: a capturing run recording all nets returns this same plane as
    its result, and a later run that splices every slot of it in order
    — capturing nothing, with no ``segments`` — returns it again
    (outputs only: a row view over its payload).
    """

    plane: WaveformPlane
    v1: np.ndarray
    v2: np.ndarray
    voltages: np.ndarray
    global_slots: np.ndarray

    @property
    def num_nets(self) -> int:
        return self.plane.num_nets

    @property
    def num_slots(self) -> int:
        return self.plane.num_slots


@dataclass
class DeltaPlan:
    """Per-slot mapping of a job onto a :class:`BaseArena`.

    ``base_slot[s]`` is the base slot job slot ``s`` is spliced from —
    one it matches exactly: the same stimulus rows, voltage and, under
    variation, global slot (``GpuWaveSim.run`` checks) — or ``-1``: the
    slot is simulated like any slot of a plain run.
    """

    base: BaseArena
    base_slot: np.ndarray

    def take(self, indices: np.ndarray) -> "DeltaPlan":
        return DeltaPlan(self.base, self.base_slot[indices])


def select_delta(bases: Sequence[BaseArena], v1: np.ndarray,
                 v2: np.ndarray, pattern_indices: np.ndarray,
                 voltages: np.ndarray, global_slots: Optional[np.ndarray],
                 variation, threshold: float
                 ) -> Optional[Tuple[DeltaPlan, float]]:
    """Pick the best base for a job, or ``None`` to run the full path.

    ``v1``/``v2`` are the job's stacked pattern planes ``(P, width)``;
    ``pattern_indices``/``voltages`` its slot plane.  A job slot maps
    onto a base slot only when it matches it exactly: equal stimulus
    rows, the same voltage (delay tables are voltage-dependent) and —
    under Monte-Carlo ``variation`` — the same global slot index (die
    factors derive from it).  The base serving the most job slots wins,
    the earliest one on a tie, and each served slot maps onto the
    lowest matching base slot.  The fraction returned is the share of
    job slots left unmapped; at ``frac >= threshold`` the job is not
    worth a delta pass and the caller falls back to full simulation.
    """
    width = v1.shape[1]
    # A base of another input width (a foreign circuit) or without
    # slots can serve nothing.
    ring = [base for base in bases
            if base.v1.shape[1] == width and base.v1.shape[0]]
    if width == 0 or not ring:
        return None
    pattern_indices = np.asarray(pattern_indices, dtype=np.int64)
    num_slots = pattern_indices.shape[0]
    voltages = np.asarray(voltages, dtype=np.float64)

    # One comparison over the whole ring: the candidates' slots side by
    # side along one axis, ``offsets`` marking where each base begins.
    def stacked(name: str) -> np.ndarray:
        arrays = [getattr(base, name) for base in ring]
        return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)

    offsets = list(accumulate(
        (base.v1.shape[0] for base in ring[:-1]), initial=0))
    # Compare per distinct *pattern* (P x ring slots), then gather per
    # job slot — a multi-voltage plane repeats each pattern at every
    # operating point, so this is a num_voltages-fold saving over the
    # naive per-slot broadcast.
    same = ((v1[:, None, :] == stacked("v1")[None, :, :])
            & (v2[:, None, :] == stacked("v2")[None, :, :])).all(axis=2)
    match = (same[pattern_indices]
             & (voltages[:, None] == stacked("voltages")[None, :]))
    if variation is not None:
        if global_slots is None:
            global_slots = np.arange(num_slots, dtype=np.int64)
        match &= (np.asarray(global_slots, dtype=np.int64)[:, None]
                  == stacked("global_slots")[None, :])
    # Per base, which job slots it serves; ``argmax`` takes the first
    # maximum, so the earliest base and the lowest slot win ties.
    served = np.logical_or.reduceat(match, offsets, axis=1)
    pick = int(np.argmax(served.sum(axis=0)))
    mapped = served[:, pick]
    frac = int(np.count_nonzero(~mapped)) / float(num_slots)
    if frac >= threshold:
        return None
    base = ring[pick]
    begin = int(offsets[pick])
    base_slot = np.where(
        mapped, np.argmax(match[:, begin:begin + base.v1.shape[0]], axis=1),
        -1).astype(np.int64)
    return DeltaPlan(base, base_slot), frac
