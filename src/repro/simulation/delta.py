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
  base arena: which base slot each job slot reuses (``-1`` = no match,
  simulate from scratch) and which input bits changed.  The engine
  turns the changed bits into a cone of influence
  (:meth:`~repro.simulation.compiled.CircuitPlans.input_cones`) and
  only dispatches lanes inside the cone; everything else is *spliced*
  out of the base arena, bit-identical by construction.
* :func:`select_delta` — the cheap base-selection policy: diff the
  job's stimuli/operating points against every retained base, pick the
  base with the smallest total changed-input cost, and refuse (return
  ``None``) when the changed fraction reaches the fallback threshold —
  a near-disjoint job must not pay cone overhead on top of a full run.

Correctness requirements baked into the layout:

* ``starts[net, slot]`` are arbitrary offsets into ``times`` — each
  ``(net, slot)`` block is contiguous and ascending, but there is no
  global ordering requirement.
* Monte-Carlo splice safety is keyed on ``global_slots``: per-die delay
  factors derive deterministically from the global slot index, so a
  base slot is only eligible for a variation-bearing job when its
  global slot matches — a spliced lane and a recomputed lane then see
  identical randomness.
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
    to diff a new job without touching the payload.  Results may share
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

    @property
    def nbytes(self) -> int:
        return (self.plane.nbytes + self.v1.nbytes + self.v2.nbytes
                + self.voltages.nbytes + self.global_slots.nbytes)

    def take(self, indices: np.ndarray) -> "BaseArena":
        """A private arena holding only the given slots (gathered
        payload; shares nothing with ``self``)."""
        indices = np.asarray(indices, dtype=np.int64)
        return BaseArena(
            plane=self.plane.take(indices),
            v1=self.v1[indices].copy(), v2=self.v2[indices].copy(),
            voltages=self.voltages[indices].copy(),
            global_slots=self.global_slots[indices].copy(),
        )


@dataclass
class DeltaPlan:
    """Per-slot mapping of a job onto a :class:`BaseArena`.

    ``base_slot[s]`` is the base slot job slot ``s`` reuses (``-1`` =
    unmapped, simulate from scratch); ``changed_inputs[s]`` flags the
    input positions whose stimulus differs from the mapped base slot
    (all-``False`` = full splice, no evaluation at all).
    """

    base: BaseArena
    base_slot: np.ndarray
    changed_inputs: np.ndarray

    def take(self, indices: np.ndarray) -> "DeltaPlan":
        indices = np.asarray(indices, dtype=np.int64)
        return DeltaPlan(self.base, self.base_slot[indices].copy(),
                         self.changed_inputs[indices].copy())


def select_delta(bases: Sequence[BaseArena], v1: np.ndarray,
                 v2: np.ndarray, pattern_indices: np.ndarray,
                 voltages: np.ndarray, global_slots: Optional[np.ndarray],
                 variation, threshold: float
                 ) -> Optional[Tuple[DeltaPlan, float]]:
    """Pick the best base for a job, or ``None`` to run the full path.

    ``v1``/``v2`` are the job's stacked pattern planes ``(P, width)``;
    ``pattern_indices``/``voltages`` its slot plane.  A base slot is
    *eligible* for a job slot only at the same voltage (delay tables
    are voltage-dependent) and — under Monte-Carlo ``variation`` — the
    same global slot index (die factors derive from it).  The changed
    fraction is the mean per-slot changed-input share, 1.0 for slots no
    base slot can serve; at ``frac >= threshold`` the job is not worth
    a delta pass and the caller falls back to full simulation.
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

    # One diff over the whole ring: the candidates' slots side by side
    # along one axis, ``offsets`` marking where each base begins.
    def stacked(name: str) -> np.ndarray:
        arrays = [getattr(base, name) for base in ring]
        return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)

    offsets = list(accumulate(
        (base.v1.shape[0] for base in ring[:-1]), initial=0))
    eligible = voltages[:, None] == stacked("voltages")[None, :]
    if variation is not None:
        if global_slots is None:
            global_slots = np.arange(num_slots, dtype=np.int64)
        eligible &= (np.asarray(global_slots, dtype=np.int64)[:, None]
                     == stacked("global_slots")[None, :])
    # A job slot none of a base's slots can serve costs that base the
    # full width, so the unserved share bounds its changed fraction from
    # below: when that alone reaches the threshold on every base (fresh
    # traffic at other operating points), refuse before any stimulus
    # is compared.
    unserved = (~np.logical_or.reduceat(eligible, offsets, axis=1)).sum(axis=0)
    if (unserved / num_slots >= threshold).all():
        return None

    ring_v1, ring_v2 = stacked("v1"), stacked("v2")
    # An input counts as changed when its initial value or its toggle
    # differs — that is, when either of its two pattern values does.
    # Diff per distinct *pattern* (P x ring slots), then gather per job
    # slot — a multi-voltage plane repeats each pattern at every
    # operating point, so this is a num_voltages-fold saving over the
    # naive per-slot broadcast.
    pat_diff = ((v1[:, None, :] != ring_v1[None, :, :])
                | (v2[:, None, :] != ring_v2[None, :, :])).sum(axis=2)
    unmatched = width + 1
    cost = np.where(eligible, pat_diff[pattern_indices], unmatched)
    # Per base: every job slot's cheapest base slot, and the total.
    # ``argmin`` takes the first minimum, as does the slot pick below —
    # the earliest base and the lowest slot win ties.
    slot_costs = np.minimum.reduceat(cost, offsets, axis=1)
    totals = np.minimum(slot_costs, width).sum(axis=0)
    pick = int(np.argmin(totals))
    frac = int(totals[pick]) / float(num_slots * width)
    if frac >= threshold:
        return None
    base = ring[pick]
    begin = int(offsets[pick])
    slot_cost = slot_costs[:, pick]
    mapped = slot_cost <= width
    base_slot = np.where(
        mapped, np.argmin(cost[:, begin:begin + base.v1.shape[0]], axis=1),
        -1).astype(np.int64)
    changed = np.zeros((num_slots, width), dtype=bool)
    if mapped.any():
        rows = np.nonzero(mapped)[0]
        cols = begin + base_slot[rows]
        job_patterns = pattern_indices[rows]
        changed[rows] = ((v1[job_patterns] != ring_v1[cols])
                         | (v2[job_patterns] != ring_v2[cols]))
    return DeltaPlan(base, base_slot, changed), frac
