"""Columnar waveform results — the one layout every engine path returns.

The paper keeps every waveform in packed device memory and runs its
waveform analysis (Fig. 2 step 4, Table II latest arrivals) over that
memory.  :class:`WaveformPlane` is the host-side form of the same idea:
for an ordered tuple of ``nets`` and a plane of slots it holds

* ``initial`` — ``(W, S)`` uint8 logic values before the first toggle,
* ``counts`` — ``(W, S)`` toggles per ``(net, slot)``,
* ``starts`` — ``(W, S)`` offsets of each block in ``times``,
* ``times`` — one flat float64 toggle-time payload.

Each ``(net, slot)`` block is contiguous and ascending, but ``starts``
are arbitrary offsets: :meth:`rows`, :meth:`concat` and
``take(copy=False)`` re-index without moving payload bytes, a
:class:`PlaneCanvas` has parts write their columns where their slots
land, and the content :meth:`checksum` does not depend on the layout.
Bulk queries (:meth:`latest`, :meth:`transition_counts`,
:meth:`final_values`) read the columns directly.

A plane is itself the lazy read-only ``Sequence[Mapping[str, Waveform]]``
results expose as ``.waveforms``: ``plane[slot][net]`` materializes one
:class:`Waveform`, and none exists until a caller indexes it.
:class:`PlaneAccessors`
is the per-slot query mixin shared by
:class:`~repro.simulation.base.SimulationResult` and
:class:`~repro.service.jobs.JobResult`; it reads the plane when one is
present and walks the mappings otherwise (results built from plain
dicts — the event-driven reference, hand-made test results).
"""

from __future__ import annotations

import zlib
from collections.abc import Mapping, Sequence as SequenceABC
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.waveform.waveform import Waveform

__all__ = ["PlaneAccessors", "PlaneCanvas", "WaveformPlane", "net_keys"]

_NO_TIMES = np.empty(0, dtype=np.float64)

#: Entries per row block of :meth:`WaveformPlane.latest`: its int64 and
#: float64 temporaries stay cache-sized whatever the plane.
_BLOCK_ENTRIES = 1 << 15


def _packed_starts(counts: np.ndarray) -> np.ndarray:
    """Block offsets of a dense net-major payload (row-major cumsum)."""
    flat = counts.reshape(-1)
    return (np.cumsum(flat) - flat).reshape(counts.shape)


def _names_crc(nets: Sequence[str]) -> int:
    return zlib.crc32("\n".join(nets).encode("utf-8"))


def net_keys(nets: Sequence[str]) -> dict:
    """The ``nets`` / ``index`` / ``nets_crc`` keywords of the plane
    constructors, built once for planes that will share them: the net
    tuple, its ``{net: row}`` dict and the CRC32 of the names.  A plane
    built without them derives each on first use."""
    nets = tuple(nets)
    return {"nets": nets, "index": {net: row for row, net in enumerate(nets)},
            "nets_crc": _names_crc(nets)}


@dataclass(eq=False)
class WaveformPlane(SequenceABC):
    """Waveforms of ``nets`` × slots in columnar form (see module doc).

    As a sequence it has one read-only ``{net: Waveform}`` mapping per
    slot, each waveform built on access.
    """

    nets: Tuple[str, ...]
    initial: np.ndarray
    counts: np.ndarray
    starts: np.ndarray
    times: np.ndarray
    _index: Optional[Dict[str, int]] = field(default=None, repr=False)
    #: Built with the dense net-major layout (:meth:`from_packed`, a
    #: copying :meth:`take`): :meth:`_dense` need not re-derive it.
    _packed: bool = field(default=False, repr=False)
    _nets_crc: Optional[int] = field(default=None, repr=False)

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_packed(cls, nets: Sequence[str], initial: np.ndarray,
                    counts: np.ndarray, times: np.ndarray,
                    starts: Optional[np.ndarray] = None,
                    index: Optional[Dict[str, int]] = None,
                    nets_crc: Optional[int] = None) -> "WaveformPlane":
        """A plane over a dense net-major payload: the blocks follow
        each other in ``times`` in row-major ``(net, slot)`` order.
        ``starts`` are the block offsets of that order, for a caller
        that already holds them (:meth:`layout_intact` checks them);
        ``index`` / ``nets_crc``: see :func:`net_keys`."""
        counts = np.asarray(counts, dtype=np.int64)
        if starts is None:
            starts = _packed_starts(counts)
        return cls(tuple(nets), initial, counts, starts, times,
                   _index=index, _packed=True, _nets_crc=nets_crc)

    @classmethod
    def from_arena(cls, nets: Sequence[str], times_all: np.ndarray,
                   initial_all: np.ndarray,
                   rows: Optional[np.ndarray] = None,
                   index: Optional[Dict[str, int]] = None,
                   nets_crc: Optional[int] = None) -> "WaveformPlane":
        """Extract net rows of a ``(nets, slots, capacity)`` +inf-padded
        arena (``rows=None``: the first ``len(nets)`` rows).  Everything
        returned is a private copy — the arena may be reset afterwards.

        The numpy unpack: one ``isfinite`` / ``sum`` / boolean gather
        over the wanted rows, and the reference every native
        :meth:`~repro.simulation.backend.ComputeBackend.extract` is
        tested against.
        """
        if rows is None:
            sub, initial = times_all[:len(nets)], initial_all[:len(nets)].copy()
        else:
            sub, initial = times_all[rows], initial_all[rows]
        finite = np.isfinite(sub)
        return cls.from_packed(nets, initial, finite.sum(axis=2), sub[finite],
                               index=index, nets_crc=nets_crc)

    @classmethod
    def constant(cls, nets: Sequence[str], initial: np.ndarray,
                 index: Optional[Dict[str, int]] = None,
                 nets_crc: Optional[int] = None) -> "WaveformPlane":
        """A toggle-free plane holding the settled values ``initial``."""
        zeros = np.zeros(initial.shape, dtype=np.int64)
        return cls(tuple(nets), initial, zeros, zeros, _NO_TIMES,
                   _index=index, _nets_crc=nets_crc)

    @classmethod
    def from_waveforms(cls, waveforms: Sequence[Mapping],
                       nets: Optional[Sequence[str]] = None
                       ) -> "WaveformPlane":
        """Pack per-slot ``{net: Waveform}`` mappings (``nets`` defaults
        to the first slot's order; every slot must carry every net).
        A plane is passed through."""
        if isinstance(waveforms, cls):
            same = nets is None or tuple(nets) == waveforms.nets
            return waveforms if same else waveforms.rows(nets)
        if nets is None:
            nets = tuple(waveforms[0]) if len(waveforms) else ()
        shape = (len(nets), len(waveforms))
        initial = np.zeros(shape, dtype=np.uint8)
        counts = np.zeros(shape, dtype=np.int64)
        pieces = []
        for row, net in enumerate(nets):
            for slot, recorded in enumerate(waveforms):
                wave = recorded[net]
                initial[row, slot] = wave.initial
                counts[row, slot] = wave.times.size
                pieces.append(wave.times)
        times = np.concatenate(pieces) if pieces else _NO_TIMES
        return cls.from_packed(nets, initial, counts, times)

    # -- structure ------------------------------------------------------------

    def __len__(self) -> int:
        return self.counts.shape[1]

    def __getitem__(self, slot):
        if isinstance(slot, slice):
            return self.take(np.arange(len(self))[slot], copy=False)
        slot = int(slot)
        if not -len(self) <= slot < len(self):
            raise IndexError(f"slot {slot} out of range")
        return _SlotView(self, slot % len(self))

    @property
    def num_nets(self) -> int:
        return self.counts.shape[0]

    @property
    def num_slots(self) -> int:
        return self.counts.shape[1]

    @property
    def nbytes(self) -> int:
        return (self.initial.nbytes + self.counts.nbytes
                + self.starts.nbytes + self.times.nbytes)

    def row(self, net: str) -> int:
        """Row of ``net``; ``KeyError`` when it was not recorded."""
        index = self._index
        if index is None:
            index = self._index = {n: i for i, n in enumerate(self.nets)}
        return index[net]

    def _row_ids(self, nets: Sequence[str]) -> np.ndarray:
        return np.fromiter((self.row(net) for net in nets), dtype=np.int64,
                           count=len(nets))

    def _derived(self, nets, initial, counts, starts, times,
                 packed: bool = False, index=None, nets_crc=None
                 ) -> "WaveformPlane":
        if nets is self.nets:
            index, nets_crc = self._index, self._nets_crc
        return WaveformPlane(nets, initial, counts, starts, times, index,
                             packed, nets_crc)

    def rows(self, nets: Sequence[str], ids: Optional[np.ndarray] = None,
             index: Optional[Dict[str, int]] = None,
             nets_crc: Optional[int] = None) -> "WaveformPlane":
        """The sub-plane of ``nets`` (in that order); shares the payload.
        ``ids`` are their row numbers, for a caller that knows them
        (``index`` / ``nets_crc``, likewise: see :func:`net_keys`)."""
        if ids is None:
            ids = self._row_ids(nets)
        return self._derived(tuple(nets), self.initial[ids],
                             self.counts[ids], self.starts[ids], self.times,
                             index=index, nets_crc=nets_crc)

    def _dense(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(times, starts)`` of the dense net-major layout: the blocks
        follow each other in row-major ``(net, slot)`` order.  ``times``
        is the plane's own array when it already has that layout."""
        if self._packed:
            return self.times, self.starts
        counts = self.counts
        starts = _packed_starts(counts)
        cnt = counts.reshape(-1)
        total = int(cnt.sum())
        if self.times.size == total and bool(
                ((self.starts == starts) | (counts == 0)).all()):
            return self.times, starts
        source = (np.repeat((self.starts - starts).reshape(-1), cnt)
                  + np.arange(total, dtype=np.int64))
        return self.times[source], starts

    def packed(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(initial, counts, times)`` with a dense net-major payload —
        what :meth:`from_packed` rebuilds, and the form checkpoint
        chunks, shard replies and the checksum share."""
        return self.initial, self.counts, self._dense()[0]

    def take(self, slots, copy: bool = True) -> "WaveformPlane":
        """The plane of the given slots, in that order.

        ``copy=True`` gathers a private payload that shares nothing
        with ``self``; ``copy=False`` only re-indexes the columns.
        """
        slots = np.asarray(slots, dtype=np.int64)
        picked = self._derived(self.nets, self.initial[:, slots],
                               self.counts[:, slots], self.starts[:, slots],
                               self.times)
        if not copy:
            return picked
        times, starts = picked._dense()
        if times is self.times:
            times = times.copy()
        # Column gathers come back strided; a private plane is stored
        # C-contiguous so later checksums and reshapes are copy-free.
        return self._derived(self.nets, np.ascontiguousarray(picked.initial),
                             np.ascontiguousarray(picked.counts), starts,
                             times, packed=True)

    def copy(self) -> "WaveformPlane":
        """A private packed plane of the same content — array copies of
        an already packed plane, one gather of any other layout.  The
        net tuple, row index and nets CRC are shared, not copied."""
        times, starts = self._dense()
        return self._derived(
            self.nets, self.initial.copy(), self.counts.copy(),
            starts.copy() if starts is self.starts else starts,
            times.copy() if times is self.times else times, packed=True)

    @classmethod
    def concat(cls, planes: Sequence["WaveformPlane"]) -> "WaveformPlane":
        """Concatenate along the slot axis; block offsets shift by each
        plane's cumulative payload size, payload bytes keep their
        relative order."""
        if len(planes) == 1:
            return planes[0]
        first = planes[0]
        if any(plane.nets != first.nets for plane in planes[1:]):
            raise ValueError("cannot concatenate planes over different nets")
        offsets = np.cumsum([0] + [plane.times.size for plane in planes])
        return first._derived(
            first.nets,
            np.concatenate([plane.initial for plane in planes], axis=1),
            np.concatenate([plane.counts for plane in planes], axis=1),
            np.concatenate([plane.starts + offset for plane, offset
                            in zip(planes, offsets)], axis=1),
            np.concatenate([plane.times for plane in planes]))

    def checksum(self) -> int:
        """CRC32 over net names, initial values, toggle counts and every
        toggle time in net-major order — a function of the content only,
        not of how ``starts`` lays the payload out."""
        initial, counts, times = self.packed()
        crc = self._nets_crc
        if crc is None:
            crc = self._nets_crc = _names_crc(self.nets)
        for array in (initial, counts, times):
            crc = zlib.crc32(np.ascontiguousarray(array), crc)
        return crc

    def layout_intact(self) -> bool:
        """Whether a plane built packed still has that layout.

        :meth:`checksum` trusts a packed plane's ``starts`` instead of
        re-deriving them, so whoever verifies a *retained* plane against
        rot (the result cache) asks this beside the checksum comparison;
        any other layout is consumed — and thereby covered — by the
        checksum's own gather.
        """
        return not self._packed or np.array_equal(
            self.starts, _packed_starts(self.counts))

    # -- bulk queries ---------------------------------------------------------

    def latest(self, nets: Optional[Sequence[str]] = None,
               slots=None) -> np.ndarray:
        """Latest toggle time per slot (default: every slot) over
        ``nets`` (default: all); ``-inf`` where nothing toggled.

        Only the slots where a watched row toggles are reduced — one
        ``max`` over the counts finds them, so the quiet columns of a
        low-activity plane cost nothing more — in blocks of rows, so no
        temporary is plane-sized."""
        ids = None if nets is None else self._row_ids(nets)
        if ids is not None and np.array_equal(ids, np.arange(self.num_nets)):
            ids = None  # every row in order: blocks are views
        width = self.num_nets if ids is None else ids.size
        if slots is not None:
            slots = np.asarray(slots)
        latest = np.full(self.num_slots if slots is None else slots.size,
                         -np.inf)
        if width == 0 or latest.size == 0 or self.times.size == 0:
            return latest
        counts = self.counts if ids is None else self.counts[ids]
        if slots is not None:
            counts = counts[:, slots]
        live = np.flatnonzero(counts.max(axis=0))
        if live.size == 0:
            return latest
        # The plane columns reduced; None: every one, as views.
        picked = slots
        if live.size < latest.size:
            picked = live if slots is None else slots[live]
        reduced = np.full(live.size, -np.inf)
        step = max(1, _BLOCK_ENTRIES // live.size)
        for lo in range(0, width, step):
            rows = slice(lo, lo + step) if ids is None else ids[lo:lo + step]
            counts, last = self.counts[rows], self.starts[rows]
            if picked is not None:
                counts, last = counts[:, picked], last[:, picked]
            last = last + counts
            last -= 1
            np.maximum(last, 0, out=last)
            block = self.times.take(last)
            block[counts == 0] = -np.inf
            np.maximum(reduced, block.max(axis=0), out=reduced)
        latest[live] = reduced
        return latest

    def transition_counts(self) -> np.ndarray:
        """Total toggles per slot over all nets."""
        return self.counts.sum(axis=0)

    def final_values(self, nets: Optional[Sequence[str]] = None
                     ) -> np.ndarray:
        """Settled logic values ``(W, S)`` (the test responses)."""
        ids = slice(None) if nets is None else self._row_ids(nets)
        return self.initial[ids] ^ (self.counts[ids] & 1).astype(np.uint8)

    def waveform(self, row: int, slot: int) -> Waveform:
        """Materialize one block (the toggle array is a payload view)."""
        start = int(self.starts[row, slot])
        return Waveform.trusted(
            int(self.initial[row, slot]),
            self.times[start:start + int(self.counts[row, slot])])


class PlaneCanvas:
    """A batch's ``(W, S)`` answer written in place, part by part.

    Each part of a batch that lowers several ways writes its own
    columns: a walk's unpack its slots' initial values, counts and
    starts (:meth:`~repro.simulation.backend.ComputeBackend.extract_columns`),
    a quiet settle the initial values alone — its counts stay 0 — and a
    splice a plane's columns (:meth:`put`).  Payloads are kept in the
    order they arrive and joined once by :meth:`plane`; ``starts`` are
    offsets into that join (:attr:`size` is where the next payload
    begins), so no block moves and nothing is re-sorted.
    """

    def __init__(self, width: int, num_slots: int) -> None:
        shape = (width, num_slots)
        self.initial = np.zeros(shape, dtype=np.uint8)
        self.counts = np.zeros(shape, dtype=np.int64)
        self.starts = np.zeros(shape, dtype=np.int64)
        self.payloads: list = []
        self.size = 0

    def append(self, payload: np.ndarray) -> None:
        """Add a payload whose blocks the written ``starts`` address
        from offset :attr:`size` on."""
        self.payloads.append(payload)
        self.size += payload.size

    def put(self, cols: np.ndarray, initial: np.ndarray, counts: np.ndarray,
            starts: np.ndarray, times: np.ndarray) -> None:
        """Write the columns of a part — a plane's four arrays, its
        ``starts`` relative to its payload ``times`` — to the columns
        ``cols``."""
        self.initial[:, cols] = initial
        self.counts[:, cols] = counts
        self.starts[:, cols] = starts + self.size
        self.append(times)

    def plane(self, nets: Sequence[str],
              index: Optional[Dict[str, int]] = None,
              nets_crc: Optional[int] = None) -> WaveformPlane:
        """The finished answer over ``nets`` (see :func:`net_keys`)."""
        payloads = self.payloads
        times = (payloads[0] if len(payloads) == 1
                 else np.concatenate(payloads) if payloads else _NO_TIMES)
        return WaveformPlane(tuple(nets), self.initial, self.counts,
                             self.starts, times, _index=index,
                             _nets_crc=nets_crc)


class _SlotView(Mapping):
    """One slot of a plane as a read-only ``{net: Waveform}`` mapping."""

    __slots__ = ("plane", "slot")

    def __init__(self, plane: WaveformPlane, slot: int) -> None:
        self.plane = plane
        self.slot = slot

    def __getitem__(self, net: str) -> Waveform:
        return self.plane.waveform(self.plane.row(net), self.slot)

    def __iter__(self) -> Iterator[str]:
        return iter(self.plane.nets)

    def __len__(self) -> int:
        return len(self.plane.nets)


class PlaneAccessors:
    """Per-slot queries of a result whose ``waveforms`` attribute is a
    :class:`WaveformPlane` (engine results) or a plain sequence of
    ``{net: Waveform}`` mappings."""

    waveforms: Sequence[Mapping]

    @property
    def plane(self) -> Optional[WaveformPlane]:
        """The columnar payload, or ``None`` for mapping-built results."""
        waveforms = self.waveforms
        return waveforms if isinstance(waveforms, WaveformPlane) else None

    @property
    def num_slots(self) -> int:
        return len(self.waveforms)

    def waveform(self, slot: int, net: str) -> Waveform:
        try:
            return self.waveforms[slot][net]
        except KeyError:
            raise KeyError(
                f"net {net!r} not recorded (enable record_all_nets?)"
            ) from None

    def slot_arrivals(self, nets: Optional[Sequence[str]] = None,
                      slots: Optional[Sequence[int]] = None) -> np.ndarray:
        """Latest toggle time of each slot over ``nets`` (default: all
        recorded nets) — :meth:`latest_arrival` for many slots at once."""
        if self.plane is not None:
            return self.plane.latest(nets, slots)
        return np.asarray([
            max((self.waveform(slot, net).latest_transition()
                 for net in (self.waveforms[slot] if nets is None else nets)),
                default=-np.inf)
            for slot in (range(self.num_slots) if slots is None else slots)
        ], dtype=np.float64)

    def latest_arrival(self, slot: int,
                       nets: Optional[Sequence[str]] = None) -> float:
        """Latest toggle time over ``nets`` (default: all recorded nets)."""
        return float(self.slot_arrivals(nets, [slot])[0])

    def final_values(self, slot: int, nets: Sequence[str]) -> np.ndarray:
        """Settled logic values (test responses) for the given nets."""
        if self.plane is not None:
            return self.plane.take([slot], copy=False).final_values(nets)[:, 0]
        return np.asarray(
            [self.waveform(slot, net).final_value for net in nets],
            dtype=np.uint8)

    def total_transitions(self, slot: int) -> int:
        if self.plane is not None:
            return int(self.plane.counts[:, slot].sum())
        return sum(w.num_transitions for w in self.waveforms[slot].values())
