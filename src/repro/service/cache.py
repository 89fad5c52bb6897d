"""Fingerprinted LRU result cache with content-integrity verification.

Keys are the shared :func:`repro.runtime.fingerprint.job_fingerprint`
SHA-256 digests — the exact identity the campaign checkpoint manifest
uses — so a cached entry answers a job precisely when a checkpoint
directory would have resumed it: same circuit, stimuli, slot plane,
semantic config, kernel table and variation model.  Operational knobs
(backend, batching policy, capacity, fault plans) never split the cache.

Integrity: an entry holds a private
:class:`~repro.waveform.plane.WaveformPlane` (admission copies it — a
cached entry must not share memory with the result handed to the
submitting caller, nor pin a batch-wide payload) and the plane's CRC32
content checksum.  Every hit
re-derives the checksum; a mismatch means the entry rotted in memory
(or a ``cache.get`` fault corrupted it), so it is **evicted and
counted** (``integrity_evictions``), the lookup reports a miss, and the
job recomputes instead of serving poisoned waveforms.

The delta base ring keeps the same guarantee at the price of base
*hits*, not lookups — **verify-on-select**: :meth:`ResultCache.bases_for`
hands out a group's candidates unverified (a few reference reads),
selection diffs their stimulus metadata, and only the one base a job
is about to splice is checksummed by :meth:`ResultCache.verify_base`.
A rotted base is evicted and counted there and the caller re-selects
among the rest, so no unverified base ever reaches a
:class:`~repro.simulation.delta.DeltaPlan`, and a lookup that selects
nothing computes no CRC at all.
"""

from __future__ import annotations

import threading
import zlib
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from repro import faults
from repro.waveform.plane import WaveformPlane

__all__ = ["CachedBase", "CachedResult", "ResultCache", "base_checksum",
           "waveform_checksum"]


@dataclass(frozen=True)
class CachedResult:
    """Engine output retained for one job fingerprint."""

    plane: WaveformPlane
    slot_labels: List[Tuple[int, float]]
    engine: str
    gate_evaluations: int
    #: CRC32 of the plane content at admission (0 = unverified).
    checksum: int = 0


def waveform_checksum(waveforms) -> int:
    """CRC32 over a result's full waveform content.

    ``waveforms`` is a result's ``.waveforms`` (or a plane); the digest
    is :meth:`WaveformPlane.checksum` — net names, initial values,
    toggle counts and every toggle time — so admit and verify, engine
    planes, ``take`` slices and checkpoint reloads all agree.
    """
    return WaveformPlane.from_waveforms(waveforms).checksum()


@dataclass(frozen=True)
class CachedBase:
    """One pinned base arena in a compatibility group's delta ring.

    ``arena`` is a :class:`~repro.simulation.delta.BaseArena` whose
    payload the service hands over without deep-copying (the per-job
    unpack or ``take`` already owns private memory); ``tag`` is the
    producing job's fingerprint, which both deduplicates retention and
    lets operators trace a splice back to its origin run; ``checksum`` is
    :func:`base_checksum` at admission, compared again only when a job
    selects this base (:meth:`ResultCache.verify_base`).
    """

    arena: object
    tag: str
    checksum: int


def base_checksum(arena) -> int:
    """CRC32 over a base arena's full content.

    Covers the waveform payload *and* the selection metadata — a rotted
    stimulus plane would silently mis-map slots even with pristine
    toggle times, so everything :func:`select_delta` or the splice path
    reads is part of the chain (the block offsets of a packed plane
    through :meth:`WaveformPlane.layout_intact`, which
    :meth:`ResultCache.verify_base` asks beside this digest).
    """
    crc = arena.plane.checksum()
    for array in (arena.v1, arena.v2, arena.voltages, arena.global_slots):
        crc = zlib.crc32(np.ascontiguousarray(array), crc)
    return crc


class ResultCache:
    """Thread-safe LRU over job fingerprints with hit/miss/eviction counters."""

    def __init__(self, max_entries: int, max_bases: int = 0) -> None:
        self.max_entries = max_entries
        #: Per compatibility group, how many base arenas to pin for
        #: incremental re-simulation (0 disables the base ring).
        self.max_bases = max_bases
        self._entries: "OrderedDict[str, CachedResult]" = OrderedDict()
        self._bases: "OrderedDict[str, OrderedDict[str, CachedBase]]" = \
            OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.integrity_evictions = 0
        #: Ring lookups (:meth:`bases_for`), the selected bases that were
        #: checksummed (:meth:`verify_base`) and those that passed —
        #: delta selections served from the base ring.
        self.base_lookups = 0
        self.base_verifications = 0
        self.base_hits = 0
        #: Bytes currently pinned by retained base arenas.
        self.base_bytes_pinned = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def enabled(self) -> bool:
        return self.max_entries > 0

    def get(self, fingerprint: str) -> Optional[CachedResult]:
        if not self.enabled:
            return None
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None:
                self.misses += 1
                return None
            # Fault seam: fires on the hit path, before verification —
            # a ``corrupt`` rule rots this entry's (private) arrays,
            # which the checksum below must catch.
            faults.trip("cache.get", corruptible=entry.plane)
            if not (entry.plane.layout_intact()
                    and entry.plane.checksum() == entry.checksum):
                del self._entries[fingerprint]
                self.integrity_evictions += 1
                self.misses += 1
                return None
            self._entries.move_to_end(fingerprint)
            self.hits += 1
            return entry

    def put(self, fingerprint: str, entry: CachedResult) -> None:
        """Admit a private copy of one entry, stamped with its content
        checksum (verified on every hit)."""
        if not self.enabled:
            return
        plane = entry.plane.copy()
        entry = replace(entry, plane=plane, checksum=plane.checksum())
        with self._lock:
            if fingerprint in self._entries:
                self._entries.move_to_end(fingerprint)
                self._entries[fingerprint] = entry
                return
            self._entries[fingerprint] = entry
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def put_base(self, group_key: str, arena, tag: str) -> None:
        """Pin a base arena in ``group_key``'s delta ring.

        No deep copy: the arena's payload is already private (engine
        capture / per-job unpack or ``take``), so admission only
        derives the integrity checksum.  The ring holds the newest
        ``max_bases`` arenas per group; re-admitting an existing ``tag``
        is a no-op (the splice of a fully cached job must not displace
        the ring's diversity with a byte-identical duplicate) and
        computes nothing.
        """
        if self.max_bases <= 0 or not self.enabled:
            return
        with self._lock:
            ring = self._bases.setdefault(group_key, OrderedDict())
            if tag in ring:
                return
            ring[tag] = CachedBase(arena=arena, tag=tag,
                                   checksum=base_checksum(arena))
            self.base_bytes_pinned += arena.nbytes
            while len(ring) > self.max_bases:
                _, dropped = ring.popitem(last=False)
                self.base_bytes_pinned -= dropped.arena.nbytes
                self.evictions += 1

    def bases_for(self, group_key: str) -> List[CachedBase]:
        """``group_key``'s candidate bases, newest first — **unverified**.

        Their arenas may be diffed against a job
        (:func:`~repro.simulation.delta.select_delta` reads stimulus
        metadata only), but the one selected must pass
        :meth:`verify_base` before it is spliced.
        """
        if self.max_bases <= 0 or not self.enabled:
            return []
        with self._lock:
            self.base_lookups += 1
            ring = self._bases.get(group_key)
            return list(reversed(ring.values())) if ring else []

    def verify_base(self, group_key: str, entry: CachedBase) -> bool:
        """Checksum the base a selection settled on; count the hit.

        Same verify-on-hit contract as :meth:`get`, paid per selection
        instead of per candidate: the ``cache.get`` fault seam fires
        here, and a mismatch evicts the rotted arena and counts an
        ``integrity_eviction`` instead of letting a poisoned base splice
        into fresh results (``False`` — the caller re-selects among the
        remaining candidates).
        """
        with self._lock:
            self.base_verifications += 1
            faults.trip("cache.get", corruptible=entry.arena.plane)
            if (entry.arena.plane.layout_intact()
                    and base_checksum(entry.arena) == entry.checksum):
                self.base_hits += 1
                return True
            ring = self._bases.get(group_key)
            if ring is not None and ring.get(entry.tag) is entry:
                del ring[entry.tag]
                self.base_bytes_pinned -= entry.arena.nbytes
                self.integrity_evictions += 1
            return False

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bases.clear()
            self.base_bytes_pinned = 0

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 before the first lookup)."""
        total = self.hits + self.misses
        return 0.0 if total == 0 else self.hits / total

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "integrity_evictions": self.integrity_evictions,
                "hit_rate": self.hit_rate,
                "bases": sum(len(ring) for ring in self._bases.values()),
                "max_bases": self.max_bases,
                "base_lookups": self.base_lookups,
                "base_verifications": self.base_verifications,
                "base_hits": self.base_hits,
                "base_bytes_pinned": self.base_bytes_pinned,
            }
