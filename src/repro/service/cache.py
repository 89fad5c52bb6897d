"""Fingerprinted LRU result cache with content-integrity verification.

Keys are :func:`repro.runtime.fingerprint.job_fingerprint` SHA-256
digests — an in-memory identity decided by exactly the fields the
campaign checkpoint digest is (circuit, stimuli, slot plane, semantic
config, kernel table, variation model), so a cached entry answers a job
precisely when a checkpoint directory would have resumed it; the digest
itself is never stored and is not the checkpoint's.  Operational knobs
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

**The ring earns its capture.**  Pinning a base costs an all-net unpack,
a CRC and a diff per later submit whether or not anything is ever
spliced from it, so each compatibility group keeps a *count* ledger
beside its ring: arena rows admitted by :meth:`ResultCache.put_base`
(nets × slots) against lanes the engine spliced for the group's batches
(:meth:`ResultCache.settle_ring`).  Every :data:`LEDGER_WINDOW` settled
jobs the window closes; one that spliced fewer than one lane per
:data:`ROWS_PER_SPLICED_LANE` captured rows **suspends** the group —
ring dropped, pinned bytes released, :meth:`ResultCache.captures`
``False`` so the service stops capturing, :meth:`ResultCache.bases_for`
empty so selection stops diffing — for :data:`SUSPEND_MIN` settled jobs,
doubling per consecutive losing window up to :data:`SUSPEND_MAX`, after
which one window probes again; a paying window resets the back-off.
Counts decide, not clocks, so the schedule is deterministic; the first
window of every group behaves exactly as a ring without a ledger.
"""

from __future__ import annotations

import threading
import zlib
from collections import OrderedDict, defaultdict
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import faults
from repro.waveform.plane import WaveformPlane

__all__ = ["CachedBase", "CachedResult", "ResultCache", "base_checksum",
           "waveform_checksum"]

#: Base-ring ledger schedule, in settled jobs of one compatibility group:
#: a window closes every ``LEDGER_WINDOW`` jobs, a losing one suspends the
#: ring for ``SUSPEND_MIN`` jobs, doubling per consecutive loss up to
#: ``SUSPEND_MAX``.  A window pays when it spliced at least one lane per
#: ``ROWS_PER_SPLICED_LANE`` captured rows.  Measured anchors (2-core
#: box, cext): the one break-even on record is BENCH_kernels
#: ``incremental_stimulus.cext`` = 0.78-1.03x over seven recordings at
#: ~0.8 spliced lanes per captured row, so 1 : 2 keeps a neutral
#: stream's ring; ledger ``service_stream`` spliced ~10 000 lanes against
#: ~1 000 000 captured rows per 800-job op (0.01) with an unconditional
#: ring, where ``delta_bases=0`` read 2650 jobs/s against 1850.  64 jobs
#: is longer than every service and fault test (and any short burst), so
#: those see the plain ring; of an 800-job stream it leaves ~190 jobs
#: capturing (the first window, then probes from job 193 and 513).
LEDGER_WINDOW = 64
SUSPEND_MIN = 128
SUSPEND_MAX = 1024
ROWS_PER_SPLICED_LANE = 2


@dataclass(frozen=True)
class CachedResult:
    """Engine output retained for one job fingerprint."""

    plane: WaveformPlane
    slot_labels: List[Tuple[int, float]]
    engine: str
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


@dataclass
class _RingLedger:
    """One compatibility group's spliced-vs-captured account."""

    #: The open window: jobs settled, rows pinned, lanes spliced.
    settled: int = 0
    rows_captured: int = 0
    lanes_spliced: int = 0
    #: Settled jobs left before the ring probes again (0 = ring live).
    suspended_for: int = 0
    #: Length of the latest suspension (0 = the last window paid).
    backoff: int = 0


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
        #: The ring ledgers (module docstring) and their totals over all
        #: groups: rows admitted, lanes spliced while a ring was live,
        #: suspensions begun.
        self._ledgers: Dict[str, _RingLedger] = defaultdict(_RingLedger)
        self.base_rows_captured = 0
        self.base_lanes_spliced = 0
        self.base_suspensions = 0

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

    def _ring_enabled(self) -> bool:
        return self.max_bases > 0 and self.enabled

    def _suspended(self, group_key: str) -> bool:
        """Whether the ledger has ``group_key``'s ring off (lock held)."""
        ledger = self._ledgers.get(group_key)
        return ledger is not None and ledger.suspended_for > 0

    def _admits(self, group_key: str, tag: str) -> bool:
        """Whether ``group_key``'s ring would pin ``tag`` (lock held)."""
        return (not self._suspended(group_key)
                and tag not in self._bases.get(group_key, ()))

    def put_base(self, group_key: str, arena, tag: str) -> None:
        """Pin a base arena in ``group_key``'s delta ring.

        No deep copy: the arena's payload is already private (engine
        capture / per-job unpack or ``take``), so admission only
        derives the integrity checksum — outside the lock, which every
        submitting thread's :meth:`get` also takes: the tag is tested
        first, the CRC computed unlocked and the insert re-checks.  The
        ring holds the newest ``max_bases`` arenas per group;
        re-admitting an existing ``tag`` is a no-op (the splice of a
        fully cached job must not displace the ring's diversity with a
        byte-identical duplicate) and computes nothing, as is any
        admission to a suspended group.  An admitted arena's rows
        (nets × slots) are charged to the group's ledger.
        """
        if not self._ring_enabled():
            return
        with self._lock:
            if not self._admits(group_key, tag):
                return
        entry = CachedBase(arena=arena, tag=tag,
                           checksum=base_checksum(arena))
        rows = arena.num_nets * arena.num_slots
        with self._lock:
            # A racing worker may have pinned the tag, or closed the
            # window that suspends the group, while the CRC ran.
            if not self._admits(group_key, tag):
                return
            ring = self._bases.setdefault(group_key, OrderedDict())
            ring[tag] = entry
            self.base_bytes_pinned += arena.nbytes
            self._ledgers[group_key].rows_captured += rows
            self.base_rows_captured += rows
            while len(ring) > self.max_bases:
                _, dropped = ring.popitem(last=False)
                self.base_bytes_pinned -= dropped.arena.nbytes
                self.evictions += 1

    def captures(self, group_key: str) -> bool:
        """Whether a batch of ``group_key`` should capture bases at all:
        the ring is on and the group's ledger has not suspended it."""
        if not self._ring_enabled():
            return False
        with self._lock:
            return not self._suspended(group_key)

    def settle_ring(self, group_key: str, jobs: int,
                    lanes_spliced: int) -> None:
        """Account one settled batch of ``group_key`` — ``jobs`` jobs,
        ``lanes_spliced`` lanes served from bases — after its captures
        were offered to :meth:`put_base`; closes the ledger window and
        applies the verdict (module docstring).  While suspended the
        jobs only run down the suspension."""
        if not self._ring_enabled():
            return
        with self._lock:
            ledger = self._ledgers[group_key]
            if ledger.suspended_for > 0:
                ledger.suspended_for = max(0, ledger.suspended_for - jobs)
                return
            self.base_lanes_spliced += lanes_spliced
            ledger.lanes_spliced += lanes_spliced
            ledger.settled += jobs
            if ledger.settled < LEDGER_WINDOW:
                return
            paid = (ROWS_PER_SPLICED_LANE * ledger.lanes_spliced
                    >= ledger.rows_captured)
            ledger.settled = ledger.rows_captured = ledger.lanes_spliced = 0
            if paid:
                ledger.backoff = 0
                return
            ledger.backoff = min(max(2 * ledger.backoff, SUSPEND_MIN),
                                 SUSPEND_MAX)
            ledger.suspended_for = ledger.backoff
            self.base_suspensions += 1
            for dropped in self._bases.pop(group_key, {}).values():
                self.base_bytes_pinned -= dropped.arena.nbytes

    def bases_for(self, group_key: str) -> List[CachedBase]:
        """``group_key``'s candidate bases, newest first — **unverified**.

        Their arenas may be diffed against a job
        (:func:`~repro.simulation.delta.select_delta` reads stimulus
        metadata only), but the one selected must pass
        :meth:`verify_base` before it is spliced.
        """
        if not self._ring_enabled():
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
            self._ledgers.clear()
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
                "base_rows_captured": self.base_rows_captured,
                "base_lanes_spliced": self.base_lanes_spliced,
                "base_suspensions": self.base_suspensions,
                "groups_suspended": sum(map(self._suspended, self._ledgers)),
            }
