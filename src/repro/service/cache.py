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

The cache answers exact repeats only.  It pins no delta bases: a
near-duplicate job re-simulates in full, and the repo's one delta path
is the closed loop's own ring (``docs/architecture.md`` §12).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

from repro import faults
from repro.store import LruCache
from repro.waveform.plane import WaveformPlane

__all__ = ["CachedResult", "ResultCache", "waveform_checksum"]


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


def _intact(entry: CachedResult) -> bool:
    """The result cache's verify-on-read: layout and content checksum."""
    # Fault seam: fires on the hit path, before verification — a
    # ``corrupt`` rule rots this entry's (private) arrays, which the
    # checksum below must catch.
    faults.trip("cache.get", corruptible=entry.plane)
    return (entry.plane.layout_intact()
            and entry.plane.checksum() == entry.checksum)


class ResultCache(LruCache):
    """Thread-safe LRU over job fingerprints with hit/miss/eviction
    counters; a hit that fails verification is an integrity eviction and
    a miss.  ``max_entries`` 0 disables it: nothing is stored or counted."""

    def __init__(self, max_entries: int) -> None:
        super().__init__(max_entries, verify=_intact)

    @property
    def enabled(self) -> bool:
        return self.max_entries > 0

    def put_many(self, items: Iterable[Tuple[str, CachedResult]]) -> None:
        """Admit a private copy of each entry, stamped with its content
        checksum (verified on every hit): copied and stamped outside the
        lock, admitted under one acquisition.  ``put`` lands here too."""
        if not self.enabled:
            return
        admitted = []
        for fingerprint, entry in items:
            plane = entry.plane.copy()
            admitted.append((fingerprint, CachedResult(
                plane, entry.slot_labels, entry.engine, plane.checksum())))
        super().put_many(admitted)
