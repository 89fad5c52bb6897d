"""Dynamic request batching: coalesce compatible jobs into slot planes.

The same policy triangle every inference server exposes:

* **flush on fullness** — a batch reaching ``max_batch_slots`` slots
  dispatches immediately (occupancy is the throughput lever),
* **flush on age** — a batch whose oldest job has waited ``max_wait``
  dispatches even half-empty (tail latency must stay bounded),
* **flush on idle** — when no job has arrived for ``idle_ms`` and a
  worker is free, there is nothing left to coalesce with and someone to
  run it, so holding jobs any longer is pure added latency; while every
  worker is busy, jobs keep coalescing (work-conserving: a free worker
  never idles with jobs pending past the window, which is 0 by
  default).

Jobs coalesce only within a *compatibility group*
(:func:`repro.runtime.fingerprint.compatibility_fingerprint`): same
compiled circuit, same semantic config, same kernel table and variation
model — the preconditions for sharing one engine dispatch without
changing any job's results.

This module is pure data-structure logic — no threads, no clocks of its
own (callers pass ``now``) — so the flush policy is unit-testable
without timing races.  :class:`~repro.service.core.SimulationService`
drives it under one lock from two sides: a submitting thread folds its
own job in with :meth:`DynamicBatcher.add` and dispatches whatever that
made full, and the service's batch thread keeps only the clocks — age
(:meth:`DynamicBatcher.due`), idle and the terminal flush on close
(:meth:`DynamicBatcher.drain`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.service.jobs import SimulationJob

__all__ = ["DynamicBatcher", "PendingBatch"]


@dataclass
class PendingBatch:
    """Jobs accumulated for one compatibility group."""

    compat_key: str
    jobs: List[SimulationJob] = field(default_factory=list)
    oldest: float = 0.0
    #: Already re-queued once after a worker death/hang; a second loss
    #: fails the batch's jobs instead (see ``repro.service.pool``).
    requeued: bool = False
    #: Slots of ``jobs``, counted as :meth:`add` folds them in.
    num_slots: int = 0

    @property
    def num_jobs(self) -> int:
        return len(self.jobs)

    def add(self, job: SimulationJob, now: float) -> None:
        if not self.jobs:
            self.oldest = now
        self.jobs.append(job)
        self.num_slots += job.num_slots


class DynamicBatcher:
    """Accumulates jobs per compatibility group and decides when to flush."""

    def __init__(self, max_batch_slots: int, max_wait_seconds: float) -> None:
        self.max_batch_slots = max_batch_slots
        self.max_wait_seconds = max_wait_seconds
        self._pending: Dict[str, PendingBatch] = {}

    # -- state ----------------------------------------------------------------

    @property
    def pending_jobs(self) -> int:
        return sum(b.num_jobs for b in self._pending.values())

    @property
    def pending_slots(self) -> int:
        return sum(b.num_slots for b in self._pending.values())

    def __bool__(self) -> bool:
        """Whether any job is pending."""
        return bool(self._pending)

    def next_deadline(self, now: float) -> Optional[float]:
        """Seconds until the oldest pending batch ages out (None if empty)."""
        if not self._pending:
            return None
        oldest = min(b.oldest for b in self._pending.values())
        return max(0.0, oldest + self.max_wait_seconds - now)

    # -- policy ---------------------------------------------------------------

    def add(self, job: SimulationJob, now: float) -> List[PendingBatch]:
        """Fold one job in; returns batches made ready by this arrival.

        A job that would push its group past ``max_batch_slots`` flushes
        the group first (the in-flight batch stays within the plane
        width the engine was sized for); a single job wider than the
        ceiling becomes a batch of its own — the engine's own
        memory-budget chunking handles oversized planes.
        """
        ready: List[PendingBatch] = []
        key = job.compat_key
        batch = self._pending.get(key)
        if batch is not None and \
                batch.num_slots + job.num_slots > self.max_batch_slots:
            ready.append(self._pending.pop(key))
            batch = None
        if batch is None:
            batch = self._pending[key] = PendingBatch(compat_key=key)
        batch.add(job, now)
        if batch.num_slots >= self.max_batch_slots:
            ready.append(self._pending.pop(key))
        return ready

    def due(self, now: float) -> List[PendingBatch]:
        """Batches whose oldest job has waited at least ``max_wait``."""
        ready = [key for key, batch in self._pending.items()
                 if now - batch.oldest >= self.max_wait_seconds]
        return [self._pending.pop(key) for key in ready]

    def drain(self) -> List[PendingBatch]:
        """Everything pending (idle flush and shutdown)."""
        batches = list(self._pending.values())
        self._pending.clear()
        return batches
