"""Supervised engine-worker pool.

The service used to dispatch batches through a bare
``ThreadPoolExecutor`` — fine until a worker *dies* (an injected
``WorkerDeathError``, or any future native crash surfacing as thread
death) or *hangs* (a wedged native kernel, an injected ``hang``), at
which point its in-flight batch simply never resolves and every rider
waits forever.  :class:`EnginePool` replaces it with worker threads a
supervisor actively watches:

* a **dead** worker (thread no longer alive, batch still assigned) is
  replaced and its batch re-queued **once** (``PendingBatch.requeued``);
  a second loss fails only that batch's jobs with
  :class:`~repro.errors.WorkerLostError`;
* a **hung** worker (batch executing past ``hang_timeout_s``) cannot be
  killed — Python threads are not cancellable — so its slot is
  *abandoned*: ownership of the batch transfers to the supervisor (same
  re-queue-once policy) and a fresh thread takes the slot.  If the
  stale thread eventually finishes, its completions are harmless — job
  futures settle exactly once and re-executed results are bit-identical
  by the service's bit-identity contract;
* every supervisor tick also invokes ``on_tick`` so the service can
  expire job deadlines without running its own timer thread.

Replacement threads build fresh engine instances on first use (the
service keys engines in ``threading.local``), so a worker lost mid-
batch never leaks a half-mutated arena into the next dispatch.
"""

from __future__ import annotations

import queue as _queue
import threading
import time as _time
from typing import Callable, Optional

from repro.errors import WorkerLostError
from repro.faults.plan import WorkerDeathError

__all__ = ["EnginePool"]

_STOP = object()


class _WorkerSlot:
    """One worker thread plus its in-flight batch (pool-lock guarded)."""

    __slots__ = ("thread", "item", "started", "stolen")

    def __init__(self) -> None:
        self.thread: Optional[threading.Thread] = None
        self.item = None
        self.started = 0.0
        #: Ownership transferred to the supervisor (hung-slot abandon):
        #: the stale thread must not settle or decrement anything.
        self.stolen = False


class EnginePool:
    """Worker threads with death/hang supervision and re-queue-once."""

    def __init__(
        self,
        workers: int,
        handler: Callable,
        on_batch_lost: Callable,
        hang_timeout_s: float = 30.0,
        tick_s: float = 0.05,
        on_tick: Optional[Callable[[], None]] = None,
    ) -> None:
        self._handler = handler
        self._on_batch_lost = on_batch_lost
        self._hang_timeout_s = hang_timeout_s
        self._tick_s = tick_s
        self._on_tick = on_tick
        self._queue: "_queue.Queue" = _queue.Queue()
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._outstanding = 0
        self._closed = False
        self._serial = 0
        self.workers_replaced = 0
        self.workers_hung = 0
        self.batches_requeued = 0
        self._slots = [self._spawn(index) for index in range(workers)]
        self._stop_supervisor = threading.Event()
        self._supervisor = threading.Thread(
            target=self._supervise, name="repro-service-supervisor", daemon=True)
        self._supervisor.start()

    # -- submission -----------------------------------------------------------

    def submit(self, batch) -> None:
        """Queue one batch for execution (one ``handler(batch)`` call)."""
        with self._lock:
            self._outstanding += 1
        self._queue.put(batch)

    def stats(self) -> dict:
        with self._lock:
            return {
                "workers_replaced": self.workers_replaced,
                "workers_hung": self.workers_hung,
                "batches_requeued": self.batches_requeued,
            }

    # -- worker loop ----------------------------------------------------------

    def _spawn(self, index: int) -> _WorkerSlot:
        slot = _WorkerSlot()
        self._serial += 1
        slot.thread = threading.Thread(
            target=self._worker_loop, args=(slot,),
            name=f"repro-service-worker-{index}.{self._serial}", daemon=True)
        slot.thread.start()
        return slot

    def _worker_loop(self, slot: _WorkerSlot) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP:
                return
            with self._lock:
                if slot.stolen:
                    # This thread's slot was abandoned while it idled on
                    # the queue (cannot happen for a *blocked* thread,
                    # but close() may race a steal): hand the item back.
                    self._queue.put(item)
                    return
                slot.item = item
                slot.started = _time.monotonic()
            try:
                self._handler(item)
            except WorkerDeathError:
                # Simulated worker death: exit *without* settling, so
                # the supervisor finds the corpse holding its batch and
                # runs the real recovery path.
                return
            except BaseException as error:  # noqa: BLE001 - defensive
                if self._settle(slot, item, error):
                    return
            else:
                if self._settle(slot, item, None):
                    return

    def _settle(self, slot: _WorkerSlot, item, error) -> bool:
        """Finish one batch; returns True when this thread must exit
        (its slot was abandoned while it was wedged — a replacement owns
        the batch now, so a stale completion is a no-op)."""
        with self._lock:
            if slot.stolen:
                return True
            slot.item = None
        if error is not None:
            self._on_batch_lost(item, error)
        self._batch_done()
        return False

    def _batch_done(self) -> None:
        with self._lock:
            self._outstanding -= 1
            if self._outstanding <= 0:
                self._idle.notify_all()

    # -- supervision ----------------------------------------------------------

    def _supervise(self) -> None:
        while not self._stop_supervisor.wait(self._tick_s):
            self._scan(_time.monotonic())
            if self._on_tick is not None:
                self._on_tick()

    def _scan(self, now: float) -> None:
        with self._lock:
            slots = list(enumerate(self._slots))
        for index, slot in slots:
            if not slot.thread.is_alive():
                self._recover(index, slot, hung=False)
            elif (slot.item is not None and not slot.stolen
                  and now - slot.started > self._hang_timeout_s):
                self._recover(index, slot, hung=True)

    def _recover(self, index: int, slot: _WorkerSlot, hung: bool) -> None:
        with self._lock:
            if self._slots[index] is not slot or slot.stolen:
                return
            if self._closed and slot.item is None:
                # Worker exited via _STOP during shutdown: not a death.
                return
            item = slot.item
            slot.stolen = True
            self._slots[index] = self._spawn(index)
            self.workers_replaced += 1
            if hung:
                self.workers_hung += 1
            requeue = False
            if item is not None and not item.requeued:
                item.requeued = True
                self.batches_requeued += 1
                requeue = True
        if item is None:
            return
        if requeue:
            self._queue.put(item)  # the obligation stays outstanding
        else:
            self._on_batch_lost(item, WorkerLostError(
                "engine worker lost while executing a re-queued batch"))
            self._batch_done()

    # -- shutdown -------------------------------------------------------------

    def close(self, timeout_s: Optional[float] = None) -> None:
        """Drain the queue, wait for quiescence, stop every thread.

        Queued batches still execute (the service decides beforehand
        whether to fail them, for an aborting close).  The quiescence
        wait is bounded: pending work is given ``hang_timeout_s`` plus
        grace per outstanding wave, after which shutdown proceeds and
        abandons whatever is still wedged (daemon threads).
        """
        deadline = _time.monotonic() + (
            timeout_s if timeout_s is not None
            else self._hang_timeout_s * 2 + 10.0)
        with self._idle:
            self._closed = True
            while self._outstanding > 0:
                remaining = deadline - _time.monotonic()
                if remaining <= 0:
                    break
                self._idle.wait(timeout=min(remaining, 0.1))
        self._stop_supervisor.set()
        self._supervisor.join(timeout=5.0)
        with self._lock:
            slots = list(self._slots)
        for _ in slots:
            self._queue.put(_STOP)
        for slot in slots:
            slot.thread.join(timeout=5.0)
