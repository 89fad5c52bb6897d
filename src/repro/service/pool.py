"""Supervised workers: one state machine, one batch queue, two worker kinds.

The service hands every batch to a :class:`Supervisor`, which owns what
running a batch on a worker that may die or wedge takes, whatever the
worker is:

* the batch queue, one FIFO for every worker, and the in-flight
  record.  A worker takes the oldest batch — and the batch's hang
  clock starts — when it is ready (a thread at once, a shard process
  when its ``ready`` arrives; booting is bounded by ``spawn_timeout_s``
  instead), holds fewer than its kind's ``window`` of batches and no
  other ready worker holds fewer: an idle worker takes work before a
  busy one pipelines another;
* the outstanding-batch count and its idle condition, which bound the
  drain in :meth:`Supervisor.close`; the count also says whether a
  worker is free (:attr:`Supervisor.worker_free`), and a settled batch
  that leaves one free calls ``on_free`` (the service's idle flush
  waits for a free worker);
* the tick thread, which checks every worker and then calls
  ``on_tick`` (the service expires job deadlines there);
* the loss rule: a worker found dead, running a batch past
  ``hang_timeout_s`` or booting past ``spawn_timeout_s`` is replaced,
  and each batch it held is re-queued **once**
  (``PendingBatch.requeued``), at the front of the queue — its jobs
  have waited longest — for any ready worker to take; a second loss
  fails that batch with :class:`~repro.errors.WorkerLostError`.  A lost
  worker's generation moves on, so a late completion from it is
  dropped — job futures settle exactly once, and a re-run batch is
  bit-identical anyway;
* shutdown: every incarnation of a worker has one taker thread, which
  exits once its incarnation is lost or the supervisor closes;
* the ``workers_replaced`` / ``workers_hung`` / ``batches_requeued``
  counters.

A worker kind supplies only how a worker is started, whether it is
alive, and how a lost one is replaced.  :class:`EnginePool` is the
thread kind: a thread cannot be killed, so a hung one is abandoned and
a fresh thread takes its slot (engines are per thread, so a lost one
never leaks a half-mutated arena into the next batch).
:class:`~repro.service.router.ShardRouter` is the process kind.
"""

from __future__ import annotations

import itertools
import threading
import time as _time
from collections import deque
from typing import Callable, Dict, List, Optional

from repro.errors import WorkerLostError
from repro.faults.plan import WorkerDeathError

__all__ = ["EnginePool", "Supervisor", "Worker"]


class Worker:
    """One supervised worker slot, replaced in place (the supervisor's
    lock guards it; ``cv`` also guards all but ``inflight``)."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.cv = threading.Condition()
        #: Moves on with every loss: a completion from an older
        #: incarnation is dropped.
        self.generation = 0
        self.spawned_at = 0.0
        #: When this incarnation could first run a batch; None while it
        #: boots.
        self.ready_at: Optional[float] = None
        #: key -> (batch, started, payload of the worker kind)
        self.inflight: Dict[int, tuple] = {}
        #: Could not be replaced: no longer supervised.
        self.broken = False


class Supervisor:
    """The supervised-worker state machine; subclasses are worker kinds.

    A kind implements ``_alive(worker)`` and ``_respawn(worker, hung,
    requeued)``: start a fresh incarnation, whose taker thread (kept in
    ``_takers``) takes batches with :meth:`_next`.  It may override
    ``_dispatching`` and ``_shutdown``, and starts ``_ticker`` once its
    workers run.
    """

    #: Names the worker in a second-loss :class:`WorkerLostError`.
    noun = "worker"
    #: Batches one worker may hold in flight at once.
    window = 1
    #: Seconds a worker may boot before it counts as wedged (a thread
    #: is ready at once).
    spawn_timeout_s = float("inf")

    def __init__(self, workers: List[Worker], on_batch_lost: Callable,
                 hang_timeout_s: float, tick_s: float,
                 on_tick: Optional[Callable[[], None]], name: str,
                 on_free: Optional[Callable[[], None]] = None) -> None:
        self._workers = workers
        self._on_batch_lost = on_batch_lost
        self._hang_timeout_s = hang_timeout_s
        self._tick_s = tick_s
        self._on_tick = on_tick
        self._on_free = on_free
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        #: Wakes the takers: a batch was queued, or a worker became
        #: ready, settled a batch or was lost, or the supervisor closed.
        self._work = threading.Condition(self._lock)
        #: Takers blocked on ``_work``; no waiter, nothing to wake.
        self._waiting = 0
        self._queue: "deque" = deque()
        self._keys = itertools.count(1)
        #: Set once no worker can run a batch again; a batch submitted
        #: or still queued then fails with it.
        self._failed: Optional[BaseException] = None
        self._outstanding = 0
        self._closed = False
        #: The taker thread of each worker's current incarnation.
        self._takers: List[Optional[threading.Thread]] = [None] * len(workers)
        self.workers_replaced = 0
        self.workers_hung = 0
        self.batches_requeued = 0
        self._stop = threading.Event()
        self._ticker = threading.Thread(
            target=self._tick, name=f"{name}-supervisor", daemon=True)

    @property
    def num_workers(self) -> int:
        return len(self._workers)

    @property
    def batches_queued(self) -> int:
        """Batches waiting for a worker (read under the queue's lock)."""
        with self._lock:
            return len(self._queue)

    @property
    def worker_free(self) -> bool:
        """Whether fewer batches are outstanding than there are workers
        (a lock-free read of one int)."""
        return self._outstanding < len(self._workers)

    def submit(self, batch) -> None:
        """Queue one batch; it stays outstanding until it settles."""
        with self._lock:
            self._outstanding += 1
            failed = self._failed
            if failed is None:
                self._queue.append(batch)
                if self._waiting:
                    self._work.notify_all()
                return
        self._lost(batch, failed)

    def stats(self) -> dict:
        with self._lock:
            return {
                "workers_replaced": self.workers_replaced,
                "workers_hung": self.workers_hung,
                "batches_requeued": self.batches_requeued,
            }

    # -- the queue and the in-flight record -----------------------------------

    def _may_pipeline(self, worker: Worker) -> bool:
        """Whether ``worker``, already holding batches, may take another:
        it holds fewer than ``window`` and no other ready worker holds
        fewer (lock held)."""
        held = len(worker.inflight)
        return held < self.window and all(
            other.ready_at is None or len(other.inflight) >= held
            for other in self._workers)

    def _next(self, worker: Worker, generation: int):
        """Wait until ``worker`` may take the oldest queued batch — it
        is ready and holds none, or :meth:`_may_pipeline` — and put it
        in flight there; its hang clock starts.

        Returns ``(key, batch, payload)`` — ``payload`` is what
        :meth:`_dispatching` made of the batch — or None once the
        supervisor closes or this incarnation is lost: the taker exits.
        """
        with self._lock:
            while True:
                if self._closed or worker.generation != generation:
                    return None
                if self._queue and worker.ready_at is not None and (
                        not worker.inflight or self._may_pipeline(worker)):
                    break
                self._waiting += 1
                self._work.wait()
                self._waiting -= 1
            batch = self._queue.popleft()
            payload = self._dispatching(worker, batch)
            key = next(self._keys)
            worker.inflight[key] = (batch, _time.monotonic(), payload)
            if self._queue and self._waiting:
                # This take may have left another worker the least
                # loaded one.
                self._work.notify_all()
            return key, batch, payload

    def _dispatching(self, worker: Worker, batch):
        """What a kind keeps with a batch it takes (lock held)."""
        return None

    def _ready(self, worker: Worker, generation: int) -> None:
        """The ``generation`` incarnation of ``worker`` can run batches."""
        with self._lock, worker.cv:
            if worker.generation == generation:
                worker.ready_at = _time.monotonic()
                self._work.notify_all()

    def _release(self, worker: Worker, generation: int,
                 key: int) -> Optional[tuple]:
        """Take a batch out of flight; None when its worker was lost
        meanwhile (recovery owns the batch then)."""
        with self._lock:
            if worker.generation != generation:
                return None
            entry = worker.inflight.pop(key, None)
            if self._queue and self._waiting:
                self._work.notify_all()
            return entry

    def _batch_done(self) -> None:
        with self._lock:
            self._outstanding -= 1
            if self._outstanding <= 0:
                self._idle.notify_all()
            free = self.worker_free
        # Outside the lock: the hook takes the service's intake lock,
        # which is held around ``submit``.
        if free and self._on_free is not None:
            self._on_free()

    def _lost(self, batch, error: BaseException) -> None:
        self._on_batch_lost(batch, error)
        self._batch_done()

    def _fail_queued(self, error: BaseException) -> None:
        """No worker can run a batch again: fail every queued batch, and
        every batch submitted from now on, with ``error``."""
        with self._lock:
            self._failed = error
            queued = list(self._queue)
            self._queue.clear()
        for batch in queued:
            self._lost(batch, error)

    # -- supervision ----------------------------------------------------------

    def _tick(self) -> None:
        while not self._stop.wait(self._tick_s):
            now = _time.monotonic()
            for worker in self._workers:
                if not worker.broken:
                    self._check(worker, now)
            if self._on_tick is not None:
                self._on_tick()

    def _check(self, worker: Worker, now: float) -> None:
        alive = self._alive(worker)
        with self._lock, worker.cv:
            if not alive:
                hung = False
            elif worker.ready_at is None:
                hung = now - worker.spawned_at > self.spawn_timeout_s
                if not hung:
                    return
            elif any(now - started > self._hang_timeout_s
                     for _, started, _ in worker.inflight.values()):
                hung = True
            else:
                return
            worker.generation += 1
            worker.ready_at = None
            lost = [entry[0] for entry in worker.inflight.values()]
            worker.inflight.clear()
            failed = [batch for batch in lost if batch.requeued]
            requeue = [batch for batch in lost if not batch.requeued]
            for batch in requeue:
                batch.requeued = True
            # Back to the front of the queue: their jobs have waited
            # longest.  The lost incarnation's taker wakes and exits.
            self._queue.extendleft(reversed(requeue))
            self._work.notify_all()
            self.workers_replaced += 1
            self.workers_hung += hung
            self.batches_requeued += len(requeue)
        for batch in failed:
            self._lost(batch, WorkerLostError(
                f"{self.noun} lost while executing a re-queued batch"))
        self._respawn(worker, hung, len(requeue))

    # -- shutdown -------------------------------------------------------------

    def close(self, timeout_s: Optional[float] = None) -> None:
        """Wait for outstanding batches, then stop every worker.

        Queued batches still execute (the service decides beforehand
        whether to fail them, for an aborting close).  The wait is
        bounded: pending work is given ``hang_timeout_s`` twice plus
        grace, after which shutdown proceeds and abandons whatever is
        still queued or wedged.
        """
        deadline = _time.monotonic() + (
            timeout_s if timeout_s is not None
            else self._hang_timeout_s * 2 + 10.0)
        with self._idle:
            while self._outstanding > 0:
                remaining = deadline - _time.monotonic()
                if remaining <= 0:
                    break
                self._idle.wait(timeout=min(remaining, 0.1))
        self._stop.set()
        self._ticker.join(timeout=5.0)
        self._stop_takers()
        self._shutdown()

    def _stop_takers(self) -> None:
        """Close the queue: every taker thread exits, and is joined."""
        with self._lock:
            self._closed = True
            self._work.notify_all()
        for thread in self._takers:
            if thread is not None:
                thread.join(timeout=5.0)

    def _shutdown(self) -> None:
        """What a kind stops beyond its takers."""


class EnginePool(Supervisor):
    """The thread kind: one engine thread per worker slot."""

    noun = "engine worker"

    def __init__(
        self,
        workers: int,
        handler: Callable,
        on_batch_lost: Callable,
        hang_timeout_s: float = 30.0,
        tick_s: float = 0.05,
        on_tick: Optional[Callable[[], None]] = None,
        on_free: Optional[Callable[[], None]] = None,
    ) -> None:
        super().__init__([Worker(index) for index in range(workers)],
                         on_batch_lost, hang_timeout_s, tick_s, on_tick,
                         name="repro-service", on_free=on_free)
        self._handler = handler
        for worker in self._workers:
            self._respawn(worker, False, 0)
        self._ticker.start()

    def _alive(self, worker: Worker) -> bool:
        return self._takers[worker.index].is_alive()

    def _respawn(self, worker: Worker, hung: bool, requeued: int) -> None:
        # A hung thread cannot be stopped: it is left to finish, and
        # exits when it finds its generation gone.
        generation = worker.generation
        thread = threading.Thread(
            target=self._work_loop, args=(worker, generation),
            name=f"repro-service-worker-{worker.index}.{generation}",
            daemon=True)
        self._takers[worker.index] = thread
        thread.start()
        self._ready(worker, generation)

    def _work_loop(self, worker: Worker, generation: int) -> None:
        while True:
            taken = self._next(worker, generation)
            if taken is None:
                return
            key, batch, _ = taken
            error = None
            try:
                self._handler(batch)
            except WorkerDeathError:
                # Simulated worker death: exit without settling, so the
                # tick finds the corpse holding its batch.
                return
            except BaseException as raised:  # noqa: BLE001 - defensive
                error = raised
            if self._release(worker, generation, key) is None:
                return  # abandoned while wedged: the batch is not ours
            if error is not None:
                self._lost(batch, error)
            else:
                self._batch_done()
