"""Supervised workers: one state machine, two worker kinds.

The service hands every batch to a :class:`Supervisor`, which owns what
running a batch on a worker that may die or wedge takes, whatever the
worker is:

* the outstanding-batch count and its idle condition, which bound the
  drain in :meth:`Supervisor.close`; the count also says whether a
  worker is free (:attr:`Supervisor.worker_free`), and a settled batch
  that leaves one free calls ``on_free`` (the service's idle flush
  waits for a free worker);
* the in-flight record: a worker takes a batch — and the batch's hang
  clock starts — only once the worker can run it (a thread at once, a
  shard process when its ``ready`` arrives; booting is bounded by
  ``spawn_timeout_s`` instead);
* the tick thread, which checks every worker and then calls
  ``on_tick`` (the service expires job deadlines there);
* the loss rule: a worker found dead, running a batch past
  ``hang_timeout_s`` or booting past ``spawn_timeout_s`` is replaced,
  and each batch it held is re-queued **once**
  (``PendingBatch.requeued``); a second loss fails that batch with
  :class:`~repro.errors.WorkerLostError`.  A lost worker's generation
  moves on, so a late completion from it is dropped — job futures
  settle exactly once, and a re-run batch is bit-identical anyway;
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

import queue as _queue
import threading
import time as _time
from typing import Callable, Dict, List, Optional

from repro.errors import WorkerLostError
from repro.faults.plan import WorkerDeathError

__all__ = ["EnginePool", "Supervisor", "Worker"]

_STOP = object()


class Worker:
    """One supervised worker slot, replaced in place (``cv`` guards it)."""

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

    A kind implements ``_enqueue(batch)``, ``_alive(worker)``,
    ``_respawn(worker, hung, requeue)`` (start a fresh incarnation and
    queue ``requeue`` for it) and ``_shutdown()``, and starts
    ``_ticker`` once its workers run.
    """

    #: Names the worker in a second-loss :class:`WorkerLostError`.
    noun = "worker"

    def __init__(self, workers: List[Worker], on_batch_lost: Callable,
                 hang_timeout_s: float, tick_s: float,
                 on_tick: Optional[Callable[[], None]], name: str,
                 spawn_timeout_s: float = float("inf"),
                 on_free: Optional[Callable[[], None]] = None) -> None:
        self._workers = workers
        self._on_batch_lost = on_batch_lost
        self._hang_timeout_s = hang_timeout_s
        self._spawn_timeout_s = spawn_timeout_s
        self._tick_s = tick_s
        self._on_tick = on_tick
        self._on_free = on_free
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._outstanding = 0
        self._closed = False
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
    def worker_free(self) -> bool:
        """Whether fewer batches are outstanding than there are workers
        (a lock-free read of one int)."""
        return self._outstanding < len(self._workers)

    def submit(self, batch) -> None:
        """Queue one batch; it stays outstanding until it settles."""
        with self._lock:
            self._outstanding += 1
        self._enqueue(batch)

    def stats(self) -> dict:
        with self._lock:
            return {
                "workers_replaced": self.workers_replaced,
                "workers_hung": self.workers_hung,
                "batches_requeued": self.batches_requeued,
            }

    # -- in flight ------------------------------------------------------------

    def _take(self, worker: Worker, generation: int, key: int, batch,
              payload=None) -> bool:
        """Put ``batch`` in flight on ``worker``; its hang clock starts.

        False when that incarnation is gone or cannot run it yet: a
        batch is only ever timed on a ready worker.
        """
        with worker.cv:
            if worker.generation != generation or worker.ready_at is None:
                return False
            worker.inflight[key] = (batch, _time.monotonic(), payload)
            return True

    def _release(self, worker: Worker, generation: int,
                 key: int) -> Optional[tuple]:
        """Take a batch out of flight; None when its worker was lost
        meanwhile (recovery owns the batch then)."""
        with worker.cv:
            if worker.generation != generation:
                return None
            entry = worker.inflight.pop(key, None)
            worker.cv.notify_all()
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
        with worker.cv:
            if not alive:
                hung = False
            elif worker.ready_at is None:
                hung = now - worker.spawned_at > self._spawn_timeout_s
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
        with self._lock:
            self.workers_replaced += 1
            self.workers_hung += hung
            self.batches_requeued += len(requeue)
        for batch in failed:
            self._lost(batch, WorkerLostError(
                f"{self.noun} lost while executing a re-queued batch"))
        self._respawn(worker, hung, requeue)

    # -- shutdown -------------------------------------------------------------

    def close(self, timeout_s: Optional[float] = None) -> None:
        """Wait for outstanding batches, then stop every worker.

        Queued batches still execute (the service decides beforehand
        whether to fail them, for an aborting close).  The wait is
        bounded: pending work is given ``hang_timeout_s`` twice plus
        grace, after which shutdown proceeds and abandons whatever is
        still wedged.
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
            self._closed = True
        self._stop.set()
        self._ticker.join(timeout=5.0)
        self._shutdown()


class EnginePool(Supervisor):
    """The thread kind: worker threads sharing one batch queue."""

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
        self._queue: "_queue.Queue" = _queue.Queue()
        self._threads: List[threading.Thread] = [None] * workers
        for worker in self._workers:
            self._respawn(worker, False, [])
        self._ticker.start()

    def _enqueue(self, batch) -> None:
        self._queue.put(batch)

    def _alive(self, worker: Worker) -> bool:
        return self._threads[worker.index].is_alive()

    def _respawn(self, worker: Worker, hung: bool, requeue: list) -> None:
        # A hung thread cannot be stopped: it is left to finish, and
        # exits when it finds its generation gone.
        thread = threading.Thread(
            target=self._work, args=(worker, worker.generation),
            name=f"repro-service-worker-{worker.index}.{worker.generation}",
            daemon=True)
        self._threads[worker.index] = thread
        with worker.cv:
            worker.ready_at = _time.monotonic()
        thread.start()
        for batch in requeue:
            self._queue.put(batch)  # the obligation stays outstanding

    def _work(self, worker: Worker, generation: int) -> None:
        while True:
            batch = self._queue.get()
            if batch is _STOP:
                return
            if not self._take(worker, generation, 0, batch):
                # The slot was replaced while this thread finished its
                # last batch: hand this one back.
                self._queue.put(batch)
                return
            error = None
            try:
                self._handler(batch)
            except WorkerDeathError:
                # Simulated worker death: exit without settling, so the
                # tick finds the corpse holding its batch.
                return
            except BaseException as raised:  # noqa: BLE001 - defensive
                error = raised
            if self._release(worker, generation, 0) is None:
                return  # abandoned while wedged: the batch is not ours
            if error is not None:
                self._lost(batch, error)
            else:
                self._batch_done()

    def _shutdown(self) -> None:
        for _ in self._threads:
            self._queue.put(_STOP)
        for thread in self._threads:
            thread.join(timeout=5.0)
