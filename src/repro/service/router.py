"""Shard router: consistent-hash dispatch over supervised worker processes.

:class:`ShardRouter` is the process-pool sibling of the threaded
:class:`~repro.service.pool.EnginePool` — the service's batching loop
hands it :class:`~repro.service.batcher.PendingBatch` es and the router
owns everything between the batcher and the job futures:

* **placement** — a batch's compatibility group maps to a *home* shard
  on a consistent-hash ring (stable vnode points per shard index, so
  one group's engine/plan/arena state stays hot in one process); when
  the home shard's backlog reaches ``shard_queue_depth``, the batch
  *spills* to the least-loaded shard instead (load-aware rebalancing —
  one hot group still saturates every core);
* **transport** — one duplex control pipe per shard carries
  everything: a batch goes out as one pickled message holding its
  stimuli and slot plane, and its packed result plane comes back as one
  ``done`` reply (see :mod:`repro.service.shard`).  The pickled sizes
  feed the ``ipc_tx/rx_bytes`` counters, payload included.  At most
  :data:`SHARD_WINDOW` batches are in flight per shard; a shard keeps
  nothing between batches but its registry and engines;
* **supervision** — a tick thread watches every shard: a dead process
  (or one wedged past ``hang_timeout_s``, which — unlike a thread —
  can simply be killed) is respawned, its registry replayed, its
  in-flight batches re-queued **once** (``PendingBatch.requeued``; a
  second loss fails those jobs with
  :class:`~repro.errors.WorkerLostError`).  Job futures settle exactly
  once through the service's ``_finish_job``, so a duplicate completion
  from a recovered race is harmless;
* **fault seams** — ``shard.spawn`` trips in this process right before
  each spawn (a ``raise``/``die`` rule fails the attempt; the router
  retries once, then surfaces :class:`~repro.errors.ShardError`);
  ``shard.dispatch`` trips inside the shard (see
  :mod:`repro.service.shard`).
"""

from __future__ import annotations

import bisect
import hashlib
import multiprocessing
import pickle
import threading
import time as _time
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import faults
from repro.errors import InjectedFaultError, ShardError, WorkerLostError
from repro.faults.plan import WorkerDeathError
from repro.service.batcher import PendingBatch
from repro.service.shard import _shard_main

__all__ = ["SHARD_WINDOW", "ShardRouter"]

#: Batches in flight per shard at once: sent and not yet answered.  The
#: dispatcher waits while a shard holds this many.
SHARD_WINDOW = 4

#: Vnode points per shard on the consistent-hash ring.
_RING_POINTS = 32

_PICKLE_PROTOCOL = 4


def _build_ring(num_shards: int) -> List[Tuple[int, int]]:
    ring: List[Tuple[int, int]] = []
    for shard in range(num_shards):
        for point in range(_RING_POINTS):
            digest = hashlib.sha256(
                f"repro-shard-{shard}-{point}".encode("ascii")).digest()
            ring.append((int.from_bytes(digest[:8], "big"), shard))
    ring.sort()
    return ring


class _ShardHandle:
    """Parent-side state of one shard (guarded by its condition)."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.cv = threading.Condition()
        self.send_lock = threading.Lock()
        self.proc: Optional[multiprocessing.process.BaseProcess] = None
        self.conn = None
        self.generation = 0
        self.ready = threading.Event()
        self.spawned_at = 0.0
        self.dead = False
        self.broken = False
        self.queue: "deque[PendingBatch]" = deque()
        #: batch_id -> (batch, jobs, started)
        self.inflight: Dict[int, tuple] = {}
        self.pong: Optional[dict] = None
        self.counters = {
            "dispatches": 0, "jobs": 0, "slots": 0,
            "respawns": 0, "kills": 0, "requeues": 0, "rebalanced_in": 0,
            "ipc_tx_bytes": 0, "ipc_rx_bytes": 0,
        }

    @property
    def load(self) -> int:
        return len(self.queue) + len(self.inflight)


class ShardRouter:
    """Consistent-hash batch routing over supervised shard processes."""

    def __init__(
        self,
        num_shards: int,
        combine: Callable,
        on_batch_done: Callable,
        on_batch_error: Callable,
        on_batch_lost: Callable,
        on_dispatch: Callable,
        queue_depth: int = 4,
        hang_timeout_s: float = 30.0,
        tick_s: float = 0.05,
        spawn_timeout_s: float = 120.0,
        on_tick: Optional[Callable[[], None]] = None,
        name: str = "repro-router",
    ) -> None:
        if num_shards < 1:
            raise ShardError("need at least one shard")
        self._combine = combine
        self._on_batch_done = on_batch_done
        self._on_batch_error = on_batch_error
        self._on_batch_lost = on_batch_lost
        self._on_dispatch = on_dispatch
        self._on_tick = on_tick
        self._queue_depth = queue_depth
        self._hang_timeout_s = hang_timeout_s
        self._tick_s = tick_s
        self._spawn_timeout_s = spawn_timeout_s
        self._name = name
        self._ctx = multiprocessing.get_context("spawn")
        self._ring = _build_ring(num_shards)
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._outstanding = 0
        self._batch_serial = 0
        self._closed = False
        self.shards_respawned = 0
        self.shards_hung = 0
        self.batches_requeued = 0
        self.rebalances = 0
        self.shard_errors = 0
        #: Registry replayed into respawned shards:
        #: circuit_key -> (compiled, plans); compat_key -> group tuple.
        self._circuits: Dict[str, tuple] = {}
        self._groups: Dict[str, tuple] = {}
        self._registry_lock = threading.Lock()

        self._handles = [_ShardHandle(index) for index in range(num_shards)]
        try:
            for handle in self._handles:
                self._start_shard(handle)
        except ShardError:
            self._abort_startup()
            raise
        self._dispatchers = [
            threading.Thread(target=self._dispatch_loop, args=(handle,),
                             name=f"{name}-dispatch-{handle.index}",
                             daemon=True)
            for handle in self._handles
        ]
        for thread in self._dispatchers:
            thread.start()
        self._stop_supervisor = threading.Event()
        self._supervisor = threading.Thread(
            target=self._supervise, name=f"{name}-supervisor", daemon=True)
        self._supervisor.start()

    def _abort_startup(self) -> None:
        """Tear down whatever a failed construction managed to start."""
        for handle in self._handles:
            process = handle.proc
            if process is not None:
                if process.is_alive():
                    process.kill()
                process.join(timeout=5.0)
            with handle.send_lock:
                if handle.conn is not None:
                    handle.conn.close()
                    handle.conn = None

    # -- registry -------------------------------------------------------------

    def register_circuit(self, key: str, compiled, plans) -> None:
        """Record and broadcast one compiled circuit (idempotent).

        ``plans`` is the parent's already-built ``CircuitPlans`` —
        pickled along so every shard's plan cache is warm before its
        first batch (and re-warmed on respawn replay).
        """
        with self._registry_lock:
            if key in self._circuits:
                return
            self._circuits[key] = (compiled, plans)
        message = ("circuit", key, compiled, plans)
        for handle in self._handles:
            self._send(handle, message)

    def register_group(self, compat_key: str, circuit_key: str, config,
                       kernel_table, variation) -> None:
        """Record and broadcast one compatibility group (idempotent)."""
        with self._registry_lock:
            if compat_key in self._groups:
                return
            self._groups[compat_key] = (circuit_key, config, kernel_table,
                                        variation)
        message = ("group", compat_key) + self._groups[compat_key]
        for handle in self._handles:
            self._send(handle, message)

    def _replay_registry(self, handle: "_ShardHandle") -> None:
        with self._registry_lock:
            circuits = list(self._circuits.items())
            groups = list(self._groups.items())
        for key, (compiled, plans) in circuits:
            self._send(handle, ("circuit", key, compiled, plans))
        for compat_key, group in groups:
            self._send(handle, ("group", compat_key) + group)

    # -- submission -----------------------------------------------------------

    def submit(self, batch: PendingBatch) -> None:
        with self._lock:
            self._outstanding += 1
        handle, rebalanced = self._route(batch.compat_key)
        if handle is None:
            self._lost(batch, ShardError("every shard is broken"))
            return
        with handle.cv:
            if rebalanced:
                handle.counters["rebalanced_in"] += 1
            handle.queue.append(batch)
            handle.cv.notify_all()
        if rebalanced:
            with self._lock:
                self.rebalances += 1

    def _route(self, compat_key: str
               ) -> Tuple[Optional["_ShardHandle"], bool]:
        """Home shard by consistent hash, least-loaded spill when full."""
        point = int(compat_key[:16], 16)
        index = bisect.bisect_left(self._ring, (point, -1)) % len(self._ring)
        home = self._handles[self._ring[index][1]]
        candidates = [h for h in self._handles if not h.broken]
        if not candidates:
            return None, False
        if home.broken:
            return min(candidates, key=lambda h: h.load), False
        if len(candidates) > 1 and home.load >= self._queue_depth:
            spill = min(candidates, key=lambda h: h.load)
            if spill is not home and spill.load < home.load:
                return spill, True
        return home, False

    # -- shard lifecycle ------------------------------------------------------

    def _start_shard(self, handle: "_ShardHandle") -> None:
        """Spawn (or respawn) one shard; retries a failed spawn once."""
        last_error: Optional[BaseException] = None
        for _ in range(2):
            try:
                faults.trip("shard.spawn")
                self._spawn_process(handle)
                return
            except (InjectedFaultError, WorkerDeathError, OSError) as error:
                last_error = error
        handle.broken = True
        raise ShardError(
            f"shard {handle.index} failed to spawn twice: {last_error}")

    def _spawn_process(self, handle: "_ShardHandle") -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        handle.generation += 1
        process = self._ctx.Process(
            target=_shard_main,
            args=(handle.index, child_conn),
            name=f"{self._name}-shard-{handle.index}.{handle.generation}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        handle.proc = process
        handle.conn = parent_conn
        handle.ready.clear()
        handle.spawned_at = _time.monotonic()
        handle.dead = False
        receiver = threading.Thread(
            target=self._receive_loop, args=(handle, handle.generation),
            name=f"{self._name}-recv-{handle.index}.{handle.generation}",
            daemon=True)
        receiver.start()
        self._replay_registry(handle)

    def _send(self, handle: "_ShardHandle", message: tuple) -> bool:
        payload = pickle.dumps(message, protocol=_PICKLE_PROTOCOL)
        with handle.send_lock:
            conn = handle.conn
            if conn is None:
                return False
            # Counted before the write: the shard's reply can settle the
            # batch's jobs before this thread runs again.
            with handle.cv:
                handle.counters["ipc_tx_bytes"] += len(payload)
            try:
                conn.send_bytes(payload)
            except (OSError, ValueError):
                return False
        return True

    # -- dispatcher (one thread per shard) ------------------------------------

    def _dispatch_loop(self, handle: "_ShardHandle") -> None:
        while True:
            with handle.cv:
                while not self._dispatchable(handle):
                    if self._closed and not handle.queue:
                        return
                    handle.cv.wait(timeout=0.1)
                if self._closed and not handle.queue:
                    return
                batch = handle.queue.popleft()
                generation = handle.generation
            try:
                self._dispatch_one(handle, batch, generation)
            except Exception as error:  # noqa: BLE001 - fail batch, not thread
                self._lost(batch, error)

    def _dispatchable(self, handle: "_ShardHandle") -> bool:
        if self._closed and not handle.queue:
            return True
        return bool(handle.queue and not handle.dead and not handle.broken
                    and len(handle.inflight) < SHARD_WINDOW)

    def _dispatch_one(self, handle: "_ShardHandle", batch: PendingBatch,
                      generation: int) -> None:
        jobs = [job for job in batch.jobs if not job.future.done()]
        if not jobs:
            self._batch_finished()
            return
        pairs, plan, global_slots = self._combine(jobs)
        with self._lock:
            self._batch_serial += 1
            batch_id = self._batch_serial
        message = ("batch", {
            "batch_id": batch_id,
            "compat_key": batch.compat_key,
            "v1": np.stack([pair.v1 for pair in pairs]),
            "v2": np.stack([pair.v2 for pair in pairs]),
            "pattern_indices": plan.pattern_indices,
            "voltages": plan.voltages,
            "global_slots": global_slots,
        })
        started = _time.monotonic()
        with handle.cv:
            if handle.generation != generation:
                # Recovery ran while we combined: the batch was never in
                # flight — just put it back for the new shard.
                handle.queue.appendleft(batch)
                handle.cv.notify_all()
                return
            handle.inflight[batch_id] = (batch, jobs, started)
            handle.counters["dispatches"] += 1
            handle.counters["jobs"] += len(jobs)
            handle.counters["slots"] += plan.num_slots
        if not self._send(handle, message):
            # The shard died under us: mark it so the supervisor's
            # recovery path re-queues the batch (it sits in inflight,
            # which is exactly where recovery looks).
            with handle.cv:
                if handle.generation == generation:
                    handle.dead = True
            return
        self._on_dispatch(batch, jobs, handle.index)

    # -- receiver (one thread per shard process generation) -------------------

    def _receive_loop(self, handle: "_ShardHandle", generation: int) -> None:
        conn = handle.conn
        while True:
            try:
                payload = conn.recv_bytes()
            except (EOFError, OSError):
                return
            with handle.cv:
                if handle.generation != generation:
                    return
                handle.counters["ipc_rx_bytes"] += len(payload)
            try:
                message = pickle.loads(payload)
            except Exception:  # noqa: BLE001 - corrupt control stream
                with handle.cv:
                    handle.dead = True
                return
            kind = message[0]
            if kind == "ready":
                handle.ready.set()
            elif kind == "pong":
                with handle.cv:
                    handle.pong = message[1]
                    handle.cv.notify_all()
            elif kind == "done":
                self._handle_done(handle, generation, message[1], message[2])
            elif kind == "error":
                self._handle_error(handle, generation, message[1],
                                   message[2], message[3])

    def _pop_inflight(self, handle: "_ShardHandle", generation: int,
                      batch_id: int) -> Optional[tuple]:
        with handle.cv:
            if handle.generation != generation:
                # A previous incarnation's completion arrived after
                # recovery already re-queued the batch: drop it — job
                # futures settle exactly once, and the re-executed
                # results are bit-identical by contract.
                return None
            entry = handle.inflight.pop(batch_id, None)
            handle.cv.notify_all()  # a window place opened
            return entry

    def _handle_done(self, handle: "_ShardHandle", generation: int,
                     batch_id: int, outcome: dict) -> None:
        entry = self._pop_inflight(handle, generation, batch_id)
        if entry is None:
            return
        batch, jobs, started = entry
        try:
            self._on_batch_done(batch, jobs, outcome, handle.index, started)
        except Exception as error:  # noqa: BLE001 - demux must not kill recv
            self._on_batch_lost(batch, error)
        self._batch_finished()

    def _handle_error(self, handle: "_ShardHandle", generation: int,
                      batch_id: Optional[int], exc_name: str,
                      message: str) -> None:
        if batch_id is None:
            with self._lock:
                self.shard_errors += 1
            return
        entry = self._pop_inflight(handle, generation, batch_id)
        if entry is None:
            return
        batch, jobs, _ = entry
        try:
            self._on_batch_error(batch, jobs, exc_name, message)
        except Exception as error:  # noqa: BLE001 - defensive
            self._on_batch_lost(batch, error)
        self._batch_finished()

    def _batch_finished(self) -> None:
        with self._lock:
            self._outstanding -= 1
            if self._outstanding <= 0:
                self._idle.notify_all()

    def _lost(self, batch: PendingBatch, error: BaseException) -> None:
        self._on_batch_lost(batch, error)
        self._batch_finished()

    # -- supervision ----------------------------------------------------------

    def _supervise(self) -> None:
        while not self._stop_supervisor.wait(self._tick_s):
            now = _time.monotonic()
            for handle in self._handles:
                self._check_shard(handle, now)
            if self._on_tick is not None:
                self._on_tick()

    def _check_shard(self, handle: "_ShardHandle", now: float) -> None:
        if handle.broken or self._closed:
            return
        process = handle.proc
        if process is None:
            return
        if not process.is_alive():
            self._recover(handle, hung=False)
            return
        if (not handle.ready.is_set()
                and now - handle.spawned_at > self._spawn_timeout_s):
            self._kill(handle)
            self._recover(handle, hung=True)
            return
        with handle.cv:
            wedged = any(now - started > self._hang_timeout_s
                         for _, _, started in handle.inflight.values())
        if wedged:
            # A process — unlike a thread — can actually be killed.
            self._kill(handle)
            self._recover(handle, hung=True)

    def _kill(self, handle: "_ShardHandle") -> None:
        process = handle.proc
        if process is not None and process.is_alive():
            process.kill()
            process.join(timeout=5.0)

    def _recover(self, handle: "_ShardHandle", hung: bool) -> None:
        with handle.cv:
            handle.dead = True
            # Invalidate a batch a dispatcher is combining right now:
            # generation guards every inflight insert and completion.
            handle.generation += 1
            inflight = list(handle.inflight.values())
            handle.inflight.clear()
            handle.counters["respawns"] += 1
            if hung:
                handle.counters["kills"] += 1
        process = handle.proc
        if process is not None:
            process.join(timeout=5.0)
        with self._lock:
            self.shards_respawned += 1
            if hung:
                self.shards_hung += 1

        requeue: List[PendingBatch] = []
        for batch, _, _ in inflight:
            if batch.requeued:
                self._lost(batch, WorkerLostError(
                    "shard process lost while executing a re-queued batch"))
            else:
                batch.requeued = True
                requeue.append(batch)
        with self._lock:
            self.batches_requeued += len(requeue)
            with handle.cv:
                handle.counters["requeues"] += len(requeue)

        try:
            self._start_shard(handle)
        except ShardError as error:
            with handle.cv:
                queued = list(handle.queue)
                handle.queue.clear()
                handle.cv.notify_all()
            for batch in requeue + queued:
                self._lost(batch, error)
            return
        with handle.cv:
            # Re-queued batches go back to the front: their jobs have
            # been waiting longest.
            for batch in reversed(requeue):
                handle.queue.appendleft(batch)
            handle.cv.notify_all()

    # -- observability --------------------------------------------------------

    def ping(self, index: int, timeout_s: float = 10.0) -> Optional[dict]:
        """Round-trip health probe; shard info dict, or None on timeout."""
        handle = self._handles[index]
        with handle.cv:
            handle.pong = None
        if not self._send(handle, ("ping",)):
            return None
        deadline = _time.monotonic() + timeout_s
        with handle.cv:
            while handle.pong is None:
                remaining = deadline - _time.monotonic()
                if remaining <= 0:
                    return None
                handle.cv.wait(timeout=remaining)
            return handle.pong

    @property
    def num_shards(self) -> int:
        return len(self._handles)

    def shard_pid(self, index: int) -> Optional[int]:
        process = self._handles[index].proc
        return process.pid if process is not None else None

    def shard_load(self, index: int) -> int:
        handle = self._handles[index]
        with handle.cv:
            return handle.load

    def stats(self) -> dict:
        shards: Dict[str, dict] = {}
        totals = {"ipc_tx_bytes": 0, "ipc_rx_bytes": 0}
        for handle in self._handles:
            with handle.cv:
                entry = dict(handle.counters)
                entry["queue_depth"] = len(handle.queue)
                entry["inflight"] = len(handle.inflight)
                entry["alive"] = bool(handle.proc is not None
                                      and handle.proc.is_alive())
                entry["pid"] = (handle.proc.pid
                                if handle.proc is not None else None)
            for key in totals:
                totals[key] += entry[key]
            shards[str(handle.index)] = entry
        with self._lock:
            return {
                "workers_replaced": self.shards_respawned,
                "workers_hung": self.shards_hung,
                "batches_requeued": self.batches_requeued,
                "shard_rebalances": self.rebalances,
                "shard_errors": self.shard_errors,
                "shards": shards,
                **totals,
            }

    # -- shutdown -------------------------------------------------------------

    def close(self, timeout_s: Optional[float] = None) -> None:
        """Drain outstanding batches, then stop every shard."""
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
        self._stop_supervisor.set()
        self._supervisor.join(timeout=5.0)
        for handle in self._handles:
            with handle.cv:
                handle.cv.notify_all()
        for thread in self._dispatchers:
            thread.join(timeout=5.0)
        for handle in self._handles:
            self._send(handle, ("close",))
        for handle in self._handles:
            process = handle.proc
            if process is None:
                continue
            process.join(timeout=5.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=5.0)
            with handle.send_lock:
                if handle.conn is not None:
                    handle.conn.close()
                    handle.conn = None
