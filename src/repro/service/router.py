"""Shard router: the process kind of the supervised-worker machine.

:class:`ShardRouter` runs the service's batches on spawned worker
processes under the machine of :mod:`repro.service.pool`, which owns
the in-flight clocks, the re-queue-once rule and the drain.  What is
the router's own:

* **dispatch** — every registration (circuit, compatibility group) is
  broadcast to every shard, so any shard can run any batch.  Each
  shard incarnation has a dispatcher thread that takes batches from the
  supervisor's one queue, up to :data:`SHARD_WINDOW` in flight (see
  :meth:`~repro.service.pool.Supervisor._next`: an idle shard takes the
  next batch before a busy one pipelines another);
* **transport** — one duplex control pipe per shard carries
  everything: a batch goes out as one pickled message holding its
  stimuli and slot plane, and its packed result plane comes back as one
  ``done`` reply (see :mod:`repro.service.shard`).  The pickled sizes
  feed the ``ipc_tx/rx_bytes`` counters, payload included.  A shard
  keeps nothing between batches but its registry and engines;
* **replacement** — a process, unlike a thread, can be killed: a lost
  shard is killed if it still runs, respawned, and its registry
  replayed before anything else crosses the new pipe;
* **fault seams** — ``shard.spawn`` trips in this process right before
  each spawn (a ``raise``/``die`` rule fails the attempt; the router
  retries once, then surfaces :class:`~repro.errors.ShardError`);
  ``shard.dispatch`` trips inside the shard (see
  :mod:`repro.service.shard`).
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading
import time as _time
from typing import Callable, Dict, Optional

import numpy as np

from repro import faults
from repro.errors import InjectedFaultError, ShardError
from repro.faults.plan import WorkerDeathError
from repro.service.batcher import PendingBatch
from repro.service.pool import Supervisor, Worker
from repro.service.shard import _shard_main

__all__ = ["SHARD_WINDOW", "ShardRouter"]

#: Batches in flight per shard at once: sent and not yet answered.  The
#: dispatcher waits while a shard holds this many.
SHARD_WINDOW = 4

_PICKLE_PROTOCOL = 4


class _ShardHandle(Worker):
    """Parent-side state of one shard (guarded by its ``cv``)."""

    def __init__(self, index: int) -> None:
        super().__init__(index)
        self.send_lock = threading.Lock()
        self.proc: Optional[multiprocessing.process.BaseProcess] = None
        self.conn = None
        self.pong: Optional[dict] = None
        self.counters = {
            "dispatches": 0, "jobs": 0, "slots": 0,
            "respawns": 0, "kills": 0, "requeues": 0,
            "ipc_tx_bytes": 0, "ipc_rx_bytes": 0,
        }


class ShardRouter(Supervisor):
    """The service's batches, pulled by supervised shard processes."""

    noun = "shard process"
    #: A spawned shard that has not reported ready within this many
    #: seconds is declared wedged, killed and respawned.
    spawn_timeout_s = 60.0

    def __init__(
        self,
        num_shards: int,
        combine: Callable,
        on_dispatch: Callable,
        on_reply: Callable,
        on_batch_lost: Callable,
        hang_timeout_s: float = 30.0,
        tick_s: float = 0.05,
        on_tick: Optional[Callable[[], None]] = None,
        on_free: Optional[Callable[[], None]] = None,
        name: str = "repro-router",
    ) -> None:
        if num_shards < 1:
            raise ShardError("need at least one shard")
        super().__init__([_ShardHandle(index) for index in range(num_shards)],
                         on_batch_lost, hang_timeout_s, tick_s, on_tick,
                         name=name, on_free=on_free)
        self._combine = combine
        self._on_dispatch = on_dispatch
        self._on_reply = on_reply
        self.window = SHARD_WINDOW
        self._name = name
        self._ctx = multiprocessing.get_context("spawn")
        self.shard_errors = 0
        #: Registry replayed into respawned shards:
        #: circuit_key -> (compiled, plans); compat_key -> group tuple.
        self._circuits: Dict[str, tuple] = {}
        self._groups: Dict[str, tuple] = {}
        self._registry_lock = threading.Lock()

        try:
            for handle in self._workers:
                self._start_shard(handle)
        except ShardError:
            self._stop_takers()
            self._reap(grace_s=0.0)
            raise
        self._ticker.start()

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
            message = ("circuit", key, compiled, plans)
            for handle in self._workers:
                self._send(handle, message)
            self._circuits[key] = (compiled, plans)

    def register_group(self, compat_key: str, circuit_key: str, config,
                       kernel_table, variation) -> None:
        """Record and broadcast one compatibility group (idempotent).

        Submitting threads register their jobs' groups concurrently, so
        a group's first jobs can race: the group is recorded only once
        its message is on every shard's pipe, and the registry lock
        holds a racing second caller until then — no batch of the group
        can reach a shard ahead of it.
        """
        if compat_key in self._groups:
            return
        with self._registry_lock:
            if compat_key in self._groups:
                return
            group = (circuit_key, config, kernel_table, variation)
            for handle in self._workers:
                self._send(handle, ("group", compat_key) + group)
            self._groups[compat_key] = group

    def _replay_registry(self, handle: _ShardHandle) -> None:
        """Replay every registration into a fresh shard (registry lock
        held, so a concurrent registration lands after the replay)."""
        for key, (compiled, plans) in self._circuits.items():
            self._send(handle, ("circuit", key, compiled, plans))
        for compat_key, group in self._groups.items():
            self._send(handle, ("group", compat_key) + group)

    # -- the process kind -----------------------------------------------------

    def _alive(self, handle: _ShardHandle) -> bool:
        return handle.proc is not None and handle.proc.is_alive()

    def _respawn(self, handle: _ShardHandle, hung: bool,
                 requeued: int) -> None:
        with handle.cv:
            handle.counters["respawns"] += 1
            handle.counters["kills"] += hung
            handle.counters["requeues"] += requeued
        self._kill(handle)
        try:
            self._start_shard(handle)
        except ShardError as error:
            # The other shards take its work; once none is left, fail it.
            if all(worker.broken for worker in self._workers):
                self._fail_queued(
                    ShardError(f"every shard is broken: {error}"))

    def _start_shard(self, handle: _ShardHandle) -> None:
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

    def _spawn_process(self, handle: _ShardHandle) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        generation = handle.generation
        process = self._ctx.Process(
            target=_shard_main,
            args=(handle.index, child_conn),
            name=f"{self._name}-shard-{handle.index}.{generation}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        # The registry goes first: the shard's ``ready`` is read only
        # after it, so no batch can overtake a registration.  The new
        # pipe becomes visible to registrations together with the
        # replay, so none lands ahead of the circuit it names.
        with self._registry_lock:
            with handle.cv:
                handle.proc, handle.conn = process, parent_conn
                handle.spawned_at = _time.monotonic()
                handle.ready_at = None
            self._replay_registry(handle)
        threading.Thread(
            target=self._receive_loop,
            args=(handle, generation, parent_conn),
            name=f"{self._name}-recv-{handle.index}.{generation}",
            daemon=True).start()
        dispatcher = threading.Thread(
            target=self._dispatch_loop, args=(handle, generation),
            name=f"{self._name}-dispatch-{handle.index}.{generation}",
            daemon=True)
        self._takers[handle.index] = dispatcher
        dispatcher.start()

    def _kill(self, handle: _ShardHandle, grace_s: float = 0.0) -> None:
        process = handle.proc
        if process is None:
            return
        process.join(timeout=grace_s)
        if process.is_alive():
            process.kill()
            process.join(timeout=5.0)

    def _send(self, handle: _ShardHandle, message: tuple,
              generation: Optional[int] = None) -> bool:
        """Write one message; False when the pipe is gone or (with
        ``generation``) the shard it was meant for was replaced."""
        payload = pickle.dumps(message, protocol=_PICKLE_PROTOCOL)
        with handle.send_lock:
            with handle.cv:
                if handle.conn is None or (
                        generation is not None
                        and generation != handle.generation):
                    return False
                conn, process = handle.conn, handle.proc
                # Counted before the write: the shard's reply can settle
                # the batch's jobs before this thread runs again.
                handle.counters["ipc_tx_bytes"] += len(payload)
            try:
                conn.send_bytes(payload)
            except (OSError, ValueError):
                # A broken pipe loses the shard: the tick finds it dead
                # and recovers whatever it held.
                process.kill()
                return False
        return True

    # -- dispatcher (one thread per shard process generation) ---------------

    def _dispatching(self, handle: _ShardHandle, batch: PendingBatch) -> list:
        return self._on_dispatch(batch, handle.index)

    def _dispatch_loop(self, handle: _ShardHandle, generation: int) -> None:
        while True:
            taken = self._next(handle, generation)
            if taken is None:
                return
            batch_id, batch, jobs = taken
            if not jobs:
                # Every job settled while queued: nothing to send.
                if self._release(handle, generation, batch_id) is not None:
                    self._batch_done()
                continue
            try:
                self._send_batch(handle, generation, batch_id, batch, jobs)
            except Exception as error:  # noqa: BLE001 - fail batch, not thread
                if self._release(handle, generation, batch_id) is not None:
                    self._lost(batch, error)

    def _send_batch(self, handle: _ShardHandle, generation: int,
                    batch_id: int, batch: PendingBatch, jobs: list) -> None:
        pairs, plan, global_slots = self._combine(jobs)
        with handle.cv:
            handle.counters["dispatches"] += 1
            handle.counters["jobs"] += len(jobs)
            handle.counters["slots"] += plan.num_slots
        self._send(handle, ("batch", {
            "batch_id": batch_id,
            "compat_key": batch.compat_key,
            "v1": np.stack([pair.v1 for pair in pairs]),
            "v2": np.stack([pair.v2 for pair in pairs]),
            "pattern_indices": plan.pattern_indices,
            "voltages": plan.voltages,
            "global_slots": global_slots,
        }), generation)

    # -- receiver (one thread per shard process generation) -------------------

    def _receive_loop(self, handle: _ShardHandle, generation: int,
                      conn) -> None:
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
                handle.proc.kill()
                return
            kind = message[0]
            if kind == "ready":
                self._ready(handle, generation)
            elif kind == "pong":
                with handle.cv:
                    handle.pong = message[1]
                    handle.cv.notify_all()
            elif message[1] is None:
                # An error the shard could not tie to a batch.
                with self._lock:
                    self.shard_errors += 1
            else:
                self._reply(handle, generation, message)

    def _reply(self, handle: _ShardHandle, generation: int,
               message: tuple) -> None:
        """A batch's ``done`` or ``error`` reply: hand it to the service."""
        entry = self._release(handle, generation, message[1])
        if entry is None:
            return
        batch, started, jobs = entry
        try:
            self._on_reply(batch, jobs, message, started)
        except Exception as error:  # noqa: BLE001 - demux must not kill recv
            self._lost(batch, error)
        else:
            self._batch_done()

    # -- observability --------------------------------------------------------

    def ping(self, index: int, timeout_s: float = 10.0) -> Optional[dict]:
        """Round-trip health probe; shard info dict, or None on timeout."""
        handle = self._workers[index]
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

    def shard_pid(self, index: int) -> Optional[int]:
        process = self._workers[index].proc
        return process.pid if process is not None else None

    def stats(self) -> dict:
        shards: Dict[str, dict] = {}
        totals = {"ipc_tx_bytes": 0, "ipc_rx_bytes": 0}
        for handle in self._workers:
            with handle.cv:
                entry = dict(handle.counters)
                entry["inflight"] = len(handle.inflight)
                entry["alive"] = self._alive(handle)
                entry["pid"] = (handle.proc.pid
                                if handle.proc is not None else None)
            for key in totals:
                totals[key] += entry[key]
            shards[str(handle.index)] = entry
        stats = super().stats()
        with self._lock:
            stats["shard_errors"] = self.shard_errors
        return {**stats, "shards": shards, **totals}

    # -- shutdown -------------------------------------------------------------

    def _shutdown(self) -> None:
        for handle in self._workers:
            self._send(handle, ("close",))
        self._reap(grace_s=5.0)

    def _reap(self, grace_s: float) -> None:
        """Stop every shard process (after ``grace_s`` to exit) and
        close its pipe."""
        for handle in self._workers:
            self._kill(handle, grace_s)
            with handle.send_lock:
                if handle.conn is not None:
                    handle.conn.close()
                    handle.conn = None
