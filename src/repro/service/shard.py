"""Shard worker process: engine execution behind a shared-memory plane.

One shard is one spawned process owning its own engines (and therefore
its own waveform-arena pool, plan cache and compute-backend state).  The
parent router talks to it over a control pipe that only ever carries
small pickled descriptors; the actual payloads move through shared
memory (:mod:`repro.service.shm`):

* **stimuli in** — the parent packs a batch's pattern pairs, slot plane
  and per-job ``global_slots`` into a parent-owned input plane; the
  shard builds zero-copy views over that segment and hands them
  straight to :meth:`~repro.simulation.gpu.GpuWaveSim.run`;
* **waveforms out** — the shard writes the result
  :class:`~repro.waveform.plane.WaveformPlane` in its packed form
  (toggle counts + initial values + the dense net-major toggle-time
  payload) into a shard-owned result segment, grows the segment by
  generation when a batch overflows it, and reports only the layout
  over the pipe.  The parent maps the segment and rebuilds the plane.

Shard state is *replayable*: the parent records every ``circuit`` and
``group`` registration and replays them into a respawned shard after a
death, so recovery needs no handshake beyond the normal command stream.
Level plans travel with the circuit registration (the parent pickles
its already-built :class:`~repro.simulation.compiled.CircuitPlans`) and
seed the shard's plan cache at registration time — the first batch a
fresh shard executes hits a warm cache.

Fault seams: ``shard.dispatch`` trips in this process right before a
batch executes (``die`` exits the process without a reply, which is
exactly what a native crash looks like to the router); ``shard.spawn``
trips in the *parent* (see :mod:`repro.service.router`).  The fault
plan itself arrives through the inherited ``REPRO_FAULTS`` environment
or through ``SimulationConfig.faults`` riding the group registration.
"""

from __future__ import annotations

import os
import pickle
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import faults
from repro.faults.plan import WorkerDeathError
from repro.service.shm import SharedArena, segment_name
from repro.simulation.base import PatternPair, SimulationConfig
from repro.simulation.compiled import CompiledCircuit, seed_level_plan_cache
from repro.simulation.delta import select_delta
from repro.simulation.grid import SlotPlan
from repro.waveform.plane import WaveformPlane

__all__ = [
    "input_layout",
    "pack_batch_inputs",
    "read_result_plane",
    "result_layout",
]

#: Exit codes distinguishing deliberate shard exits from interpreter
#: failures in the parent's post-mortem (purely diagnostic).
EXIT_DIED = 70       # injected WorkerDeathError (shard.dispatch:die)
EXIT_PROTOCOL = 71   # unusable control stream

_ALIGN = 8


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


def input_layout(num_pairs: int, width: int, num_slots: int) -> dict:
    """Byte offsets of one packed input plane (and its total size)."""
    off_v1 = 0
    off_v2 = off_v1 + num_pairs * width
    off_idx = _align(off_v2 + num_pairs * width)
    off_volt = off_idx + num_slots * 8
    off_gslots = off_volt + num_slots * 8
    return {
        "num_pairs": num_pairs,
        "width": width,
        "num_slots": num_slots,
        "off_v1": off_v1,
        "off_v2": off_v2,
        "off_idx": off_idx,
        "off_volt": off_volt,
        "off_gslots": off_gslots,
        "nbytes": off_gslots + num_slots * 8,
    }


def pack_batch_inputs(arena: SharedArena, pairs: List[PatternPair],
                      plan: SlotPlan, global_slots: np.ndarray,
                      layout: dict) -> None:
    """Write one batch's stimuli into an input plane (parent side)."""
    shape = (layout["num_pairs"], layout["width"])
    v1 = arena.ndarray(shape, np.uint8, layout["off_v1"])
    v2 = arena.ndarray(shape, np.uint8, layout["off_v2"])
    for row, pair in enumerate(pairs):
        v1[row] = pair.v1
        v2[row] = pair.v2
    slots = (layout["num_slots"],)
    arena.ndarray(slots, np.int64, layout["off_idx"])[:] = \
        plan.pattern_indices
    arena.ndarray(slots, np.float64, layout["off_volt"])[:] = plan.voltages
    arena.ndarray(slots, np.int64, layout["off_gslots"])[:] = global_slots


def result_layout(num_nets: int, num_slots: int, total_toggles: int) -> dict:
    """Byte offsets of one packed result plane (and its total size)."""
    off_counts = 0
    off_initials = off_counts + num_nets * num_slots * 8
    off_times = _align(off_initials + num_nets * num_slots)
    return {
        "num_nets": num_nets,
        "num_slots": num_slots,
        "total_toggles": total_toggles,
        "off_counts": off_counts,
        "off_initials": off_initials,
        "off_times": off_times,
        "nbytes": off_times + total_toggles * 8,
    }


def read_result_plane(arena: SharedArena, layout: dict,
                      nets: Sequence[str]) -> WaveformPlane:
    """The result plane behind a mapped result segment (parent side).

    The three arrays are copied out in bulk, decoupling the plane from
    the ring slot, which the shard will overwrite with a later batch.
    """
    shape = (layout["num_nets"], layout["num_slots"])
    return WaveformPlane.from_packed(
        nets,
        arena.ndarray(shape, np.uint8, layout["off_initials"]).copy(),
        arena.ndarray(shape, np.int64, layout["off_counts"]).copy(),
        arena.ndarray((layout["total_toggles"],), np.float64,
                      layout["off_times"]).copy())


def _write_result_plane(arena_for, plane: WaveformPlane) -> dict:
    """Write a plane's packed form into a segment obtained from
    ``arena_for(nbytes)`` (shard side); returns its layout."""
    initial, counts, times = plane.packed()
    layout = result_layout(plane.num_nets, plane.num_slots, times.size)
    arena = arena_for(layout["nbytes"])
    arena.ndarray(counts.shape, np.int64, layout["off_counts"])[:] = counts
    arena.ndarray(initial.shape, np.uint8,
                  layout["off_initials"])[:] = initial
    arena.ndarray(times.shape, np.float64, layout["off_times"])[:] = times
    return layout


class _ResultPlane:
    """One shard-owned result-ring slot, grown by generation."""

    def __init__(self, shard_index: int, slot: int, min_bytes: int) -> None:
        self.shard_index = shard_index
        self.slot = slot
        self.min_bytes = min_bytes
        self.generation = 0
        self.arena: Optional[SharedArena] = None

    def ensure(self, nbytes: int) -> SharedArena:
        """A plane at least ``nbytes`` big; grows by replacing the
        segment under a new (generation-suffixed) name.  The old
        segment is unlinked immediately: the parent only reads a slot
        between dispatch and demux, and a slot being written was — by
        the ring protocol — already demuxed and freed by the parent, so
        nothing maps the old generation except (harmlessly) the
        parent's attachment cache, which drops it on the next ``done``.
        """
        if self.arena is not None and self.arena.size >= nbytes:
            return self.arena
        if self.arena is not None:
            self.arena.close()
            self.arena.unlink()
        self.generation += 1
        size = max(self.min_bytes, _next_size(nbytes))
        name = segment_name(
            os.getpid(),
            f"s{self.shard_index}o{self.slot}g{self.generation}")
        self.arena = SharedArena.create(name, size)
        return self.arena

    def destroy(self) -> None:
        if self.arena is not None:
            self.arena.close()
            self.arena.unlink()
            self.arena = None


def _next_size(nbytes: int) -> int:
    """Round segment sizes up so steady growth settles quickly."""
    size = 4096
    while size < nbytes:
        size *= 2
    return size


class _ShardWorker:
    """The state and command loop living inside one shard process."""

    def __init__(self, shard_index: int, conn, result_ring_slots: int,
                 min_result_bytes: int) -> None:
        self.shard_index = shard_index
        self.conn = conn
        self.circuits: Dict[str, CompiledCircuit] = {}
        #: compat_key -> (circuit_key, config, kernel_table, variation,
        #:                delta_bases, delta_threshold)
        self.groups: Dict[str, tuple] = {}
        #: compat_key -> ring of retained base arenas (shard-local: the
        #: arenas never cross the pipe, and a respawned shard simply
        #: starts cold — full simulation until new bases accumulate).
        self.bases: Dict[str, deque] = {}
        self.engines: Dict[tuple, object] = {}
        self.inputs: Dict[str, SharedArena] = {}
        self.results = [
            _ResultPlane(shard_index, slot, min_result_bytes)
            for slot in range(result_ring_slots)
        ]

    # -- control pipe ---------------------------------------------------------

    def send(self, message: tuple) -> None:
        self.conn.send_bytes(pickle.dumps(message, protocol=4))

    def run(self) -> None:
        self.send(("ready", os.getpid()))
        while True:
            try:
                message = pickle.loads(self.conn.recv_bytes())
            except (EOFError, OSError):
                # Parent went away (crash or hard kill): nothing left to
                # serve.  Segments this process owns are reclaimed by
                # the next service start's orphan sweep.
                os._exit(EXIT_PROTOCOL)
            if not self.dispatch(message):
                return

    def dispatch(self, message: tuple) -> bool:
        kind = message[0]
        if kind == "close":
            self.shutdown()
            return False
        try:
            if kind == "circuit":
                self.register_circuit(*message[1:])
            elif kind == "group":
                self.register_group(*message[1:])
            elif kind == "batch":
                self.execute(message[1])
            elif kind == "ping":
                self.send(("pong", self.info()))
            else:
                self.send(("error", None, "ShardError",
                           f"unknown command {kind!r}"))
        except WorkerDeathError:
            # Simulated shard crash: exit without a reply so the router
            # finds a corpse holding its batch — the real recovery path.
            os._exit(EXIT_DIED)
        except Exception as error:  # noqa: BLE001 - report, keep serving
            batch_id = message[1].get("batch_id") if kind == "batch" else None
            self.send(("error", batch_id, type(error).__name__, str(error)))
        return True

    # -- registry -------------------------------------------------------------

    def register_circuit(self, key: str, compiled: CompiledCircuit,
                         plans) -> None:
        self.circuits[key] = compiled
        if plans is not None:
            seed_level_plan_cache(plans)

    def register_group(self, compat_key: str, circuit_key: str,
                       config: SimulationConfig, kernel_table,
                       variation, delta_bases: int = 0,
                       delta_threshold: float = 0.35) -> None:
        if config.faults:
            faults.ensure(config.faults)
        self.groups[compat_key] = (circuit_key, config, kernel_table,
                                   variation, delta_bases, delta_threshold)

    def info(self) -> dict:
        from repro.simulation.compiled import level_plan_cache_stats
        return {
            "pid": os.getpid(),
            "shard": self.shard_index,
            "circuits": len(self.circuits),
            "groups": len(self.groups),
            "engines": len(self.engines),
            "plan_cache": level_plan_cache_stats(),
        }

    # -- execution ------------------------------------------------------------

    def engine_for(self, circuit_key: str, config: SimulationConfig):
        key = (circuit_key, config)
        engine = self.engines.get(key)
        if engine is None:
            from repro.simulation.gpu import GpuWaveSim
            compiled = self.circuits[circuit_key]
            engine = GpuWaveSim(compiled.circuit, compiled.library,
                                config=config, compiled=compiled)
            self.engines[key] = engine
        return engine

    def attach_input(self, name: str) -> SharedArena:
        arena = self.inputs.get(name)
        if arena is None:
            arena = self.inputs[name] = SharedArena.attach(name)
        return arena

    def execute(self, desc: dict) -> None:
        faults.trip("shard.dispatch")
        for stale in desc.get("drop_segments", ()):
            arena = self.inputs.pop(stale, None)
            if arena is not None:
                arena.close()
        group = self.groups.get(desc["compat_key"])
        if group is None:
            raise KeyError(
                f"unregistered compatibility group {desc['compat_key'][:12]}")
        (circuit_key, config, kernel_table, variation, delta_bases,
         delta_threshold) = group
        layout = desc["layout"]
        arena = self.attach_input(desc["in_name"])
        shape = (layout["num_pairs"], layout["width"])
        v1 = arena.ndarray(shape, np.uint8, layout["off_v1"])
        v2 = arena.ndarray(shape, np.uint8, layout["off_v2"])
        pairs = [PatternPair(v1[row], v2[row])
                 for row in range(layout["num_pairs"])]
        slots = (layout["num_slots"],)
        plan = SlotPlan(arena.ndarray(slots, np.int64, layout["off_idx"]),
                        arena.ndarray(slots, np.float64, layout["off_volt"]))
        global_slots = arena.ndarray(slots, np.int64, layout["off_gslots"])

        engine = self.engine_for(circuit_key, config)
        kwargs = {}
        if delta_bases > 0:
            # Shard-local delta: diff against this shard's retained
            # base ring.  Selection compares the batch's own stimulus
            # views; the captured arena owns private memory (the base
            # ring must survive the input plane's slot being recycled).
            ring = self.bases.get(desc["compat_key"])
            if ring:
                selected = select_delta(
                    list(ring)[::-1], v1, v2, plan.pattern_indices,
                    plan.voltages, global_slots, variation,
                    delta_threshold)
                if selected is not None:
                    kwargs["delta"] = selected[0]
            kwargs["capture_base"] = True
        result = engine.run(pairs, plan=plan, kernel_table=kernel_table,
                            variation=variation, global_slots=global_slots,
                            **kwargs)
        if result.base_arena is not None:
            ring = self.bases.get(desc["compat_key"])
            if ring is None or ring.maxlen != delta_bases:
                ring = self.bases[desc["compat_key"]] = deque(
                    maxlen=delta_bases)
            ring.append(result.base_arena)
        stats = engine.last_stats
        plane = self.results[desc["out_slot"]]
        out_layout = _write_result_plane(plane.ensure, result.plane)
        self.send(("done", desc["batch_id"], {
            "out_name": plane.arena.name,
            "layout": out_layout,
            "engine": result.engine,
            "backend": stats.backend,
            "gate_evaluations": int(stats.gate_evaluations),
            "lanes_skipped": int(stats.lanes_skipped),
            "lanes_spliced": int(stats.lanes_spliced),
            "capacity_used": int(stats.capacity_used),
            "retries": int(stats.retries),
            "demotions": list(stats.demotions),
            "phase_seconds": stats.phase_seconds(),
        }))

    # -- shutdown -------------------------------------------------------------

    def shutdown(self) -> None:
        for arena in self.inputs.values():
            arena.close()
        for plane in self.results:
            plane.destroy()


def _shard_main(shard_index: int, conn, result_ring_slots: int,
                min_result_bytes: int) -> None:
    """Spawn target: serve the control pipe until ``close`` or death."""
    worker = _ShardWorker(shard_index, conn, result_ring_slots,
                          min_result_bytes)
    worker.run()
