"""Shard worker process: one batch in over the pipe, one plane out.

One shard is one spawned process owning its own engines (and therefore
its own waveform-arena pool, plan cache and compute-backend state).  The
parent router (:mod:`repro.service.router`) owns how a batch crosses
the process boundary; this module is the command loop that serves it.
Everything travels over the one duplex control pipe, pickled:

* **batch** — ``("batch", {batch_id, compat_key, v1, v2,
  pattern_indices, voltages, global_slots})``: the batch's pattern
  pairs as two ``(P, W)`` uint8 stacks plus its slot plane.  The shard
  builds :class:`~repro.simulation.base.PatternPair` views over the
  rows and runs :meth:`~repro.simulation.gpu.GpuWaveSim.run` on them;
* **done** — ``("done", batch_id, {initial, counts, times, engine,
  stats})``: the result :class:`~repro.waveform.plane.WaveformPlane` in
  its packed form (:meth:`~repro.waveform.plane.WaveformPlane.packed`),
  the engine label and the engine's
  :class:`~repro.simulation.gpu.EngineStats` for the batch, whole.

A shard keeps nothing between batches but its registry and engines, so
a sharded batch does exactly the engine work of an in-process one with
the delta path off.  The registry is *replayable*: the parent records
every ``circuit`` and ``group`` registration and replays them into a
respawned shard after a death, so recovery needs no handshake beyond
the normal command stream.  Level plans travel with the circuit
registration (the parent pickles its already-built
:class:`~repro.simulation.compiled.CircuitPlans`) and seed the shard's
plan cache at registration time — the first batch a fresh shard
executes hits a warm cache.

Fault seams: ``shard.dispatch`` trips in this process right before a
batch executes (``die`` exits the process without a reply, which is
exactly what a native crash looks like to the router); ``shard.spawn``
trips in the *parent* (see :mod:`repro.service.router`).  The fault
plan itself arrives through the inherited ``REPRO_FAULTS`` environment:
a plan activated in the parent stays in the parent.
"""

from __future__ import annotations

import os
import pickle
from typing import Dict

from repro import faults
from repro.faults.plan import WorkerDeathError
from repro.simulation.base import PatternPair, SimulationConfig
from repro.simulation.compiled import CompiledCircuit, seed_level_plan_cache
from repro.simulation.grid import SlotPlan

#: Exit codes distinguishing deliberate shard exits from interpreter
#: failures in the parent's post-mortem (purely diagnostic).
EXIT_DIED = 70       # injected WorkerDeathError (shard.dispatch:die)
EXIT_PROTOCOL = 71   # unusable control stream


class _ShardWorker:
    """The state and command loop living inside one shard process."""

    def __init__(self, shard_index: int, conn) -> None:
        self.shard_index = shard_index
        self.conn = conn
        self.circuits: Dict[str, CompiledCircuit] = {}
        #: compat_key -> (circuit_key, config, kernel_table, variation)
        self.groups: Dict[str, tuple] = {}
        self.engines: Dict[tuple, object] = {}

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
                # serve.
                os._exit(EXIT_PROTOCOL)
            if not self.dispatch(message):
                return

    def dispatch(self, message: tuple) -> bool:
        kind = message[0]
        if kind == "close":
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
                       variation) -> None:
        self.groups[compat_key] = (circuit_key, config, kernel_table,
                                   variation)

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

    def execute(self, batch: dict) -> None:
        faults.trip("shard.dispatch")
        group = self.groups.get(batch["compat_key"])
        if group is None:
            raise KeyError(
                f"unregistered compatibility group {batch['compat_key'][:12]}")
        circuit_key, config, kernel_table, variation = group
        v1, v2 = batch["v1"], batch["v2"]
        pairs = [PatternPair(v1[row], v2[row]) for row in range(len(v1))]
        plan = SlotPlan(batch["pattern_indices"], batch["voltages"])
        engine = self.engine_for(circuit_key, config)
        result = engine.run(pairs, plan=plan, kernel_table=kernel_table,
                            variation=variation,
                            global_slots=batch["global_slots"])
        initial, counts, times = result.plane.packed()
        self.send(("done", batch["batch_id"], {
            "initial": initial,
            "counts": counts,
            "times": times,
            "engine": result.engine,
            "stats": engine.last_stats,
        }))


def _shard_main(shard_index: int, conn) -> None:
    """Spawn target: serve the control pipe until ``close`` or death."""
    _ShardWorker(shard_index, conn).run()
