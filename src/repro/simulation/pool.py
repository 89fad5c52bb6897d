"""Process-wide engine pool: one :class:`GpuWaveSim` per (circuit, config).

The AVFS control plane re-simulates the *same* circuit many times — a
design-space sweep is dozens of slot planes, a closed loop dozens of
iterations, and both often interleave (characterize a table, then close
the loop on it).  Constructing a fresh engine per call site re-compiles
nothing (the level-plan cache in :mod:`repro.simulation.compiled` is
already fingerprint-keyed process-wide) but it does re-resolve plans,
re-grow waveform arenas and throw away the per-engine scratch that makes
steady-state iterations cheap.

:func:`pooled_engine` hands every caller with the same compiled circuit
and the same :class:`SimulationConfig` the *same* engine instance, so

* the engine's resolved level plans (``_plans``) and pooled arenas stay
  warm across explorer sweeps and loop iterations, and
* plan-cache hits become observable: each pool hit is one avoided
  ``CompiledCircuit.plans()`` resolution, surfaced through
  :func:`engine_pool_stats` and — counted by a :class:`PlanCacheMeter`
  together with the level-plan cache's own hits — the
  ``plan_cache_hits`` field of :class:`repro.runtime.report.RunReport`.

Engines are keyed by the compiled circuit's content fingerprint — two
independently parsed copies of one netlist share an engine.  The pool is
bounded (LRU, :data:`POOL_CAPACITY`) and :func:`clear_engine_pool`
drops it for tests.  Computing that key needs the compiled form, so the
compiled circuit of each live ``(circuit, library)`` pair is memoized:
a fresh runner or explorer on an already-pooled circuit pays a lookup,
not a compile.  The memo (:func:`pooled_compile`) only knows what has
been through :func:`pooled_engine` or a service's
``register_circuit``: a circuit the caller compiled itself but has not
yet *pooled* is compiled again by the first explorer or runner that
asks without passing ``compiled=`` — one more
:func:`~repro.simulation.compiled.compile_circuit`, not a lookup.

Thread-safety: the pool dict is lock-guarded; the engines themselves
have the same single-caller contract as any directly constructed
:class:`GpuWaveSim` (the service layer keeps per-worker engines for
exactly that reason, and does not use this pool).
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, Optional, Tuple

from repro.simulation.base import SimulationConfig
from repro.simulation.compiled import (CompiledCircuit, compile_circuit,
                                       level_plan_cache_stats)
from repro.simulation.gpu import GpuWaveSim
from repro.store import LruCache

__all__ = [
    "POOL_CAPACITY",
    "PlanCacheMeter",
    "clear_engine_pool",
    "engine_pool_stats",
    "pooled_compile",
    "pooled_engine",
]

#: Engines retained before the least-recently-used one is dropped.
POOL_CAPACITY = 8

_pool: "LruCache[tuple, GpuWaveSim]" = LruCache(POOL_CAPACITY)
_lock = threading.Lock()  # guards _compiled
#: Compiled form per ``(circuit, library)`` object pair and their sizes
#: (both only ever grow, so a size change means a different netlist).
#: Values are weak: an entry lives exactly as long as some engine or
#: caller holds the compiled circuit — which itself keeps the pair
#: alive, so the ``id`` keys cannot be recycled under a live entry.
_compiled: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()


def pooled_compile(circuit, library,
                   compiled: Optional[CompiledCircuit] = None
                   ) -> CompiledCircuit:
    """The memoized compiled form of ``(circuit, library)`` — compiled
    on first use, or ``compiled`` recorded as it."""
    key = (id(circuit), id(library), len(circuit.gates),
           len(circuit.inputs), len(circuit.outputs), len(library))
    with _lock:
        if compiled is None:
            compiled = _compiled.get(key)
        else:
            _compiled[key] = compiled
    if compiled is None:
        compiled = compile_circuit(circuit, library)
        with _lock:
            _compiled[key] = compiled
    return compiled


def pooled_engine(circuit, library, config: Optional[SimulationConfig] = None,
                  compiled: Optional[CompiledCircuit] = None) -> GpuWaveSim:
    """The shared engine for ``(circuit, config)``; built on first use.

    ``config`` participates in the key verbatim (it is a frozen
    dataclass): a ``record_all_nets=True`` explorer and a bare simulator
    get different engines, two identically configured callers share one.
    """
    from repro.runtime.fingerprint import circuit_fingerprint

    config = config or SimulationConfig()
    compiled = pooled_compile(circuit, library, compiled)
    key = (circuit_fingerprint(compiled), config)
    engine = _pool.get(key)
    if engine is None:
        # Construction outside the pool's lock: compiling plans can be
        # expensive and must not serialize unrelated circuits.  A racing
        # duplicate is harmless — last one in wins the slot, both are
        # correct engines.
        engine = GpuWaveSim(circuit, library, config=config,
                            compiled=compiled)
        _pool.put(key, engine)
    return engine


def engine_pool_stats() -> Dict[str, int]:
    """Hit/miss/entry counters of the process-wide engine pool."""
    stats = _pool.stats()
    return {key: stats[key] for key in ("hits", "misses", "entries")}


def clear_engine_pool() -> None:
    """Drop every pooled engine and reset the counters (tests)."""
    _pool.reset()
    with _lock:
        _compiled.clear()


class PlanCacheMeter:
    """Plan resolutions avoided (engine-pool and level-plan cache hits)
    and paid (plan cache misses) inside ``with meter:`` — an explorer's
    or loop's pooled-engine lookup and its engine runs — banked until
    :meth:`take`.  The counters are process-wide: a stretch counts
    whatever else resolved plans meanwhile."""

    def __init__(self) -> None:
        self._banked = self._start = (0, 0)

    @staticmethod
    def _counts() -> Tuple[int, int]:
        plans = level_plan_cache_stats()
        return plans["hits"] + engine_pool_stats()["hits"], plans["misses"]

    def __enter__(self) -> "PlanCacheMeter":
        self._start = self._counts()
        return self

    def __exit__(self, *exc) -> None:
        self._banked = tuple(banked + now - start for banked, now, start
                             in zip(self._banked, self._counts(),
                                    self._start))

    def take(self) -> Tuple[int, int]:
        """``(hits, misses)`` banked since the last take; resets them."""
        banked, self._banked = self._banked, (0, 0)
        return banked
