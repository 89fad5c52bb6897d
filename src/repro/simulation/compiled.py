"""Netlist compilation for the simulation engines (paper Fig. 2, step 1).

The combinational network is extracted into flat integer arrays — the
form in which the paper stores the netlist in GPU global memory:

* nets are numbered (primary inputs first, then gate outputs),
* per gate: cell type id, input net ids (padded), output net id, load
  capacitance, nominal pin-to-pin delays and a truth table,
* gates are bucketed into topological levels; each level's
  :class:`LevelPlan` sorts them into same-arity runs (the SIMD thread
  groups of Sec. IV-B: all threads of a group execute the same
  gate-function kernel).
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cells.library import CellLibrary
from repro.netlist.circuit import Circuit
from repro.netlist.sdf import SdfAnnotation, nominal_delay_array
from repro.store import LruCache

__all__ = [
    "CompiledCircuit",
    "CircuitPlans",
    "ConcatPlans",
    "LevelPlan",
    "clear_level_plan_cache",
    "compile_circuit",
    "level_plan_cache_stats",
    "seed_level_plan_cache",
]


def _truth_table(cell) -> int:
    """Truth table as an integer: bit ``idx`` = output for input index
    ``idx`` where input pin ``i`` contributes bit ``i`` of ``idx``."""
    arity = cell.num_inputs
    table = 0
    for idx in range(1 << arity):
        bits = [(idx >> i) & 1 for i in range(arity)]
        if int(cell.evaluate(bits)) & 1:
            table |= 1 << idx
    return table


def _pad_truth_table(table: int, arity: int, padded_arity: int) -> int:
    """Extend a truth table with don't-care upper pins.

    The padded table returns the original output for any setting of the
    extra pins, so a gate can run in a wider SIMD group with dummy
    (constant) inputs wired to the spare pins.
    """
    padded = 0
    for idx in range(1 << padded_arity):
        if (table >> (idx & ((1 << arity) - 1))) & 1:
            padded |= 1 << idx
    return padded


@dataclass
class LevelPlan:
    """Compacted per-level execution plan.

    All arrays are gathered once at plan-build time and list the level's
    gates sorted by (arity, gate index), so same-arity gates form
    contiguous runs — a backend's ``run_level`` walks every arity group
    in one native call instead of one Python dispatch per group.  The
    per-lane backends use the *unpadded* ``tables`` and loop only each
    gate's real pins; the vectorized numpy backend uses the don't-care
    ``padded_tables`` and dispatches the whole level as one
    ``max_pins``-wide group.  With the spare-pin inputs wired to the
    constant-0 dummy net the two are bit-equivalent.
    """

    level: int
    gate_indices: np.ndarray   # (g,) original gate ids, arity-sorted
    arities: np.ndarray        # (g,) input pin counts
    in_ids: np.ndarray         # (g, max_pins) net ids, spare pins -> dummy
    out_ids: np.ndarray        # (g,) output net ids
    tables: np.ndarray         # (g,) int64 truth tables (unpadded)
    padded_tables: np.ndarray  # (g,) int64 truth tables (don't-care padded)
    type_ids: np.ndarray       # (g,) cell type ids
    loads: np.ndarray          # (g,) output load capacitances (farads)
    nominal: np.ndarray        # (g, max_pins, 2) nominal delays (seconds)
    group_offsets: np.ndarray  # (n_groups + 1,) row bounds of arity runs
    group_arity: np.ndarray    # (n_groups,) arity of each run

    @property
    def num_gates(self) -> int:
        return int(self.gate_indices.size)

    @property
    def num_groups(self) -> int:
        return int(self.group_arity.size)


@dataclass
class ConcatPlans:
    """All level plans of a circuit concatenated row-wise.

    The whole-batch native dispatch (``ComputeBackend.run_levels``)
    walks every level in one call; ``level_offsets`` bounds each level's
    rows in the concatenated arrays.  Row order inside a level matches
    the per-level plan (arity-sorted), so per-level slices of these
    arrays are exactly the :class:`LevelPlan` arrays.
    """

    level_offsets: np.ndarray  # (L + 1,) row bounds per level
    gate_indices: np.ndarray   # (G,) original gate ids
    arities: np.ndarray        # (G,)
    in_ids: np.ndarray         # (G, max_pins)
    out_ids: np.ndarray        # (G,)
    tables: np.ndarray         # (G,) unpadded truth tables
    type_ids: np.ndarray       # (G,)
    nominal: np.ndarray        # (G, max_pins, 2)

    @property
    def num_levels(self) -> int:
        return int(self.level_offsets.size - 1)


def _build_level_plan(compiled: "CompiledCircuit", level: int,
                      bucket: np.ndarray) -> LevelPlan:
    arities = compiled.gate_arity[bucket]
    order = np.argsort(arities, kind="stable")       # keeps gate-id order
    gate_indices = np.ascontiguousarray(bucket[order])
    arities = np.ascontiguousarray(arities[order])
    group_arity, counts = np.unique(arities, return_counts=True)
    offsets = np.zeros(group_arity.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return LevelPlan(
        level=level,
        gate_indices=gate_indices,
        arities=arities,
        in_ids=np.ascontiguousarray(compiled.padded_inputs[gate_indices]),
        out_ids=np.ascontiguousarray(compiled.gate_output[gate_indices]),
        tables=np.ascontiguousarray(compiled.truth_tables_i64[gate_indices]),
        padded_tables=np.ascontiguousarray(
            compiled.padded_truth_tables_i64[gate_indices]),
        type_ids=np.ascontiguousarray(compiled.gate_type_ids[gate_indices]),
        loads=np.ascontiguousarray(compiled.gate_loads[gate_indices]),
        nominal=np.ascontiguousarray(compiled.nominal_delays[gate_indices]),
        group_offsets=offsets,
        group_arity=np.ascontiguousarray(group_arity, dtype=np.int64),
    )


class CircuitPlans:
    """All level plans of one circuit plus predictor-normalization memos.

    Instances are shared through a fingerprint-keyed process cache (see
    :meth:`CompiledCircuit.plans`), so two independently compiled copies
    of the same circuit — e.g. two service jobs or campaign retries with
    the same ``circuit_fingerprint`` — reuse one set of plans *and* one
    set of cached normalizations (``φ_V`` per distinct-voltage set,
    ``φ_C`` per gate) instead of recomputing them per batch/chunk.
    """

    #: Distinct-voltage normalization memos kept per parameter space.
    _VOLTAGE_MEMO_LIMIT = 16

    def __init__(self, compiled: "CompiledCircuit",
                 fingerprint: str = "") -> None:
        self.fingerprint = fingerprint
        self.max_pins = compiled.max_pins
        self.levels: List[LevelPlan] = [
            _build_level_plan(compiled, index, bucket)
            for index, bucket in enumerate(compiled.levels)
        ]
        self._lock = threading.Lock()
        self._norm_loads: Dict[object, Tuple[np.ndarray, ...]] = {}
        self._norm_volts = LruCache(self._VOLTAGE_MEMO_LIMIT)
        self._concat: Optional[ConcatPlans] = None
        self._concat_loads: Dict[object, np.ndarray] = {}

    def __getstate__(self) -> dict:
        """Pickle the pure-array payload (plan warming across processes).

        The lock cannot travel, and the normalization memos are keyed
        by live parameter-space objects — a warmed shard rebuilds those
        on first use.  ``levels`` and the concatenated form are the
        expensive parts and they are plain numpy dataclasses.
        """
        return {
            "fingerprint": self.fingerprint,
            "max_pins": self.max_pins,
            "levels": self.levels,
            "concat": self._concat,
        }

    def __setstate__(self, state: dict) -> None:
        self.fingerprint = state["fingerprint"]
        self.max_pins = state["max_pins"]
        self.levels = state["levels"]
        self._lock = threading.Lock()
        self._norm_loads = {}
        self._norm_volts = LruCache(self._VOLTAGE_MEMO_LIMIT)
        self._concat = state.get("concat")
        self._concat_loads = {}

    def concat(self) -> ConcatPlans:
        """The levels concatenated row-wise, built once per circuit."""
        with self._lock:
            cached = self._concat
        if cached is not None:
            return cached
        offsets = np.zeros(len(self.levels) + 1, dtype=np.int64)
        np.cumsum([plan.num_gates for plan in self.levels],
                  out=offsets[1:])
        def _cat(field, empty_shape, dtype):
            arrays = [getattr(plan, field) for plan in self.levels]
            if not arrays:
                return np.zeros(empty_shape, dtype=dtype)
            return np.ascontiguousarray(np.concatenate(arrays))
        built = ConcatPlans(
            level_offsets=offsets,
            gate_indices=_cat("gate_indices", (0,), np.int64),
            arities=_cat("arities", (0,), np.int64),
            in_ids=_cat("in_ids", (0, self.max_pins), np.int64),
            out_ids=_cat("out_ids", (0,), np.int64),
            tables=_cat("tables", (0,), np.int64),
            type_ids=_cat("type_ids", (0,), np.int64),
            nominal=_cat("nominal", (0, self.max_pins, 2), np.float64),
        )
        with self._lock:
            if self._concat is None:
                self._concat = built
            return self._concat

    def concat_normalized_loads(self, space) -> np.ndarray:
        """``φ_C`` for every gate in concatenated plan-row order."""
        with self._lock:
            cached = self._concat_loads.get(space)
        if cached is not None:
            return cached
        per_level = self.normalized_loads(space)
        flat = (np.ascontiguousarray(np.concatenate(per_level))
                if per_level else np.zeros(0, dtype=np.float64))
        with self._lock:
            return self._concat_loads.setdefault(space, flat)

    def normalized_loads(self, space) -> Sequence[np.ndarray]:
        """Per-level ``φ_C`` arrays (one ``(g,)`` array per level).

        Computed with numpy's ``log2`` exactly as
        :meth:`DelayKernelTable.delays_for_gates` would, then handed as
        plain data to every backend — the C ``log2`` may differ from
        ``np.log2`` in the last ulp, so normalization never happens in
        native code.
        """
        with self._lock:
            cached = self._norm_loads.get(space)
        if cached is not None:
            return cached
        arrays = tuple(
            np.ascontiguousarray(space.normalize_load(plan.loads),
                                 dtype=np.float64)
            for plan in self.levels
        )
        with self._lock:
            return self._norm_loads.setdefault(space, arrays)

    def level_sources(self, kernel_table, factors: Optional[np.ndarray],
                      delays: Optional[np.ndarray]):
        """Per non-empty level, in order: ``(plan, factors, nc, delays)``
        — the level's share of each whole-circuit delay source, as
        :meth:`ComputeBackend.run_level` takes them.  ``factors`` is
        ``(num_gates, S)`` in circuit gate order, ``delays`` a
        ``(num_gates, P, 2, V)`` table in concatenated plan-row order,
        ``nc`` this level's ``φ_C`` memo for the polynomial
        ``kernel_table``; a source that is ``None`` stays ``None``."""
        nc_levels = (self.normalized_loads(kernel_table.space)
                     if kernel_table is not None else None)
        offsets = self.concat().level_offsets if delays is not None else None
        for index, plan in enumerate(self.levels):
            if plan.num_gates == 0:
                continue
            yield (
                plan,
                factors[plan.gate_indices] if factors is not None else None,
                nc_levels[index] if nc_levels is not None else None,
                (delays[offsets[index]:offsets[index + 1]]
                 if delays is not None else None),
            )

    def normalized_voltages(self, space, voltages: np.ndarray) -> np.ndarray:
        """``φ_V`` of a distinct-voltage set, memoized per (space, set).
        A new set must lie in the space's voltage box: the polynomials
        extrapolate silently past it (a repeated set pays nothing)."""
        key = (space, voltages.tobytes())
        nv = self._norm_volts.get(key)
        if nv is None:
            space.require(voltages)
            nv = np.ascontiguousarray(space.normalize_voltage(voltages),
                                      dtype=np.float64)
            self._norm_volts.put(key, nv)
        return nv


#: Process-wide plan cache keyed by ``circuit_fingerprint`` — the same
#: identity the service layer uses to dedup registered circuits, so
#: re-compiled copies of one circuit share plans.
_PLAN_CACHE: "LruCache[str, CircuitPlans]" = LruCache(8)


def level_plan_cache_stats() -> Dict[str, int]:
    """Hit/miss/entry counters of the fingerprint-keyed plan cache."""
    stats = _PLAN_CACHE.stats()
    return {key: stats[key] for key in ("hits", "misses", "entries")}


def clear_level_plan_cache() -> None:
    """Drop all cached plans and reset the counters (for tests)."""
    _PLAN_CACHE.reset()


def seed_level_plan_cache(plans: "CircuitPlans") -> None:
    """Insert pre-built plans under their own fingerprint key.

    This is how a shard worker process is warmed at spawn: the parent
    pickles the :class:`CircuitPlans` it already built (pure arrays —
    see ``CircuitPlans.__getstate__``) and the shard seeds its process
    cache, so the first batch dispatched to a fresh shard hits the plan
    cache instead of rebuilding every level plan.  A plan already cached
    under the same fingerprint wins (live memos must not be discarded);
    plans without a fingerprint are not cacheable and are ignored.
    """
    if plans.fingerprint:
        _PLAN_CACHE.put_if_absent(plans.fingerprint, plans)


@dataclass
class CompiledCircuit:
    """Flat-array circuit representation shared by the engines."""

    circuit: Circuit
    library: CellLibrary
    net_index: Dict[str, int]
    num_nets: int
    input_net_ids: np.ndarray        # (num_inputs,)
    output_net_ids: np.ndarray       # (num_outputs,)
    gate_type_ids: np.ndarray        # (G,)
    gate_arity: np.ndarray           # (G,)
    gate_inputs: np.ndarray          # (G, max_pins) net ids, -1 padding
    gate_output: np.ndarray          # (G,)
    gate_loads: np.ndarray           # (G,) farads
    nominal_delays: np.ndarray       # (G, max_pins, 2) seconds
    truth_tables: np.ndarray         # (G,) uint32
    padded_truth_tables: np.ndarray  # (G,) uint32, don't-care padded to max_pins
    padded_inputs: np.ndarray        # (G, max_pins) net ids, spare pins -> dummy net
    dummy_net_id: int                # constant-0 net fed to spare pins
    levels: List[np.ndarray]         # gate indices per level
    #: int64 views of the truth tables, in the exact dtype the kernel
    #: backends consume — gathered per gate group without a per-call
    #: ``astype`` reallocation.
    truth_tables_i64: np.ndarray         # (G,) int64
    padded_truth_tables_i64: np.ndarray  # (G,) int64

    @property
    def num_gates(self) -> int:
        return int(self.gate_type_ids.size)

    @property
    def max_pins(self) -> int:
        return int(self.gate_inputs.shape[1])

    def net_id(self, net: str) -> int:
        return self.net_index[net]

    def result_nets(self, record_all_nets: bool) -> Tuple[str, ...]:
        """The nets a result carries, in row order: every net in net-id
        order (``net_index`` insertion order) when recording all nets,
        else the primary outputs.  Engine, shard parent and checkpoint
        reload all derive the order here, so net names never travel
        with a result."""
        return tuple(self.net_index if record_all_nets
                     else self.circuit.outputs)

    def plans(self) -> CircuitPlans:
        """The circuit's level plans, shared across equal fingerprints.

        Each call keys the process-wide cache by
        ``circuit_fingerprint(self)`` (plus a digest of the gate loads)
        and either returns the cached :class:`CircuitPlans` or builds
        and caches them.  Plans are *not* stored on the instance: they
        hold a lock and must not travel through pickle, and an instance
        attribute would go stale on the shallow-copy-and-mutate pattern
        fault injectors use.  Callers cache the returned object.
        """
        from repro.runtime.fingerprint import circuit_fingerprint

        # The key is never cached on the instance: an attribute would
        # survive the shallow ``copy.copy`` + delay-mutation pattern
        # fault injectors use and serve stale plans.
        # ``circuit_fingerprint`` memoizes per object *identity* instead
        # (the copy is a new object and hashes afresh) and covers the
        # nominal delays; the load digest covers custom-``loads``
        # compiles that share delays but not capacitances.
        loads_digest = hashlib.sha256(
            np.ascontiguousarray(self.gate_loads).tobytes()).hexdigest()[:16]
        key = f"{circuit_fingerprint(self)}:{loads_digest}"
        plans = _PLAN_CACHE.get(key)
        if plans is None:
            # A racing build of the same key loses to the first one in:
            # its live memos must not be discarded.
            plans = _PLAN_CACHE.put_if_absent(
                key, CircuitPlans(self, fingerprint=key))
        return plans


def compile_circuit(
    circuit: Circuit,
    library: CellLibrary,
    annotation: Optional[SdfAnnotation] = None,
    loads: Optional[Dict[str, float]] = None,
) -> CompiledCircuit:
    """Compile a validated circuit into flat arrays.

    ``annotation`` supplies the nominal pin-to-pin delays (SDF); when
    omitted it is derived from the default electrical model at the
    nominal voltage.  ``loads`` likewise defaults to the SPEF-equivalent
    computed from the library's pin capacitances.
    """
    circuit.validate(library)
    by_cell = circuit.gates_by_cell(library)      # pin counts match the cells
    wiring = circuit.wiring()
    gate_loads = circuit.gate_loads(library, loads)
    num_gates = circuit.num_gates
    num_inputs = len(circuit.inputs)
    gate_arity = wiring.arity
    max_pins = int(gate_arity.max(initial=1))

    if annotation is None:
        nominal = nominal_delay_array(by_cell, gate_loads)
    else:
        nominal = np.zeros((num_gates, max_pins, 2), dtype=np.float64)
        for index, gate in enumerate(circuit.gates):
            for pin, delays in enumerate(annotation.gate_delays(gate.name)):
                nominal[index, pin] = delays

    # Whatever the cell alone decides is derived once per distinct cell
    # and scattered over its instances.
    gate_type_ids = np.zeros(num_gates, dtype=np.int64)
    truth_tables = np.zeros(num_gates, dtype=np.uint32)
    padded_tables = np.zeros(num_gates, dtype=np.uint32)
    for cell, gates in by_cell:
        table = _truth_table(cell)
        gate_type_ids[gates] = library.type_id(cell.name)
        truth_tables[gates] = table
        padded_tables[gates] = _pad_truth_table(table, cell.num_inputs, max_pins)

    # Gate ``g`` drives net ``num_inputs + g`` (see ``Wiring``; the net
    # index is the circuit's own, shared read-only); a boolean mask
    # assigns in row-major order: gate by gate, pin by pin.
    net_index = wiring.net_index
    gate_output = np.arange(num_inputs, num_inputs + num_gates, dtype=np.int64)
    gate_inputs = np.full((num_gates, max_pins), -1, dtype=np.int64)
    gate_inputs[np.arange(max_pins) < gate_arity[:, None]] = wiring.pin_nets

    # Spare pins of narrow gates point at a reserved constant-0 net so a
    # whole level can run as one uniform SIMD group.
    dummy_net_id = len(net_index)
    padded_inputs = gate_inputs.copy()
    padded_inputs[padded_inputs < 0] = dummy_net_id

    levels = [np.asarray(bucket, dtype=np.int64) for bucket in circuit.levelize()]

    return CompiledCircuit(
        circuit=circuit,
        library=library,
        net_index=net_index,
        num_nets=len(net_index),
        input_net_ids=np.arange(num_inputs, dtype=np.int64),
        output_net_ids=np.asarray([net_index[n] for n in circuit.outputs], dtype=np.int64),
        gate_type_ids=gate_type_ids,
        gate_arity=gate_arity,
        gate_inputs=gate_inputs,
        gate_output=gate_output,
        gate_loads=gate_loads,
        nominal_delays=nominal,
        truth_tables=truth_tables,
        padded_truth_tables=padded_tables,
        padded_inputs=padded_inputs,
        dummy_net_id=dummy_net_id,
        levels=levels,
        truth_tables_i64=truth_tables.astype(np.int64),
        padded_truth_tables_i64=padded_tables.astype(np.int64),
    )
