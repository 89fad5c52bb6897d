"""Benchmark-recording harness (``make bench`` / ``repro bench``).

Runs the two hot kernels and end-to-end circuit simulations on every
available compute backend, records per-benchmark wall time and
gate-evaluation throughput together with backend/machine metadata, and
compares against a previous record with a configurable regression
threshold.  The JSON record (``BENCH_kernels.json``) is committed to the
repository so the perf trajectory is inspectable per commit, and CI
uploads a fresh record as an artifact on every push.

Report schema (version 2)::

    {
      "schema_version": 2,
      "recorded_unix": <float>,
      "machine": {"platform": ..., "python": ..., "numpy": ...,
                  "cpu_count": ..., "backends": {name: "ok" | reason}},
      "benchmarks": [
        {"name": ..., "backend": ..., "wall_seconds": median(walls),
         "walls": [per-pair wall, ...],
         "gate_evals_per_second": ..., "params": {...}},
        ...
      ],
      "speedups": {benchmark-name: {backend: numpy_wall / backend_wall}},
      "pruning_speedups": {scenario: {backend: dense_wall / sparse_wall}},
      "service_speedups": {backend: sequential_wall / batched_wall},
      "service_scaling": {backend: {num_shards: inproc_wall / sharded_wall}},
      "incremental_speedups": {scenario: {backend: full_wall / delta_wall}},
      "closed_loop_speedups": {backend: full_wall / delta_wall},
      "parametric_ratios": {circuit: {backend: parametric_wall / static_wall}},
      "ratio_quartiles": {section: {<same keys>: [q1, median, q3]}},
      "characterization_speedups": {"evaluation_ratio": ...,
                                    "warm_cache_evaluations": ..., ...},
      "faults_disabled_overhead": {backend: seam_cost_fraction_of_e2e_wall},
      "setup_scaling": {"<circuit>_x<scale>": engine_construction_us_per_gate}
    }

Every wall is timed one way, by :func:`_time_pairs`: each flow of a
scenario runs once untimed, then :data:`PAIRS` pairs
(:data:`PAIRS_QUICK` with ``--quick``) run every flow once, the order
flipping every pair, so machine drift hits both sides of a ratio alike.
An entry's ``wall_seconds`` is the median of its ``walls``.  A record
without ``walls`` (schema 1, best-of walls) reads as one pair of its
``wall_seconds``, so it still serves as a baseline.

The seven ratio sections come from one table, :data:`RATIOS`: each row
names a section, the entry pair it divides and the keys it files the
ratio under.  A ratio is taken per pair index (the i-th wall of the
numerator over the i-th wall of the denominator); the section holds
the median and ``ratio_quartiles`` the ``[q1, median, q3]`` under the
same keys.  The scenarios behind them (details in each ``bench_*``):

* ``e2e_*_lowact_{sparse,dense}`` — one mostly quiet stimulus with and
  without activity pruning (``pruning_speedups``);
* ``service_throughput_{sequential,batched}`` — small jobs as per-job
  engine runs and through the batching service, result cache off
  (``service_speedups``);
* ``service_scaling_{inproc,shardsN}`` — one job stream through the
  in-process service and through N shard processes
  (``service_scaling``).  Read it against ``machine.cpu_count``:
  without spare cores it prices the transport, not a parallelism win;
* ``incremental_{voltage_sweep,stimulus}_{full,delta}`` — near-duplicate
  jobs re-simulated in full and through the delta path against a
  captured base arena (``incremental_speedups``);
* ``avfs_closed_loop_{full,delta}`` — one AVFS control trajectory with
  and without base-arena splicing, asserted bit-identical
  (``closed_loop_speedups``);
* ``e2e_b17_wide_{static,parametric}`` — the paper's Table I
  "negligible overhead" claim on a :data:`RATIO_SLOTS`-slot plane,
  where the Horner cost can show (``parametric_ratios``).

Three sections are not rows of that table: ``characterization_
speedups`` (fixed-grid vs adaptive vs warm-cache characterization:
SPICE evaluations, worst fit error, and the per-pair wall ratio and
break-even), ``faults_disabled_overhead`` (the projected cost of the
disabled fault seams in one e2e run) and ``setup_scaling`` (cold
``GpuWaveSim`` construction in µs per gate, against the paper's
"set-up stays in seconds" at 1 M nodes).  :func:`compare_reports`
lists every gate and its kind.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import sys
import time
from contextlib import ExitStack
from functools import partial
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.simulation.backend import (
    available_backends,
    backend_status,
    resolve_backend,
)

__all__ = [
    "CHARZ_ERROR_FACTOR",
    "CHARZ_ERROR_FLOOR",
    "CHARZ_EVAL_RATIO_FLOOR",
    "DEFAULT_OUTPUT",
    "DEFAULT_THRESHOLD",
    "FAULT_OVERHEAD_CEILING",
    "PARAMETRIC_RATIO_CEILING",
    "bench_characterization",
    "bench_end_to_end",
    "bench_delay_kernel",
    "bench_fault_seams",
    "bench_low_activity",
    "bench_merge_kernel",
    "bench_parametric_plane",
    "bench_service_scaling",
    "bench_service_throughput",
    "bench_setup_scaling",
    "compare_reports",
    "load_report",
    "main",
    "run_suite",
    "write_report",
]

SCHEMA_VERSION = 2
DEFAULT_OUTPUT = "BENCH_kernels.json"

#: Timed pairs behind every wall, after one warm-up run of each flow
#: (``--quick``: PAIRS_QUICK).  One best-of wall per flow did not survive
#: unchanged code: twelve records of one tree read a delta/full ratio
#: anywhere from 0.86 to 1.40.
PAIRS = 5
PAIRS_QUICK = 3

#: A benchmark is a regression when its wall time exceeds the baseline
#: by more than this factor.
DEFAULT_THRESHOLD = 1.5

#: (lanes, events per pin) of the merge micro-benchmark.
MERGE_LANES = 20_000
MERGE_LANES_QUICK = 4_000

#: Gates in the delay-kernel micro-benchmark.
DELAY_GATES = 2_000
DELAY_GATES_QUICK = 400

#: End-to-end circuits (Table I representatives) and workload scale.
E2E_CIRCUITS = ("s38417", "b17")
E2E_CIRCUITS_QUICK = ("s38417",)
E2E_SCALE = 0.01
E2E_PATTERNS = 16
E2E_PATTERNS_QUICK = 6

#: Parametric-vs-static scenario: RATIO_PATTERNS pairs tiled to
#: RATIO_SLOTS slots at one supply (static delays cannot tell supplies
#: apart), in quick mode too.  A plane this wide spends its wall in
#: per-lane kernel work, so the ratio prices the in-kernel Horner
#: evaluation rather than per-call overhead; planes narrower than
#: RATIO_SLOTS never feed ``parametric_ratios``.  The per-lane backends
#: evaluate the polynomial once per (gate, voltage), which the absolute
#: ceiling holds them to.
RATIO_CIRCUIT = "b17"
RATIO_PATTERNS = 32
RATIO_SLOTS = 1024
PARAMETRIC_RATIO_CEILING = {"cext": 1.10}

#: Low-activity scenario: one pair in LOWACT_ACTIVE_EVERY launches
#: transitions, the rest are quiet (v2 == v1) — the regime activity
#: pruning targets.  A wide slot plane on a larger circuit scale, so
#: per-lane kernel work and arena traffic (what pruning removes)
#: dominate the per-level dispatch overhead (which it cannot).
LOWACT_ACTIVE_EVERY = 8
LOWACT_SCALE = 0.1
LOWACT_PATTERNS = 256
LOWACT_PATTERNS_QUICK = 64

#: Service scenario: many fine-grained jobs of SERVICE_SLOTS_PER_JOB
#: slots each — the regime dynamic batching targets (per-run dispatch
#: overhead dominates tiny planes).
SERVICE_JOBS = 64
SERVICE_JOBS_QUICK = 16
SERVICE_SLOTS_PER_JOB = 2
SERVICE_CIRCUIT = "s38417"

#: Service-scaling scenario: the same job stream through the in-process
#: service and through ``shards=N`` worker processes.  A free shard
#: takes the next batch, so the single hot compatibility group spreads
#: across every shard and the number measures multi-process scaling
#: (plus the pipe transport overhead).
#: Interpret against ``machine.cpu_count``: with one core, sharding can
#: only add IPC overhead — the speedup column is then an honest price
#: tag, not a win.
SCALING_JOBS = 32
SCALING_JOBS_QUICK = 8
SCALING_SHARDS = (1, 2, 4)
SCALING_SHARDS_QUICK = (1, 2)

#: Incremental re-simulation scenario: near-duplicate traffic replayed
#: against a retained base arena.  The voltage-sweep variant shares 15
#: of its 16 operating points with the base (the AVFS re-tuning case:
#: one point moved, the rest of the plane splices); the stimulus
#: variant flips 1 in 32 input bits of one pattern, so that pattern's
#: slots simulate and every other slot splices.
#: Closed-loop AVFS scenario (``avfs_closed_loop_{full,delta}``): one
#: trajectory of LOOP_ITERATIONS simulate→measure→decide steps, timed
#: with base-arena splicing on and off.  ``closed_loop_speedups``
#: records wall(full)/wall(delta); the trajectories are asserted
#: bit-identical before either entry is recorded.
LOOP_CIRCUIT = "s38417"
LOOP_SCALE = 0.1
LOOP_PATTERNS = 8
LOOP_PATTERNS_QUICK = 4
#: Long enough that the 4 distinct supplies the controller visits (and
#: their base captures) amortize: the remaining iterations fully splice.
LOOP_ITERATIONS = 32
LOOP_ITERATIONS_QUICK = 10

INCR_CIRCUIT = "s38417"
INCR_SCALE = 0.05
INCR_SWEEP_VOLTAGES = 16
INCR_PATTERNS = 8
INCR_PATTERNS_QUICK = 4
INCR_FLIP_ONE_IN = 32

#: Characterization scenario: fixed-grid vs adaptive library
#: characterization.  Quick mode restricts the library to a family
#: subset (logged) so the CI smoke stays fast; the gates are per-flow
#: ratios and hold on the subset too.
CHARZ_FAMILIES_QUICK = ("INV", "NAND2", "NOR2", "BUF")
CHARZ_PARITY_GRID = 64
#: Adaptive characterization must spend at least this many times fewer
#: SPICE delay evaluations than the 12×9 fixed grid.
CHARZ_EVAL_RATIO_FLOOR = 3.0
#: ... while its worst fit error vs the fixed grid's bilinear reference
#: stays within ``max(fixed_worst × FACTOR, FLOOR)`` — parity with the
#: Fig. 4/5 accuracy, with an absolute floor so near-zero fixed errors
#: do not make the relative gate impossibly tight.
CHARZ_ERROR_FACTOR = 1.25
CHARZ_ERROR_FLOOR = 0.02

#: Fault-seam scenario: spin calls through the disabled ``faults.trip``
#: path to price one seam crossing, count the crossings one end-to-end
#: run makes, and record the projected overhead fraction.  The guard:
#: leaving the seams compiled into production paths must cost less than
#: this fraction of end-to-end wall time when no plan is active.
FAULT_SEAM_SPINS = 200_000
FAULT_SEAM_SPINS_QUICK = 50_000
FAULT_OVERHEAD_CEILING = 0.01

#: Set-up scaling scenario: (suite circuit, scale) per entry, small to
#: large — 3 679 / 8 271 / 14 717 / 41 355 gates.
SETUP_SIZES = (("b17", 0.1), ("p100k", 0.1), ("b17", 0.4), ("p100k", 0.5))
SETUP_SIZES_QUICK = (("b17", 0.1),)


def _time_pairs(flows: Dict[str, Callable[[], object]], quick: bool = False,
                before: Optional[Callable[[], object]] = None
                ) -> Tuple[Dict[str, List[float]], Dict[str, object]]:
    """Per-pair walls and last return value of each flow (name ->
    zero-argument callable).

    Every flow runs once untimed (warm-up: JIT, caches, pools), then
    :data:`PAIRS` pairs (:data:`PAIRS_QUICK` with ``quick``) run every
    flow once, in reverse order every other pair.  ``before`` runs
    ahead of every call, outside the clock: per-run preparation such as
    a fresh circuit.
    """
    order = list(flows)
    walls: Dict[str, List[float]] = {name: [] for name in order}
    last = dict.fromkeys(order)
    for pair in range(-1, PAIRS_QUICK if quick else PAIRS):
        for name in (order if pair % 2 == 0 else order[::-1]):
            if before is not None:
                before()
            start = time.perf_counter()
            last[name] = flows[name]()
            if pair >= 0:
                walls[name].append(time.perf_counter() - start)
    return walls, last


def _entry(name: str, backend: str, walls: List[float], evals: float,
           **params) -> dict:
    wall = statistics.median(walls)
    return {
        "name": name,
        "backend": backend,
        "wall_seconds": wall,
        "walls": walls,
        "gate_evals_per_second": evals / wall if wall > 0 else None,
        "params": params,
    }


# -- micro-benchmarks --------------------------------------------------------------


def _merge_workload(lanes: int, capacity: int = 8, seed: int = 6):
    """The synthetic XOR2 thread group of ``bench_kernels.py``."""
    rng = np.random.default_rng(seed)
    times = np.sort(rng.uniform(0, 1e-9, size=(2, lanes, capacity)), axis=2)
    counts = rng.integers(0, capacity, size=(2, lanes))
    mask = np.arange(capacity)[None, None, :] >= counts[:, :, None]
    times[mask] = np.inf
    initial = rng.integers(0, 2, size=(2, lanes)).astype(np.uint8)
    delays = rng.uniform(1e-12, 5e-12, size=(2, 2, lanes))
    tables = np.full(lanes, 0b0110, dtype=np.int64)
    return times, initial, delays, tables


def bench_merge_kernel(backend_name: str, lanes: int,
                       quick: bool = False) -> dict:
    """``waveform_merge_kernel`` throughput: one 2-input thread group."""
    backend = resolve_backend(backend_name)
    times, initial, delays, tables = _merge_workload(lanes)
    out_capacity = 32

    walls, _ = _time_pairs({"merge": partial(
        backend.merge_kernel, times, initial, delays, tables, out_capacity)},
        quick)
    return _entry("waveform_merge_kernel", backend.name, walls["merge"], lanes,
                  lanes=lanes, capacity=out_capacity)


def bench_delay_kernel(backend_name: str, kernel_table, gates: int,
                       quick: bool = False) -> dict:
    """Online delay calculation: ``gates`` gates × 8 voltages."""
    backend = resolve_backend(backend_name)
    rng = np.random.default_rng(5)
    type_ids = rng.integers(0, kernel_table.num_types, size=gates)
    loads = rng.uniform(1e-15, 1e-13, size=gates)
    nominal = rng.uniform(1e-12, 2e-11,
                          size=(gates, kernel_table.max_pins, 2))
    voltages = np.linspace(0.55, 1.1, 8)

    walls, _ = _time_pairs({"delays": partial(
        backend.delays_for_gates, kernel_table, type_ids, loads, nominal,
        voltages)}, quick)
    return _entry("delays_for_gates", backend.name, walls["delays"],
                  gates * voltages.size, gates=gates,
                  voltages=int(voltages.size), impl=backend.delays_impl)


# -- end-to-end --------------------------------------------------------------------


def bench_end_to_end(backend_name: str, circuit_name: str, scale: float,
                     num_patterns: int, parametric: bool,
                     quick: bool = False) -> dict:
    """Whole-engine run on a scaled Table I circuit."""
    from repro.experiments.common import default_kernel_table, default_library
    from repro.experiments.workload import prepare_workload
    from repro.simulation.base import SimulationConfig
    from repro.simulation.gpu import GpuWaveSim

    workload = prepare_workload(circuit_name, scale=scale)
    library = default_library()
    kernel_table = default_kernel_table(3) if parametric else None
    pairs = workload.patterns.pairs[:num_patterns]
    sim = GpuWaveSim(workload.circuit, library, compiled=workload.compiled,
                     config=SimulationConfig(backend=backend_name))
    walls, last = _time_pairs({"run": partial(
        sim.run, pairs, kernel_table=kernel_table)}, quick)
    evals = last["run"].gate_evaluations
    mode = "parametric" if parametric else "static"
    phases = {name: round(seconds, 6) for name, seconds
              in sim.last_stats.phase_seconds().items()}
    return _entry(f"e2e_{circuit_name}_{mode}", sim.backend.name,
                  walls["run"], evals,
                  circuit=circuit_name, scale=scale, patterns=len(pairs),
                  slots=len(pairs), gate_evaluations=int(evals),
                  phases=phases)


def bench_parametric_plane(backend_name: str,
                           quick: bool = False) -> List[dict]:
    """Static and parametric runs of one wide single-supply plane (two
    entries, ``e2e_<circuit>_wide_{static,parametric}``)."""
    from repro.experiments.common import default_kernel_table, default_library
    from repro.experiments.workload import prepare_workload
    from repro.simulation.base import SimulationConfig
    from repro.simulation.grid import SlotPlan
    from repro.simulation.gpu import GpuWaveSim

    workload = prepare_workload(RATIO_CIRCUIT, scale=E2E_SCALE)
    pairs = workload.patterns.pairs[:RATIO_PATTERNS]
    plan = SlotPlan.cross(len(pairs), [0.8] * (RATIO_SLOTS // len(pairs)))
    sim = GpuWaveSim(workload.circuit, default_library(),
                     compiled=workload.compiled,
                     config=SimulationConfig(backend=backend_name))
    tables = {"static": None, "parametric": default_kernel_table(3)}
    walls, last = _time_pairs(
        {mode: partial(sim.run, pairs, plan=plan, kernel_table=table)
         for mode, table in tables.items()}, quick)
    return [_entry(f"e2e_{RATIO_CIRCUIT}_wide_{mode}", sim.backend.name,
                   walls[mode], result.gate_evaluations,
                   circuit=RATIO_CIRCUIT, scale=E2E_SCALE,
                   patterns=len(pairs), slots=plan.num_slots,
                   gate_evaluations=int(result.gate_evaluations))
            for mode, result in last.items()]


def bench_incremental_resim(backend_name: str, circuit_name: str,
                            scale: float, num_patterns: int,
                            quick: bool = False) -> List[dict]:
    """Delta re-simulation vs full re-simulation (four entries).

    A base run over a ``num_patterns x INCR_SWEEP_VOLTAGES`` slot plane
    is captured once (untimed — the arena is a by-product of a normal
    run, the way the closed loop's ring takes it).  Two near-duplicate
    variants are then timed both from scratch (``*_full``) and through
    the delta path (``*_delta``, including the ``select_delta`` match —
    the whole price of reuse):

    * ``incremental_voltage_sweep``: one of 16 operating points moved;
      the 15 shared points splice, the new point simulates.
    * ``incremental_stimulus``: 1 in ``INCR_FLIP_ONE_IN`` input nets
      flipped in one pattern; that pattern's 16 slots simulate, the
      other patterns' slots splice.

    The ``*_delta`` entries record ``delta_fraction``, ``lanes_spliced``
    and ``bytes_spliced``; ``incremental_speedups`` records the wall
    ratio per scenario and backend.
    """
    from repro.experiments.common import default_kernel_table, default_library
    from repro.experiments.workload import prepare_workload
    from repro.simulation.base import PatternPair, SimulationConfig
    from repro.simulation.delta import select_delta
    from repro.simulation.grid import SlotPlan
    from repro.simulation.gpu import GpuWaveSim

    workload = prepare_workload(circuit_name, scale=scale)
    library = default_library()
    kernel_table = default_kernel_table(3)
    pairs = workload.patterns.pairs[:num_patterns]
    points = INCR_SWEEP_VOLTAGES
    sweep = [round(0.6 + 0.4 * i / (points - 1), 6) for i in range(points)]
    base_plan = SlotPlan.cross(len(pairs), sweep)

    # Variant 1: re-sweep with one operating point moved off-grid.
    shifted_plan = SlotPlan.cross(len(pairs), sweep[:-1] + [1.05])
    # Variant 2: flip 1 in INCR_FLIP_ONE_IN input nets of one pattern.
    v1 = np.stack([p.v1 for p in pairs])
    v2 = np.stack([p.v2 for p in pairs]).copy()
    width = v1.shape[1]
    flips = max(1, width // INCR_FLIP_ONE_IN)
    positions = np.linspace(0, width - 1, flips).astype(np.int64)
    v2[0, positions] ^= 1
    perturbed = [PatternPair(v1[i], v2[i]) for i in range(len(pairs))]

    scenarios = (("incremental_voltage_sweep", pairs, shifted_plan),
                 ("incremental_stimulus", perturbed, base_plan))
    entries = []
    for label, job_pairs, job_plan in scenarios:
        base_sim = GpuWaveSim(workload.circuit, library,
                              compiled=workload.compiled,
                              config=SimulationConfig(backend=backend_name))
        arena = base_sim.run(pairs, plan=base_plan,
                             kernel_table=kernel_table,
                             capture_base=True).base_arena
        jv1 = np.stack([p.v1 for p in job_pairs])
        jv2 = np.stack([p.v2 for p in job_pairs])

        full_sim, delta_sim = (
            GpuWaveSim(workload.circuit, library, compiled=workload.compiled,
                       config=SimulationConfig(backend=backend_name))
            for _ in range(2))
        def delta_call():
            selected = select_delta([arena], jv1, jv2,
                                    job_plan.pattern_indices,
                                    job_plan.voltages, None, None, 0.5)
            assert selected is not None
            return delta_sim.run(job_pairs, plan=job_plan,
                                 kernel_table=kernel_table, delta=selected[0])

        walls, last = _time_pairs({"full": partial(
            full_sim.run, job_pairs, plan=job_plan,
            kernel_table=kernel_table), "delta": delta_call}, quick)
        params = dict(circuit=circuit_name, scale=scale, patterns=len(pairs),
                      voltages=points)
        stats = delta_sim.last_stats
        for mode, extra in (("full", {}), ("delta", dict(
                delta_fraction=round(stats.delta_fraction, 6),
                lanes_spliced=int(stats.lanes_spliced),
                bytes_spliced=int(stats.bytes_spliced)))):
            evals = last[mode].gate_evaluations
            entries.append(_entry(
                f"{label}_{mode}", full_sim.backend.name, walls[mode], evals,
                gate_evaluations=int(evals), **params, **extra))
    return entries


def bench_closed_loop(backend_name: str, circuit_name: str, scale: float,
                      num_patterns: int, iterations: int,
                      quick: bool = False) -> List[dict]:
    """Closed-loop AVFS trajectory with and without delta splicing.

    One :class:`~repro.avfs.loop.ClosedLoopRunner` trajectory — constant
    droop, convergence disabled so every iteration executes — is timed
    twice: ``avfs_closed_loop_full`` re-simulates the full plane every
    iteration, ``avfs_closed_loop_delta`` splices cached base arenas
    whenever the commanded supply repeats (which, once the controller
    settles, is every remaining iteration).  Both trajectories must be
    bit-identical — the delta path's correctness contract — and the
    entries are auto-gated by the wall-time comparison like every other
    benchmark; ``closed_loop_speedups`` records the per-backend ratio.
    """
    from repro.avfs import (AvfsController, ClosedLoopRunner,
                            DesignSpaceExplorer, LoopConfig, VoltageDroop)
    from repro.experiments.common import default_kernel_table, default_library
    from repro.experiments.workload import prepare_workload
    from repro.simulation.base import SimulationConfig
    from repro.simulation.gpu import GpuWaveSim

    workload = prepare_workload(circuit_name, scale=scale)
    library = default_library()
    kernel_table = default_kernel_table(3)
    pairs = workload.patterns.pairs[:num_patterns]
    voltages = [0.6, 0.7, 0.8, 0.9, 1.0]

    sim = GpuWaveSim(workload.circuit, library, compiled=workload.compiled,
                     config=SimulationConfig(backend=backend_name))
    explorer = DesignSpaceExplorer(workload.circuit, library, kernel_table,
                                   simulator=sim)
    table = explorer.voltage_frequency_table(pairs, voltages, guardband=0.05)
    period = 1.15 / table.frequency_at(0.8)
    disturbances = [VoltageDroop(0.004)]

    def flow(mode):
        config = LoopConfig(period=period, max_iterations=iterations,
                            settle_iterations=iterations + 1,
                            use_delta=mode == "delta", record_energy=False)
        return lambda: ClosedLoopRunner(
            workload.circuit, library, kernel_table, AvfsController(table),
            config, disturbances=disturbances, simulator=sim).run(pairs)

    walls, trajectories = _time_pairs(
        {mode: flow(mode) for mode in ("full", "delta")}, quick)
    full_arrivals = [s.raw_arrival for s in trajectories["full"].steps]
    delta_arrivals = [s.raw_arrival for s in trajectories["delta"].steps]
    assert full_arrivals == delta_arrivals, \
        "closed-loop delta trajectory diverged from full re-simulation"
    return [_entry(
        f"avfs_closed_loop_{mode}", sim.backend.name, walls[mode],
        report.run_report.gate_evaluations,
        circuit=circuit_name, scale=scale, patterns=len(pairs),
        iterations=report.num_iterations,
        delta_reuse=round(report.delta_reuse_fraction, 6),
        lanes_spliced=int(report.run_report.lanes_spliced),
        converged_at=report.converged_at)
        for mode, report in trajectories.items()]


def _low_activity_pairs(pairs, num_patterns: int):
    """Mostly-quiet stimulus: every LOWACT_ACTIVE_EVERY-th pair is a real
    transition pattern, the rest hold their first vector (no toggles)."""
    from repro.simulation.base import PatternPair

    out = []
    for i in range(num_patterns):
        source = pairs[i % len(pairs)]
        if i % LOWACT_ACTIVE_EVERY == 0:
            out.append(source)
        else:
            out.append(PatternPair(source.v1, source.v1.copy()))
    return out


def bench_low_activity(backend_name: str, circuit_name: str, scale: float,
                       num_patterns: int, quick: bool = False) -> List[dict]:
    """Sparse-vs-dense pair on a mostly-quiet stimulus (two entries)."""
    from repro.experiments.common import default_library
    from repro.experiments.workload import prepare_workload
    from repro.simulation.base import SimulationConfig
    from repro.simulation.gpu import GpuWaveSim

    workload = prepare_workload(circuit_name, scale=scale)
    library = default_library()
    pairs = _low_activity_pairs(workload.patterns.pairs, num_patterns)
    sims = {mode: GpuWaveSim(workload.circuit, library,
                             compiled=workload.compiled,
                             config=SimulationConfig(
                                 backend=backend_name,
                                 prune_inactive=mode == "sparse"))
            for mode in ("sparse", "dense")}
    walls, last = _time_pairs(
        {mode: partial(sim.run, pairs) for mode, sim in sims.items()}, quick)
    return [_entry(
        f"e2e_{circuit_name}_lowact_{mode}", sim.backend.name, walls[mode],
        last[mode].gate_evaluations, circuit=circuit_name, scale=scale,
        patterns=len(pairs), gate_evaluations=int(last[mode].gate_evaluations),
        lanes_skipped=int(sim.last_stats.lanes_skipped),
        active_fraction=round(sim.last_stats.active_fraction, 4))
        for mode, sim in sims.items()]


def bench_service_throughput(backend_name: str, num_jobs: int,
                             quick: bool = False) -> List[dict]:
    """Sequential-vs-batched pair for fine-grained jobs (two entries).

    The same ``num_jobs`` jobs (each :data:`SERVICE_SLOTS_PER_JOB`
    unique pattern pairs) run once as individual ``GpuWaveSim.run``
    calls and once submitted through a :class:`SimulationService` sized
    to coalesce them into one slot plane.  The result cache is disabled
    so the batched number measures dispatch, not memoization.
    """
    from repro.experiments.common import default_library
    from repro.experiments.workload import prepare_workload
    from repro.service import ServiceConfig, SimulationService
    from repro.simulation.base import SimulationConfig
    from repro.simulation.gpu import GpuWaveSim

    workload = prepare_workload(SERVICE_CIRCUIT, scale=E2E_SCALE)
    library = default_library()
    source = workload.patterns.pairs
    jobs = [[source[(num_jobs * i + j) % len(source)]
             for j in range(SERVICE_SLOTS_PER_JOB)]
            for i in range(num_jobs)]
    config = SimulationConfig(backend=backend_name)
    sim = GpuWaveSim(workload.circuit, library, compiled=workload.compiled,
                     config=config)
    service_config = ServiceConfig(
        max_batch_slots=num_jobs * SERVICE_SLOTS_PER_JOB, max_wait_ms=100.0,
        idle_ms=20.0, cache_entries=0)

    def batched():
        with SimulationService(config=service_config) as service:
            key = service.register_circuit(workload.circuit, library,
                                           compiled=workload.compiled)
            handles = [service.submit(key, pairs, config=config)
                       for pairs in jobs]
            return (sum(handle.result().gate_evaluations
                        for handle in handles),
                    service.metrics().coalesce_factor)

    walls, last = _time_pairs({
        "sequential": lambda: sum(sim.run(pairs).gate_evaluations
                                  for pairs in jobs),
        "batched": batched}, quick)
    batched_evals, coalesce = last["batched"]
    params = dict(circuit=SERVICE_CIRCUIT, scale=E2E_SCALE, jobs=num_jobs,
                  slots_per_job=SERVICE_SLOTS_PER_JOB)
    return [
        _entry("service_throughput_sequential", sim.backend.name,
               walls["sequential"], last["sequential"], **params),
        _entry("service_throughput_batched", sim.backend.name,
               walls["batched"], batched_evals,
               coalesce_factor=round(coalesce, 2), **params),
    ]


def bench_service_scaling(backend_name: str, num_jobs: int,
                          shard_counts: Sequence[int],
                          quick: bool = False) -> List[dict]:
    """In-process vs multi-process-sharded service on one job stream.

    The same ``num_jobs`` fine-grained jobs run once through the
    in-process service (``shards=0``, the supervised thread pool) and
    once per entry of ``shard_counts`` through the multi-process shard
    router, whose control pipes carry each batch's stimuli out and its
    packed result plane back.  Process spawn and circuit registration
    happen outside the timed region — every service is up before the
    first timed pair — so the number is steady-state dispatch
    throughput.  A free shard takes the next batch, so the single hot
    compatibility group spreads across every shard.

    Every pass of every run must do the same engine work: a sharded
    run whose summed ``gate_evaluations`` differ from the in-process
    run's raises ``RuntimeError``, since a wall ratio over unequal work
    means nothing.

    ``service_scaling`` in the report records the wall-time ratio of
    the in-process run to each sharded run per backend.  Read it next
    to ``machine.cpu_count``: sharding buys parallelism only when there
    are cores to spill onto; on a single-core machine the ratio prices
    the IPC overhead instead.
    """
    from repro.experiments.common import default_library
    from repro.experiments.workload import prepare_workload
    from repro.service import ServiceConfig, SimulationService
    from repro.simulation.base import SimulationConfig

    workload = prepare_workload(SERVICE_CIRCUIT, scale=E2E_SCALE)
    library = default_library()
    source = workload.patterns.pairs
    jobs = [[source[(num_jobs * i + j) % len(source)]
             for j in range(SERVICE_SLOTS_PER_JOB)]
            for i in range(num_jobs)]
    config = SimulationConfig(backend=backend_name)
    backend = resolve_backend(backend_name).name
    # Several small batches per pass, so there is something to spread.
    batching = dict(max_batch_slots=SERVICE_SLOTS_PER_JOB * 4,
                    max_wait_ms=50.0, idle_ms=10.0, cache_entries=0)

    configs = {"inproc": ServiceConfig(**batching)}
    for shards in shard_counts:
        configs[f"shards{shards}"] = ServiceConfig(
            shards=shards, **batching)
    evals: Dict[str, List[int]] = {name: [] for name in configs}

    def flow(name, service, key):
        def run_stream():
            handles = [service.submit(key, pairs, config=config)
                       for pairs in jobs]
            evals[name].append(sum(handle.result(timeout=300).gate_evaluations
                                   for handle in handles))
        return run_stream

    with ExitStack() as stack:
        services, flows = {}, {}
        for name, service_config in configs.items():
            service = stack.enter_context(
                SimulationService(config=service_config))
            key = service.register_circuit(workload.circuit, library,
                                           compiled=workload.compiled)
            services[name], flows[name] = service, flow(name, service, key)
        walls, _ = _time_pairs(flows, quick)
        metrics = {name: service.metrics()
                   for name, service in services.items()}
    for name, passes in evals.items():
        if passes != evals["inproc"]:
            raise RuntimeError(
                f"service_scaling: {name} evaluated {passes} gates per "
                f"pass, in-process {evals['inproc']}")

    params = dict(circuit=SERVICE_CIRCUIT, scale=E2E_SCALE, jobs=num_jobs,
                  slots_per_job=SERVICE_SLOTS_PER_JOB,
                  cpu_count=os.cpu_count())
    entries = [_entry("service_scaling_inproc", backend, walls["inproc"],
                      evals["inproc"][-1], shards=0, **params)]
    for shards in shard_counts:
        name = f"shards{shards}"
        entries.append(_entry(
            f"service_scaling_{name}", backend, walls[name],
            evals[name][-1], shards=shards,
            dispatches=[s["dispatches"] for s in metrics[name].shards.values()],
            ipc_tx_bytes=metrics[name].ipc_tx_bytes,
            ipc_rx_bytes=metrics[name].ipc_rx_bytes, **params))
    return entries


def bench_fault_seams(backend_name: str, num_patterns: int,
                      spins: int = FAULT_SEAM_SPINS,
                      quick: bool = False) -> dict:
    """Disabled fault-injection overhead of one end-to-end run.

    Three measurements compose the ``faults_disabled_overhead`` number:
    the unit cost of crossing a seam with no plan active (``spins``
    calls through ``faults.trip``), the number of seam crossings one
    end-to-end run performs (counted by an activated *empty* plan —
    same crossings, zero enactments), and the run's wall time.  The
    recorded fraction ``crossings × unit_cost / wall`` is what the
    seams cost production runs; :func:`compare_reports` fails when it
    exceeds :data:`FAULT_OVERHEAD_CEILING`.
    """
    from repro import faults
    from repro.experiments.common import default_library
    from repro.experiments.workload import prepare_workload
    from repro.simulation.base import SimulationConfig
    from repro.simulation.gpu import GpuWaveSim

    assert faults.active_plan() is None, \
        "fault benchmarks need injection disarmed"
    trip = faults.trip

    def spin():
        for _ in range(spins):
            trip("service.demux")

    workload = prepare_workload(SERVICE_CIRCUIT, scale=E2E_SCALE)
    library = default_library()
    pairs = workload.patterns.pairs[:num_patterns]
    sim = GpuWaveSim(workload.circuit, library, compiled=workload.compiled,
                     config=SimulationConfig(backend=backend_name))
    # Timed apart: on cext a run right after the 200k-call spin loop
    # took 1.41 ms against 0.80-0.85 ms back to back (2-core box).
    spins_walls, _ = _time_pairs({"seams": spin}, quick)
    walls, last = _time_pairs({"run": partial(sim.run, pairs)}, quick)
    per_call = statistics.median(spins_walls["seams"]) / spins
    wall = statistics.median(walls["run"])
    evals = last["run"].gate_evaluations

    with faults.injected(faults.FaultPlan()) as plan:
        sim.run(pairs)
        crossings = plan.calls()

    overhead = crossings * per_call / wall if wall > 0 else 0.0
    return _entry(
        "fault_seams_e2e", sim.backend.name, walls["run"], evals,
        circuit=SERVICE_CIRCUIT, scale=E2E_SCALE, patterns=len(pairs),
        seam_spins=spins, seam_call_ns=round(per_call * 1e9, 3),
        seam_crossings=int(crossings),
        overhead_fraction=overhead)


def bench_characterization(quick: bool = False) -> List[dict]:
    """Fixed-grid vs adaptive vs warm-cache characterization.

    Three entries, all backend-independent (``backend="numpy"`` — the
    SPICE stand-in is pure NumPy): the full library on the fixed 12×9
    grid, the same library through the error-driven adaptive sampler,
    and a repeat adaptive run against a pre-warmed coefficient cache
    (its in-process memo cleared before every run, so each one loads
    from disk).  The three flows are timed as pairs by
    :func:`_time_pairs`.  Each entry's params carry the SPICE
    ``delay_evaluations`` its last run performed; the fixed/adaptive entries also carry their worst fit error
    against the fixed grid's bilinear reference on a
    :data:`CHARZ_PARITY_GRID`² probe — the Fig. 4/5 accuracy metric
    that :func:`compare_reports` gates.
    """
    import tempfile

    from repro.core.characterization import (AdaptiveConfig,
                                             characterize_library)
    from repro.core.charz_cache import CoefficientCache
    from repro.electrical.spice import AnalyticalSpice
    from repro.experiments.common import default_library

    library = default_library()
    if quick:
        library = library.select(CHARZ_FAMILIES_QUICK)
    config = AdaptiveConfig()
    common = dict(cells=len(library),
                  families="quick-subset" if quick else "all")

    def flow(adaptive, cache=None):
        def call():
            spice = AnalyticalSpice()
            return (characterize_library(library, spice, adaptive=adaptive,
                                         cache=cache),
                    spice.delay_evaluations)
        return call

    with tempfile.TemporaryDirectory() as tmp:
        cache = CoefficientCache(tmp)
        characterize_library(library, AnalyticalSpice(), adaptive=config,
                             cache=cache)
        walls, last = _time_pairs({"fixed": flow(None),
                                   "adaptive": flow(config),
                                   "warm_cache": flow(config, cache)},
                                  quick, before=CoefficientCache.clear_memo)
    (fixed, fixed_evals), (adaptive, adaptive_evals), (_, warm_evals) = \
        last.values()

    # Worst |fit - fixed-grid bilinear reference| over every entry, on
    # the same equidistant normalized probe grid Fig. 4/5 use.
    nv = np.linspace(0.0, 1.0, CHARZ_PARITY_GRID)[:, None]
    nc = np.linspace(0.0, 1.0, CHARZ_PARITY_GRID)[None, :]
    fixed_worst = 0.0
    adaptive_worst = 0.0
    for cell_name, fixed_cell in fixed.cells.items():
        for entry in fixed_cell.pins:
            reference = entry.reference(nv, nc)
            fixed_worst = max(fixed_worst, float(np.abs(
                entry.fit.polynomial.evaluate(nv, nc) - reference).max()))
            other = adaptive.entry(cell_name, entry.pin_name, entry.polarity)
            adaptive_worst = max(adaptive_worst, float(np.abs(
                other.fit.polynomial.evaluate(nv, nc) - reference).max()))

    return [
        _entry("characterization_fixed", "numpy", walls["fixed"],
               fixed_evals, delay_evaluations=fixed_evals,
               worst_error=fixed_worst, **common),
        _entry("characterization_adaptive", "numpy", walls["adaptive"],
               adaptive_evals, delay_evaluations=adaptive_evals,
               worst_error=adaptive_worst, target_error=config.target_error,
               budget=config.budget, **common),
        _entry("characterization_warm_cache", "numpy", walls["warm_cache"],
               warm_evals, delay_evaluations=warm_evals, **common),
    ]


def bench_setup_scaling(sizes=SETUP_SIZES, quick: bool = False
                        ) -> List[dict]:
    """Cold engine construction per circuit size.

    One entry per ``(circuit, scale)``: the wall of
    ``GpuWaveSim(circuit, library)`` on a freshly generated circuit (a
    ``Circuit`` keeps its levels and wiring once derived, so every
    run builds its own outside the clock).  Nothing here depends on
    the compute backend (``backend="numpy"``, as for characterization).
    """
    from repro.experiments.common import default_library
    from repro.netlist.suite import build_suite_circuit
    from repro.simulation.gpu import GpuWaveSim

    library = default_library()
    entries = []
    for circuit_name, scale in sizes:
        fresh = {}
        walls, _ = _time_pairs(
            {"setup": lambda: GpuWaveSim(fresh["circuit"], library)}, quick,
            before=lambda: fresh.update(circuit=build_suite_circuit(
                circuit_name, scale=scale)))
        gates = fresh["circuit"].num_gates
        entries.append(_entry(
            f"setup_{circuit_name}_x{scale:g}", "numpy", walls["setup"],
            gates, circuit=circuit_name, scale=scale, gates=gates,
            us_per_gate=1e6 * statistics.median(walls["setup"]) / gates))
    return entries


# -- suite -------------------------------------------------------------------------


def run_suite(quick: bool = False,
              backends: Optional[Sequence[str]] = None,
              include_e2e: bool = True) -> dict:
    """Record all benchmarks across ``backends`` (default: available)."""
    chosen = list(backends) if backends else available_backends()
    benchmarks: List[dict] = []

    lanes = MERGE_LANES_QUICK if quick else MERGE_LANES
    for name in chosen:
        benchmarks.append(bench_merge_kernel(name, lanes, quick=quick))

    gates = DELAY_GATES_QUICK if quick else DELAY_GATES
    kernel_table = None
    if include_e2e:
        from repro.experiments.common import default_kernel_table
        kernel_table = default_kernel_table(3)
        for name in chosen:
            benchmarks.append(bench_delay_kernel(name, kernel_table, gates,
                                                 quick=quick))

        circuits = E2E_CIRCUITS_QUICK if quick else E2E_CIRCUITS
        patterns = E2E_PATTERNS_QUICK if quick else E2E_PATTERNS
        for circuit in circuits:
            for parametric in (False, True):
                for name in chosen:
                    benchmarks.append(bench_end_to_end(
                        name, circuit, E2E_SCALE, patterns, parametric,
                        quick=quick))

        for name in chosen:
            benchmarks.extend(bench_parametric_plane(name, quick=quick))

        incr_patterns = INCR_PATTERNS_QUICK if quick else INCR_PATTERNS
        for name in chosen:
            benchmarks.extend(bench_incremental_resim(
                name, INCR_CIRCUIT, INCR_SCALE, incr_patterns, quick=quick))

        loop_patterns = LOOP_PATTERNS_QUICK if quick else LOOP_PATTERNS
        loop_iterations = (LOOP_ITERATIONS_QUICK if quick
                           else LOOP_ITERATIONS)
        for name in chosen:
            benchmarks.extend(bench_closed_loop(
                name, LOOP_CIRCUIT, LOOP_SCALE, loop_patterns,
                loop_iterations, quick=quick))

        lowact = LOWACT_PATTERNS_QUICK if quick else LOWACT_PATTERNS
        for circuit in circuits:
            for name in chosen:
                benchmarks.extend(bench_low_activity(
                    name, circuit, LOWACT_SCALE, lowact, quick=quick))

        service_jobs = SERVICE_JOBS_QUICK if quick else SERVICE_JOBS
        for name in chosen:
            benchmarks.extend(bench_service_throughput(name, service_jobs,
                                                       quick=quick))

        scaling_jobs = SCALING_JOBS_QUICK if quick else SCALING_JOBS
        scaling_shards = SCALING_SHARDS_QUICK if quick else SCALING_SHARDS
        for name in chosen:
            benchmarks.extend(bench_service_scaling(
                name, scaling_jobs, scaling_shards, quick=quick))

        seam_spins = FAULT_SEAM_SPINS_QUICK if quick else FAULT_SEAM_SPINS
        for name in chosen:
            benchmarks.append(bench_fault_seams(name, patterns,
                                                spins=seam_spins,
                                                quick=quick))

        # Backend-independent (pure-NumPy SPICE stand-in): run once.
        benchmarks.extend(bench_characterization(quick=quick))
        benchmarks.extend(bench_setup_scaling(
            SETUP_SIZES_QUICK if quick else SETUP_SIZES, quick=quick))

    return {
        "schema_version": SCHEMA_VERSION,
        "recorded_unix": time.time(),
        "quick": quick,
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "backends": backend_status(),
        },
        "benchmarks": benchmarks,
        **_ratios(benchmarks),
        "characterization_speedups": _characterization_speedups(benchmarks),
        "faults_disabled_overhead": _fault_overhead(benchmarks),
        "setup_scaling": _setup_scaling(benchmarks),
    }


# -- ratios ------------------------------------------------------------------------


class Ratio(NamedTuple):
    """One ratio section of the record.

    ``denominator`` is a pattern over entry labels ``name[backend]``;
    its named groups fill the ``numerator`` label and, in ``keys``
    order, the key path the ratio is filed under.  ``where`` (if given)
    must hold for both entries of a pair.
    """

    section: str
    title: str
    numerator: str
    denominator: str
    keys: Tuple[str, ...]
    where: Optional[Callable[[dict], bool]] = None


def _wide_plane(entry: dict) -> bool:
    """A plane narrower than :data:`RATIO_SLOTS` is per-call overhead,
    which both modes share; low-activity entries never pair."""
    return (entry.get("params", {}).get("slots", RATIO_SLOTS) >= RATIO_SLOTS
            and "_lowact_" not in entry["name"])


#: Every ratio section of the record, in report order.
RATIOS = (
    Ratio("speedups", "speedup over numpy", "{name}[numpy]",
          r"(?P<name>.+)\[(?P<backend>\w+)\]", ("name", "backend")),
    Ratio("pruning_speedups", "pruning speedup", "{scenario}_dense[{backend}]",
          r"(?P<scenario>.+)_sparse\[(?P<backend>\w+)\]",
          ("scenario", "backend")),
    Ratio("service_speedups", "service batching speedup",
          "service_throughput_sequential[{backend}]",
          r"service_throughput_batched\[(?P<backend>\w+)\]", ("backend",)),
    Ratio("service_scaling", "service sharding speedup, by shards",
          "service_scaling_inproc[{backend}]",
          r"service_scaling_shards(?P<shards>\d+)\[(?P<backend>\w+)\]",
          ("backend", "shards")),
    Ratio("incremental_speedups", "incremental re-sim speedup",
          "{scenario}_full[{backend}]",
          r"(?P<scenario>incremental_.+)_delta\[(?P<backend>\w+)\]",
          ("scenario", "backend")),
    Ratio("closed_loop_speedups", "closed-loop delta speedup",
          "avfs_closed_loop_full[{backend}]",
          r"avfs_closed_loop_delta\[(?P<backend>\w+)\]", ("backend",)),
    Ratio("parametric_ratios", "parametric/static ratio",
          "e2e_{circuit}_parametric[{backend}]",
          r"e2e_(?P<circuit>.+)_static\[(?P<backend>\w+)\]",
          ("circuit", "backend"), where=_wide_plane),
)


def _walls(entry: dict) -> List[float]:
    """An entry's per-pair walls; a schema-1 entry is one pair."""
    return entry.get("walls") or [entry["wall_seconds"]]


def _quartiles(values: List[float]) -> Optional[List[float]]:
    """``[q1, median, q3]`` of ``values`` (inclusive method); None if empty."""
    if len(values) < 2:
        return [values[0]] * 3 if values else None
    return list(statistics.quantiles(values, n=4, method="inclusive"))


def _file(tree: dict, path: Sequence[str], value) -> None:
    """``tree[path[0]]...[path[-1]] = value``, making the levels."""
    *head, last = path
    for key in head:
        tree = tree.setdefault(key, {})
    tree[last] = value


def _leaves(tree: dict, path: Tuple[str, ...] = ()):
    """``(path, value)`` of every non-dict value of a nested section."""
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,), value


def _ratios(benchmarks: List[dict]) -> dict:
    """Every :data:`RATIOS` section plus ``ratio_quartiles``.

    Ratios are taken per pair index; a section holds the median and
    ``ratio_quartiles[section]`` the ``[q1, median, q3]`` under the same
    keys.  A pair without both entries gives no ratio.
    """
    by_label = {f"{entry['name']}[{entry['backend']}]": entry
                for entry in benchmarks}
    report: dict = {}
    spreads: dict = {}
    for ratio in RATIOS:
        values = report.setdefault(ratio.section, {})
        quartiles = spreads.setdefault(ratio.section, {})
        pattern = re.compile(ratio.denominator)
        for label, below in by_label.items():
            match = pattern.fullmatch(label)
            if match is None:
                continue
            above = by_label.get(ratio.numerator.format(**match.groupdict()))
            if above is None or (ratio.where and not (
                    ratio.where(above) and ratio.where(below))):
                continue
            spread = _quartiles([a / b for a, b in zip(_walls(above),
                                                       _walls(below)) if b > 0])
            if spread is not None:
                path = [match[key] for key in ratio.keys]
                _file(values, path, spread[1])
                _file(quartiles, path, spread)
    report["ratio_quartiles"] = spreads
    return report


def _characterization_speedups(benchmarks: List[dict]) -> dict:
    """Adaptive-vs-fixed characterization: evaluations, parity, cache, walls.

    The wall ratios are taken per timed pair: ``wall_speedup`` and
    ``break_even_us_per_evaluation`` are the medians, and their
    ``*_quartiles`` are ``[q1, median, q3]`` over the pairs.
    """
    by_name = {entry["name"]: entry for entry in benchmarks
               if entry["name"].startswith("characterization_")}
    fixed = by_name.get("characterization_fixed")
    adaptive = by_name.get("characterization_adaptive")
    if fixed is None or adaptive is None:
        return {}
    fixed_evals = fixed["params"]["delay_evaluations"]
    adaptive_evals = adaptive["params"]["delay_evaluations"]
    pairs = list(zip(_walls(fixed), _walls(adaptive)))
    speedups = _quartiles([f / a for f, a in pairs if a > 0])
    # The SPICE cost per evaluation above which the adaptive flow's
    # extra fitting wall is paid back by the evaluations it saves.
    saved = fixed_evals - adaptive_evals
    break_even = _quartiles([(a - f) * 1e6 / saved for f, a in pairs]
                            if saved > 0 else [])
    section = {
        "fixed_evaluations": fixed_evals,
        "adaptive_evaluations": adaptive_evals,
        "evaluation_ratio": (fixed_evals / adaptive_evals
                             if adaptive_evals else None),
        "fixed_worst_error": fixed["params"]["worst_error"],
        "adaptive_worst_error": adaptive["params"]["worst_error"],
        "timed_pairs": len(pairs),
        "wall_speedup": speedups[1] if speedups else None,
        "wall_speedup_quartiles": speedups,
        "break_even_us_per_evaluation": break_even[1] if break_even else None,
        "break_even_us_per_evaluation_quartiles": break_even,
    }
    warm = by_name.get("characterization_warm_cache")
    if warm is not None:
        section["warm_cache_evaluations"] = \
            warm["params"]["delay_evaluations"]
    return section


def _fault_overhead(benchmarks: List[dict]) -> Dict[str, float]:
    """Per backend: projected fraction of e2e wall spent crossing
    disabled fault seams (``crossings × unit_cost / wall``)."""
    return {entry["backend"]: entry["params"]["overhead_fraction"]
            for entry in benchmarks
            if entry["name"] == "fault_seams_e2e"}


def _setup_scaling(benchmarks: List[dict]) -> Dict[str, float]:
    """Per set-up size: cold engine construction in µs per gate."""
    return {entry["name"][len("setup_"):]: entry["params"]["us_per_gate"]
            for entry in benchmarks if entry["name"].startswith("setup_")}


# -- persistence / regression gate -------------------------------------------------


def write_report(report: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(report, stream, indent=2, sort_keys=False)
        stream.write("\n")


def load_report(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as stream:
        return json.load(stream)


def compare_reports(current: dict, baseline: dict,
                    threshold: float = DEFAULT_THRESHOLD) -> List[str]:
    """Regression check: wall time vs the baseline record.

    Returns one message per benchmark whose wall time exceeds
    ``baseline * threshold``.  Benchmarks are matched by
    ``(name, backend)``; entries missing on either side are skipped
    (machines and backend availability legitimately differ).

    The parametric/static wall ratio is gated separately: unlike raw
    wall times it is machine-independent, so an in-kernel delay
    regression shows up here even when the whole run got faster.  A
    ``(circuit, backend)`` ratio (the median over timed pairs) regresses
    when it exceeds the baseline's ratio by more than ``threshold``;
    pairs absent from either record (e.g. kernel-only runs) are skipped.
    A schema-1 baseline (no ``walls``) compares as one pair per entry.
    Backends named in :data:`PARAMETRIC_RATIO_CEILING` are also held to
    that absolute ratio, baseline or not.

    ``faults_disabled_overhead`` is gated against the absolute
    :data:`FAULT_OVERHEAD_CEILING` rather than the baseline: the
    contract is "disabled fault seams cost under 1% of end-to-end
    wall", not "no slower than last time".

    ``characterization_speedups`` is likewise gated absolutely (and is
    machine-independent, so it also fires under ``--fail-ratios``):
    adaptive characterization must spend at least
    :data:`CHARZ_EVAL_RATIO_FLOOR`× fewer SPICE delay evaluations than
    the fixed grid while its worst fit error stays within
    ``max(fixed_worst × CHARZ_ERROR_FACTOR, CHARZ_ERROR_FLOOR)``, and
    the warm-cache pass must perform zero evaluations.
    """
    previous = {(entry["name"], entry["backend"]): entry["wall_seconds"]
                for entry in baseline.get("benchmarks", [])}
    regressions = []
    for entry in current.get("benchmarks", []):
        key = (entry["name"], entry["backend"])
        before = previous.get(key)
        if before is None or before <= 0:
            continue
        ratio = entry["wall_seconds"] / before
        if ratio > threshold:
            regressions.append(
                f"{entry['name']}[{entry['backend']}]: "
                f"{entry['wall_seconds']:.4f}s vs baseline {before:.4f}s "
                f"({ratio:.2f}x > {threshold:.2f}x threshold)"
            )
    for backend, fraction in _fault_overhead(
            current.get("benchmarks", [])).items():
        if fraction > FAULT_OVERHEAD_CEILING:
            regressions.append(
                f"faults_disabled_overhead[{backend}]: "
                f"{fraction:.4%} of e2e wall spent on disabled fault "
                f"seams (> {FAULT_OVERHEAD_CEILING:.0%} ceiling)"
            )
    charz = _characterization_speedups(current.get("benchmarks", []))
    if charz:
        ratio = charz.get("evaluation_ratio") or 0.0
        if ratio < CHARZ_EVAL_RATIO_FLOOR:
            regressions.append(
                f"characterization[evals]: adaptive spent only {ratio:.2f}x "
                f"fewer SPICE evaluations than the fixed grid "
                f"({charz['fixed_evaluations']} -> "
                f"{charz['adaptive_evaluations']}; "
                f"floor {CHARZ_EVAL_RATIO_FLOOR:.1f}x)"
            )
        ceiling = max(charz["fixed_worst_error"] * CHARZ_ERROR_FACTOR,
                      CHARZ_ERROR_FLOOR)
        if charz["adaptive_worst_error"] > ceiling:
            regressions.append(
                f"characterization[error]: adaptive worst fit error "
                f"{charz['adaptive_worst_error']:.4f} exceeds "
                f"{ceiling:.4f} (fixed worst "
                f"{charz['fixed_worst_error']:.4f} x {CHARZ_ERROR_FACTOR})"
            )
        if charz.get("warm_cache_evaluations"):
            regressions.append(
                f"characterization[cache]: warm-cache characterize_library "
                f"performed {charz['warm_cache_evaluations']} SPICE "
                f"evaluations (expected 0)"
            )
    baseline_ratios = _ratios(
        baseline.get("benchmarks", []))["parametric_ratios"]
    for circuit, per_backend in _ratios(
            current.get("benchmarks", []))["parametric_ratios"].items():
        for backend, ratio in per_backend.items():
            ceiling = PARAMETRIC_RATIO_CEILING.get(backend)
            if ceiling is not None and ratio > ceiling:
                regressions.append(
                    f"parametric_ratio[{circuit}/{backend}]: "
                    f"{ratio:.2f} exceeds the {ceiling:.2f} ceiling"
                )
            before = baseline_ratios.get(circuit, {}).get(backend)
            if before is None or before <= 0:
                continue
            if ratio / before > threshold:
                regressions.append(
                    f"parametric_ratio[{circuit}/{backend}]: "
                    f"{ratio:.2f} vs baseline {before:.2f} "
                    f"({ratio / before:.2f}x > {threshold:.2f}x threshold)"
                )
    return regressions


def _print_summary(report: dict, stream=None) -> None:
    stream = stream if stream is not None else sys.stdout
    print(f"recorded {len(report['benchmarks'])} benchmarks "
          f"({', '.join(sorted(report['machine']['backends']))})",
          file=stream)
    for entry in report["benchmarks"]:
        evals = entry["gate_evals_per_second"]
        rate = f"{evals / 1e6:8.2f} Meval/s" if evals else "  n/a"
        phases = entry.get("params", {}).get("phases") or {}
        breakdown = ("  [" + " ".join(f"{name} {seconds * 1e3:.1f}ms"
                                      for name, seconds in phases.items())
                     + "]") if phases else ""
        print(f"  {entry['name']:32s} {entry['backend']:6s} "
              f"{entry['wall_seconds'] * 1e3:10.3f} ms {rate}{breakdown}",
              file=stream)
    for ratio in RATIOS:
        # Both trees were filed in one order: their leaves line up.
        lines: Dict[Tuple[str, ...], List[str]] = {}
        for (path, value), (_, (q1, _, q3)) in zip(
                _leaves(report[ratio.section]),
                _leaves(report["ratio_quartiles"][ratio.section])):
            if q1 == value == q3 == 1.0:
                continue            # an entry over itself (numpy/numpy)
            lines.setdefault(path[:-1], []).append(
                f"{path[-1]} {value:.2f}x [IQR {q1:.2f}-{q3:.2f}]")
        for head, parts in lines.items():
            where = f" — {'/'.join(head)}" if head else ""
            print(f"  {ratio.title}{where}: {', '.join(parts)}", file=stream)
    charz = report.get("characterization_speedups", {})
    if charz:
        ratio = charz.get("evaluation_ratio")
        print(f"  characterization: {ratio:.2f}x fewer SPICE evals "
              f"({charz['fixed_evaluations']} -> "
              f"{charz['adaptive_evaluations']}), worst error "
              f"{charz['adaptive_worst_error']:.4f} vs fixed "
              f"{charz['fixed_worst_error']:.4f}, warm cache "
              f"{charz.get('warm_cache_evaluations', 'n/a')} evals",
              file=stream)
        break_even = charz.get("break_even_us_per_evaluation")
        if break_even is not None and charz.get("wall_speedup"):
            q1, _, q3 = charz["break_even_us_per_evaluation_quartiles"]
            print(f"  characterization: adaptive takes "
                  f"{1.0 / charz['wall_speedup']:.1f}x the fixed-grid wall; "
                  f"the evaluations saved pay for it above "
                  f"{break_even:.1f} us per SPICE evaluation "
                  f"[IQR {q1:.1f}-{q3:.1f} over "
                  f"{charz['timed_pairs']} pairs]", file=stream)
    overhead = report.get("faults_disabled_overhead", {})
    if overhead:
        text = ", ".join(f"{b} {fraction:.4%}"
                         for b, fraction in overhead.items())
        print(f"  disabled fault-seam overhead: {text} "
              f"(ceiling {FAULT_OVERHEAD_CEILING:.0%})", file=stream)
    setup = report.get("setup_scaling", {})
    if setup:
        text = ", ".join(f"{size} {us:.1f}" for size, us in setup.items())
        print(f"  cold engine construction, µs/gate: {text}", file=stream)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="record kernel/e2e benchmarks and check for regressions",
    )
    parser.add_argument("--quick", action="store_true",
                        help="smaller sizes (CI smoke)")
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help=f"record file (default {DEFAULT_OUTPUT})")
    parser.add_argument("--baseline", default=None,
                        help="baseline record to compare against "
                             "(default: the previous --output file)")
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                        help="regression factor on wall time "
                             f"(default {DEFAULT_THRESHOLD})")
    parser.add_argument("--backends", default=None,
                        help="comma-separated backend subset "
                             "(default: all available)")
    parser.add_argument("--no-e2e", action="store_true",
                        help="kernel micro-benchmarks only (no library "
                             "characterization, much faster)")
    parser.add_argument("--no-fail", action="store_true",
                        help="report regressions but exit 0 (artifact "
                             "recording on foreign machines)")
    parser.add_argument("--fail-ratios", action="store_true",
                        help="fail on parametric/static ratio and "
                             "characterization-gate regressions even with "
                             "--no-fail (both are machine-independent, so "
                             "they gate on foreign machines where raw wall "
                             "times cannot)")
    args = parser.parse_args(argv)

    backends = ([b.strip() for b in args.backends.split(",") if b.strip()]
                if args.backends else None)

    baseline = None
    baseline_path = args.baseline or (
        args.output if os.path.exists(args.output) else None)
    if baseline_path and os.path.exists(baseline_path):
        baseline = load_report(baseline_path)

    report = run_suite(quick=args.quick, backends=backends,
                       include_e2e=not args.no_e2e)
    _print_summary(report)
    write_report(report, args.output)
    print(f"wrote {args.output}")

    if baseline is not None:
        regressions = compare_reports(report, baseline, args.threshold)
        if regressions:
            print(f"{len(regressions)} regression(s) vs {baseline_path}:",
                  file=sys.stderr)
            for message in regressions:
                print(f"  {message}", file=sys.stderr)
            ratio_regressions = [
                m for m in regressions
                if m.startswith(("parametric_ratio[", "characterization["))]
            if not args.no_fail:
                return 3
            if args.fail_ratios and ratio_regressions:
                return 3
        else:
            print(f"no regressions vs {baseline_path} "
                  f"(threshold {args.threshold:.2f}x)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
