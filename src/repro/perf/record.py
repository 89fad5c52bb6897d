"""Benchmark-recording harness (``make bench`` / ``repro bench``).

Runs the two hot kernels and end-to-end circuit simulations on every
available compute backend, records per-benchmark wall time and
gate-evaluation throughput together with backend/machine metadata, and
compares against a previous record with a configurable regression
threshold.  The JSON record (``BENCH_kernels.json``) is committed to the
repository so the perf trajectory is inspectable per commit, and CI
uploads a fresh record as an artifact on every push.

Report schema (version 1)::

    {
      "schema_version": 1,
      "recorded_unix": <float>,
      "machine": {"platform": ..., "python": ..., "numpy": ...,
                  "cpu_count": ..., "backends": {name: "ok" | reason}},
      "benchmarks": [
        {"name": ..., "backend": ..., "wall_seconds": ...,
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
      "characterization_speedups": {"evaluation_ratio": ...,
                                    "warm_cache_evaluations": ..., ...},
      "faults_disabled_overhead": {backend: seam_cost_fraction_of_e2e_wall},
      "setup_scaling": {"<circuit>_x<scale>": engine_construction_us_per_gate}
    }

The low-activity scenario (``e2e_*_lowact_{sparse,dense}``) runs the
same stimulus — mostly quiet pattern pairs — once with activity pruning
and once dense; ``pruning_speedups`` records the end-to-end win of
skipping quiet lanes.

The service scenario (``service_throughput_{sequential,batched}``) runs
the same fine-grained jobs once as per-job ``GpuWaveSim.run`` calls and
once through :class:`repro.service.SimulationService` (result cache
disabled); ``service_speedups`` records the dynamic-batching win of
coalescing small jobs into one shared slot plane.

The service-scaling scenario (``service_scaling_{inproc,shardsN}``)
runs the same job stream through the in-process service and through
``ServiceConfig(shards=N)`` worker processes, whose control pipes
carry each batch's stimuli and result plane; ``service_scaling``
records the wall ratio per shard count.  Interpret it against
``machine.cpu_count``: without spare cores the ratio prices the
multi-process transport overhead rather than a parallelism win.

``parametric_ratios`` tracks the cost of voltage-adaptive
delays relative to static delays per backend — the paper's Table I
"negligible overhead" claim.  It is taken from the wide-plane pair
(``e2e_b17_wide_{static,parametric}``, :data:`RATIO_SLOTS` slots at one
supply): on the narrow e2e planes a run is ~1 ms of per-call overhead
and the Horner cost cannot show.  The gate fails when the ratio
degrades beyond the threshold against the baseline, or exceeds the
absolute :data:`PARAMETRIC_RATIO_CEILING` of its backend.

The incremental scenario (``incremental_{voltage_sweep,stimulus}_
{full,delta}``) replays near-duplicate jobs against a captured base
arena: a voltage sweep with one of 16 operating points moved, and a
stimulus perturbation flipping 1 in 32 input bits.  ``incremental_
speedups`` records wall(full re-sim) / wall(delta path, including the
``select_delta`` match) — the win of splicing the slots that match the
base exactly and simulating only the others.

The closed-loop scenario (``avfs_closed_loop_{full,delta}``) plays one
AVFS control trajectory (:class:`repro.avfs.loop.ClosedLoopRunner`,
constant droop, convergence disabled) once with full re-simulation every
iteration and once with base-arena splicing on; both trajectories are
asserted bit-identical and ``closed_loop_speedups`` records the wall
ratio — the payoff of incremental re-simulation inside a feedback loop
that keeps revisiting the settled operating point.

The characterization scenario (``characterization_{fixed,adaptive,
warm_cache}``) characterizes the cell library once on the fixed 12×9
SPICE grid, once with the error-driven adaptive sampler, and once
against a warm coefficient cache.  ``characterization_speedups``
records the SPICE-evaluation ratio, the worst fit error of both flows
against the fixed grid's bilinear reference (the Fig. 4/5 yardstick),
the warm-cache evaluation count, and the wall account: ``wall_speedup``
(fixed wall / adaptive wall, below 1 against the analytical stand-in)
and ``break_even_us_per_evaluation`` — the SPICE cost per evaluation
above which the evaluations saved pay for the extra fitting — each the
median over alternating timed pairs, with its quartiles.  Three of
its gates are absolute and machine-independent (like the fault-seam
gate): the adaptive flow must spend at least
:data:`CHARZ_EVAL_RATIO_FLOOR`× fewer evaluations, keep
its worst error within ``max(fixed × CHARZ_ERROR_FACTOR,
CHARZ_ERROR_FLOOR)``, and the warm-cache pass must perform **zero**
SPICE evaluations.

The fault-seam scenario (``fault_seams_e2e``) prices a single crossing
of the *disabled* ``repro.faults.trip`` path, counts how many crossings
one end-to-end run performs, and records the projected fraction of wall
time in ``faults_disabled_overhead`` — the proof that leaving the
fault-injection seams compiled into production paths is free.  Unlike
the wall-time gates this one is absolute: the gate fails when any
backend's fraction exceeds :data:`FAULT_OVERHEAD_CEILING`.

The set-up scenario (``setup_<circuit>_x<scale>``) times a cold
``GpuWaveSim(circuit, library)`` — validation, load extraction, nominal
annotation and compilation of a circuit no cache has seen — at the four
sizes of :data:`SETUP_SIZES`; ``setup_scaling`` records it in µs per
gate, the number to hold against the paper's "set-up stays in seconds"
at 1 M nodes (EXPERIMENTS.md, "Setup/runtime notes").

Wall times are best-of-N (minimum over repeats) — the standard way to
suppress scheduler noise in micro-benchmarks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from typing import Dict, List, Optional, Sequence

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

SCHEMA_VERSION = 1
DEFAULT_OUTPUT = "BENCH_kernels.json"

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
#: service and through ``shards=N`` worker processes.  Queue depth 1
#: forces the router to spill the single hot compatibility group across
#: every shard, so the number measures multi-process scaling (plus the
#: pipe transport overhead), not consistent-hash placement.
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
#: Alternating fixed/adaptive timed pairs behind the characterization
#: wall ratios (after one warm-up of each flow): one best-of wall per
#: flow read 5.0, 3.06 and 6.34 us of break-even on unchanged code.
CHARZ_PAIRS = 5
CHARZ_PAIRS_QUICK = 3
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


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _entry(name: str, backend: str, wall: float, evals: float,
           **params) -> dict:
    return {
        "name": name,
        "backend": backend,
        "wall_seconds": wall,
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
                       repeats: int = 5) -> dict:
    """``waveform_merge_kernel`` throughput: one 2-input thread group."""
    backend = resolve_backend(backend_name)
    times, initial, delays, tables = _merge_workload(lanes)
    out_capacity = 32

    def call():
        backend.merge_kernel(times, initial, delays, tables, out_capacity)

    call()  # warm-up (JIT compilation, cache effects)
    wall = _best_of(call, repeats)
    return _entry("waveform_merge_kernel", backend.name, wall, lanes,
                  lanes=lanes, capacity=out_capacity)


def bench_delay_kernel(backend_name: str, kernel_table, gates: int,
                       repeats: int = 5) -> dict:
    """Online delay calculation: ``gates`` gates × 8 voltages."""
    backend = resolve_backend(backend_name)
    rng = np.random.default_rng(5)
    type_ids = rng.integers(0, kernel_table.num_types, size=gates)
    loads = rng.uniform(1e-15, 1e-13, size=gates)
    nominal = rng.uniform(1e-12, 2e-11,
                          size=(gates, kernel_table.max_pins, 2))
    voltages = np.linspace(0.55, 1.1, 8)

    def call():
        backend.delays_for_gates(kernel_table, type_ids, loads, nominal,
                                 voltages)

    call()
    wall = _best_of(call, repeats)
    return _entry("delays_for_gates", backend.name, wall,
                  gates * voltages.size, gates=gates,
                  voltages=int(voltages.size), impl=backend.delays_impl)


# -- end-to-end --------------------------------------------------------------------


def bench_end_to_end(backend_name: str, circuit_name: str, scale: float,
                     num_patterns: int, parametric: bool,
                     repeats: int = 2) -> dict:
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
    results = []

    def call():
        results.append(sim.run(pairs, kernel_table=kernel_table))

    call()
    wall = _best_of(call, repeats)
    evals = results[-1].gate_evaluations
    mode = "parametric" if parametric else "static"
    phases = {name: round(seconds, 6) for name, seconds
              in sim.last_stats.phase_seconds().items()}
    return _entry(f"e2e_{circuit_name}_{mode}", sim.backend.name, wall, evals,
                  circuit=circuit_name, scale=scale, patterns=len(pairs),
                  slots=len(pairs), gate_evaluations=int(evals),
                  phases=phases)


def bench_parametric_plane(backend_name: str, repeats: int = 5) -> List[dict]:
    """Static and parametric runs of one wide single-supply plane (two
    entries, ``e2e_<circuit>_wide_{static,parametric}``).

    The two modes alternate inside the repeat loop, so machine drift
    hits both sides of the ratio alike.
    """
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
    walls = {mode: float("inf") for mode in tables}
    evals = 0
    for attempt in range(repeats + 1):          # attempt 0 warms up
        for mode, kernel_table in tables.items():
            start = time.perf_counter()
            evals = sim.run(pairs, plan=plan,
                            kernel_table=kernel_table).gate_evaluations
            if attempt:
                walls[mode] = min(walls[mode], time.perf_counter() - start)
    return [_entry(f"e2e_{RATIO_CIRCUIT}_wide_{mode}", sim.backend.name,
                   wall, evals, circuit=RATIO_CIRCUIT, scale=E2E_SCALE,
                   patterns=len(pairs), slots=plan.num_slots,
                   gate_evaluations=int(evals))
            for mode, wall in walls.items()]


def bench_incremental_resim(backend_name: str, circuit_name: str,
                            scale: float, num_patterns: int,
                            repeats: int = 2) -> List[dict]:
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

        full_sim = GpuWaveSim(workload.circuit, library,
                              compiled=workload.compiled,
                              config=SimulationConfig(backend=backend_name))
        full_results = []

        def full_call():
            full_results.append(full_sim.run(job_pairs, plan=job_plan,
                                             kernel_table=kernel_table))

        full_call()
        full_wall = _best_of(full_call, repeats)
        full_evals = full_results[-1].gate_evaluations
        entries.append(_entry(
            f"{label}_full", full_sim.backend.name, full_wall, full_evals,
            circuit=circuit_name, scale=scale, patterns=len(pairs),
            voltages=points, gate_evaluations=int(full_evals)))

        delta_sim = GpuWaveSim(workload.circuit, library,
                               compiled=workload.compiled,
                               config=SimulationConfig(backend=backend_name))
        delta_results = []

        def delta_call():
            selected = select_delta([arena], jv1, jv2,
                                    job_plan.pattern_indices,
                                    job_plan.voltages, None, None, 0.5)
            assert selected is not None
            delta_results.append(delta_sim.run(job_pairs, plan=job_plan,
                                               kernel_table=kernel_table,
                                               delta=selected[0]))

        delta_call()
        delta_wall = _best_of(delta_call, repeats)
        stats = delta_sim.last_stats
        evals = delta_results[-1].gate_evaluations
        entries.append(_entry(
            f"{label}_delta", delta_sim.backend.name, delta_wall, evals,
            circuit=circuit_name, scale=scale, patterns=len(pairs),
            voltages=points, gate_evaluations=int(evals),
            delta_fraction=round(stats.delta_fraction, 6),
            lanes_spliced=int(stats.lanes_spliced),
            bytes_spliced=int(stats.bytes_spliced)))
    return entries


def bench_closed_loop(backend_name: str, circuit_name: str, scale: float,
                      num_patterns: int, iterations: int,
                      repeats: int = 2) -> List[dict]:
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

    entries = []
    trajectories = {}
    for mode, use_delta in (("full", False), ("delta", True)):
        config = LoopConfig(period=period, max_iterations=iterations,
                            settle_iterations=iterations + 1,
                            use_delta=use_delta, record_energy=False)
        results = []

        def call():
            runner = ClosedLoopRunner(
                workload.circuit, library, kernel_table,
                AvfsController(table), config,
                disturbances=disturbances, simulator=sim)
            results.append(runner.run(pairs))

        call()
        wall = _best_of(call, repeats)
        report = results[-1]
        trajectories[mode] = report
        entries.append(_entry(
            f"avfs_closed_loop_{mode}", sim.backend.name, wall,
            report.run_report.gate_evaluations,
            circuit=circuit_name, scale=scale, patterns=len(pairs),
            iterations=report.num_iterations,
            delta_reuse=round(report.delta_reuse_fraction, 6),
            lanes_spliced=int(report.run_report.lanes_spliced),
            converged_at=report.converged_at))
    full_arrivals = [s.raw_arrival for s in trajectories["full"].steps]
    delta_arrivals = [s.raw_arrival for s in trajectories["delta"].steps]
    assert full_arrivals == delta_arrivals, \
        "closed-loop delta trajectory diverged from full re-simulation"
    return entries


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
                       num_patterns: int, repeats: int = 2) -> List[dict]:
    """Sparse-vs-dense pair on a mostly-quiet stimulus (two entries)."""
    from repro.experiments.common import default_library
    from repro.experiments.workload import prepare_workload
    from repro.simulation.base import SimulationConfig
    from repro.simulation.gpu import GpuWaveSim

    workload = prepare_workload(circuit_name, scale=scale)
    library = default_library()
    pairs = _low_activity_pairs(workload.patterns.pairs, num_patterns)
    entries = []
    for prune in (True, False):
        sim = GpuWaveSim(workload.circuit, library,
                         compiled=workload.compiled,
                         config=SimulationConfig(backend=backend_name,
                                                 prune_inactive=prune))
        results = []

        def call():
            results.append(sim.run(pairs))

        call()
        wall = _best_of(call, repeats)
        evals = results[-1].gate_evaluations
        stats = sim.last_stats
        mode = "sparse" if prune else "dense"
        entries.append(_entry(
            f"e2e_{circuit_name}_lowact_{mode}", sim.backend.name, wall,
            evals, circuit=circuit_name, scale=scale, patterns=len(pairs),
            gate_evaluations=int(evals),
            lanes_skipped=int(stats.lanes_skipped),
            active_fraction=round(stats.active_fraction, 4)))
    return entries


def bench_service_throughput(backend_name: str, num_jobs: int,
                             repeats: int = 2) -> List[dict]:
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
    evals: List[int] = []

    def sequential():
        evals.append(sum(sim.run(pairs).gate_evaluations for pairs in jobs))

    sequential()
    wall_seq = _best_of(sequential, repeats)

    total_slots = num_jobs * SERVICE_SLOTS_PER_JOB
    service_config = ServiceConfig(max_batch_slots=total_slots,
                                   max_wait_ms=100.0, idle_ms=20.0,
                                   cache_entries=0)
    coalesce: List[float] = []

    def batched():
        with SimulationService(config=service_config) as service:
            key = service.register_circuit(workload.circuit, library,
                                           compiled=workload.compiled)
            handles = [service.submit(key, pairs, config=config)
                       for pairs in jobs]
            evals.append(sum(handle.result().gate_evaluations
                             for handle in handles))
            coalesce.append(service.metrics().coalesce_factor)

    batched()
    wall_bat = _best_of(batched, repeats)

    params = dict(circuit=SERVICE_CIRCUIT, scale=E2E_SCALE, jobs=num_jobs,
                  slots_per_job=SERVICE_SLOTS_PER_JOB)
    return [
        _entry("service_throughput_sequential", sim.backend.name, wall_seq,
               evals[0], **params),
        _entry("service_throughput_batched", sim.backend.name, wall_bat,
               evals[-1], coalesce_factor=round(coalesce[-1], 2), **params),
    ]


def bench_service_scaling(backend_name: str, num_jobs: int,
                          shard_counts: Sequence[int],
                          repeats: int = 2) -> List[dict]:
    """In-process vs multi-process-sharded service on one job stream.

    The same ``num_jobs`` fine-grained jobs run once through the
    in-process service (``shards=0``, the supervised thread pool) and
    once per entry of ``shard_counts`` through the multi-process shard
    router, whose control pipes carry each batch's stimuli out and its
    packed result plane back.  Process spawn and circuit registration
    happen outside the timed region — the number is steady-state
    dispatch throughput.  ``shard_queue_depth=1`` makes the single hot
    compatibility group spill across every shard, so all worker
    processes participate.

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

    def measure(service_config: ServiceConfig) -> tuple:
        with SimulationService(config=service_config) as service:
            key = service.register_circuit(workload.circuit, library,
                                           compiled=workload.compiled)
            evals: List[int] = []

            def run_stream():
                handles = [service.submit(key, pairs, config=config)
                           for pairs in jobs]
                evals.append(sum(handle.result(timeout=300).gate_evaluations
                                 for handle in handles))

            run_stream()  # warm-up: shard engines, arenas, plan caches
            wall = _best_of(run_stream, repeats)
            metrics = service.metrics()
        return wall, evals, metrics

    entries = []
    params = dict(circuit=SERVICE_CIRCUIT, scale=E2E_SCALE, jobs=num_jobs,
                  slots_per_job=SERVICE_SLOTS_PER_JOB,
                  cpu_count=os.cpu_count())
    wall, inproc_evals, _ = measure(ServiceConfig(**batching))
    entries.append(_entry("service_scaling_inproc", backend, wall,
                          inproc_evals[-1], shards=0, **params))
    for shards in shard_counts:
        wall, evals, metrics = measure(
            ServiceConfig(shards=shards, shard_queue_depth=1, **batching))
        if evals != inproc_evals:
            raise RuntimeError(
                f"service_scaling: {shards} shard(s) evaluated {evals} "
                f"gates per pass, in-process {inproc_evals}")
        entries.append(_entry(
            f"service_scaling_shards{shards}", backend, wall, evals[-1],
            shards=shards, rebalances=metrics.shard_rebalances,
            ipc_tx_bytes=metrics.ipc_tx_bytes,
            ipc_rx_bytes=metrics.ipc_rx_bytes, **params))
    return entries


def bench_fault_seams(backend_name: str, num_patterns: int,
                      spins: int = FAULT_SEAM_SPINS,
                      repeats: int = 2) -> dict:
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

    spin()
    per_call = _best_of(spin, repeats) / spins

    workload = prepare_workload(SERVICE_CIRCUIT, scale=E2E_SCALE)
    library = default_library()
    pairs = workload.patterns.pairs[:num_patterns]
    sim = GpuWaveSim(workload.circuit, library, compiled=workload.compiled,
                     config=SimulationConfig(backend=backend_name))
    results = []

    def call():
        results.append(sim.run(pairs))

    call()
    wall = _best_of(call, repeats)
    evals = results[-1].gate_evaluations

    with faults.injected(faults.FaultPlan()) as plan:
        sim.run(pairs)
        crossings = plan.calls()

    overhead = crossings * per_call / wall if wall > 0 else 0.0
    return _entry(
        "fault_seams_e2e", sim.backend.name, wall, evals,
        circuit=SERVICE_CIRCUIT, scale=E2E_SCALE, patterns=len(pairs),
        seam_spins=spins, seam_call_ns=round(per_call * 1e9, 3),
        seam_crossings=int(crossings),
        overhead_fraction=overhead)


def bench_characterization(quick: bool = False) -> List[dict]:
    """Fixed-grid vs adaptive vs warm-cache characterization.

    Three entries, all backend-independent (``backend="numpy"`` — the
    SPICE stand-in is pure NumPy): the full library on the fixed 12×9
    grid, the same library through the error-driven adaptive sampler,
    and a repeat adaptive run against a pre-warmed coefficient cache.
    The two flows are warmed up once each and then timed as
    :data:`CHARZ_PAIRS` alternating pairs (:data:`CHARZ_PAIRS_QUICK`
    with ``quick``), the flow that runs first flipping every pair; each
    entry's wall is the median of its pair walls, which its params
    carry (``pair_walls``) for the per-pair ratios.  Each entry's params
    carry the SPICE ``delay_evaluations`` it performed; the
    fixed/adaptive entries also carry their worst fit error against the
    fixed grid's bilinear reference on a :data:`CHARZ_PARITY_GRID`²
    probe — the Fig. 4/5 accuracy metric that :func:`compare_reports`
    gates.
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

    def run(adaptive):
        spice = AnalyticalSpice()
        start = time.perf_counter()
        result = characterize_library(library, spice, adaptive=adaptive)
        return time.perf_counter() - start, result, spice.delay_evaluations

    # The warm-ups are the results; the timed runs repeat them.
    _, fixed, fixed_evals = run(None)
    _, adaptive, adaptive_evals = run(config)
    flows = [("fixed", None), ("adaptive", config)]
    walls: Dict[str, List[float]] = {"fixed": [], "adaptive": []}
    for pair in range(CHARZ_PAIRS_QUICK if quick else CHARZ_PAIRS):
        for name, flow in (flows if pair % 2 == 0 else flows[::-1]):
            walls[name].append(run(flow)[0])
    fixed_wall = statistics.median(walls["fixed"])
    adaptive_wall = statistics.median(walls["adaptive"])

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

    with tempfile.TemporaryDirectory() as tmp:
        cache = CoefficientCache(tmp)
        characterize_library(library, AnalyticalSpice(), adaptive=config,
                             cache=cache)
        CoefficientCache.clear_memo()  # warm run must come from disk
        warm_spice = AnalyticalSpice()
        start = time.perf_counter()
        characterize_library(library, warm_spice, adaptive=config,
                             cache=cache)
        warm_wall = time.perf_counter() - start
        warm_evals = warm_spice.delay_evaluations

    return [
        _entry("characterization_fixed", "numpy", fixed_wall, fixed_evals,
               delay_evaluations=fixed_evals, worst_error=fixed_worst,
               pair_walls=walls["fixed"], **common),
        _entry("characterization_adaptive", "numpy", adaptive_wall,
               adaptive_evals, delay_evaluations=adaptive_evals,
               worst_error=adaptive_worst, target_error=config.target_error,
               budget=config.budget, pair_walls=walls["adaptive"], **common),
        _entry("characterization_warm_cache", "numpy", warm_wall, warm_evals,
               delay_evaluations=warm_evals, **common),
    ]


def bench_setup_scaling(sizes=SETUP_SIZES, repeats: int = 3) -> List[dict]:
    """Cold engine construction per circuit size.

    One entry per ``(circuit, scale)``: the wall of
    ``GpuWaveSim(circuit, library)`` on a freshly generated circuit (a
    ``Circuit`` keeps its levels and wiring once derived, so every
    repeat builds its own outside the clock).  Nothing here depends on
    the compute backend (``backend="numpy"``, as for characterization).
    """
    from repro.experiments.common import default_library
    from repro.netlist.suite import build_suite_circuit
    from repro.simulation.gpu import GpuWaveSim

    library = default_library()
    entries = []
    for circuit_name, scale in sizes:
        wall = float("inf")
        for _ in range(repeats):
            circuit = build_suite_circuit(circuit_name, scale=scale)
            start = time.perf_counter()
            GpuWaveSim(circuit, library)
            wall = min(wall, time.perf_counter() - start)
        entries.append(_entry(
            f"setup_{circuit_name}_x{scale:g}", "numpy", wall,
            circuit.num_gates, circuit=circuit_name, scale=scale,
            gates=circuit.num_gates,
            us_per_gate=1e6 * wall / circuit.num_gates))
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
        benchmarks.append(bench_merge_kernel(name, lanes))

    gates = DELAY_GATES_QUICK if quick else DELAY_GATES
    kernel_table = None
    if include_e2e:
        from repro.experiments.common import default_kernel_table
        kernel_table = default_kernel_table(3)
        for name in chosen:
            benchmarks.append(bench_delay_kernel(name, kernel_table, gates))

        circuits = E2E_CIRCUITS_QUICK if quick else E2E_CIRCUITS
        patterns = E2E_PATTERNS_QUICK if quick else E2E_PATTERNS
        for circuit in circuits:
            for parametric in (False, True):
                for name in chosen:
                    benchmarks.append(bench_end_to_end(
                        name, circuit, E2E_SCALE, patterns, parametric))

        for name in chosen:
            benchmarks.extend(bench_parametric_plane(name))

        incr_patterns = INCR_PATTERNS_QUICK if quick else INCR_PATTERNS
        for name in chosen:
            benchmarks.extend(bench_incremental_resim(
                name, INCR_CIRCUIT, INCR_SCALE, incr_patterns))

        loop_patterns = LOOP_PATTERNS_QUICK if quick else LOOP_PATTERNS
        loop_iterations = (LOOP_ITERATIONS_QUICK if quick
                           else LOOP_ITERATIONS)
        for name in chosen:
            benchmarks.extend(bench_closed_loop(
                name, LOOP_CIRCUIT, LOOP_SCALE, loop_patterns,
                loop_iterations))

        lowact = LOWACT_PATTERNS_QUICK if quick else LOWACT_PATTERNS
        for circuit in circuits:
            for name in chosen:
                benchmarks.extend(bench_low_activity(
                    name, circuit, LOWACT_SCALE, lowact))

        service_jobs = SERVICE_JOBS_QUICK if quick else SERVICE_JOBS
        for name in chosen:
            benchmarks.extend(bench_service_throughput(name, service_jobs))

        scaling_jobs = SCALING_JOBS_QUICK if quick else SCALING_JOBS
        scaling_shards = SCALING_SHARDS_QUICK if quick else SCALING_SHARDS
        for name in chosen:
            benchmarks.extend(bench_service_scaling(name, scaling_jobs,
                                                    scaling_shards))

        seam_spins = FAULT_SEAM_SPINS_QUICK if quick else FAULT_SEAM_SPINS
        for name in chosen:
            benchmarks.append(bench_fault_seams(name, patterns,
                                                spins=seam_spins))

        # Backend-independent (pure-NumPy SPICE stand-in): run once.
        benchmarks.extend(bench_characterization(quick=quick))
        benchmarks.extend(bench_setup_scaling(
            SETUP_SIZES_QUICK if quick else SETUP_SIZES))

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
        "speedups": _speedups(benchmarks),
        "pruning_speedups": _pruning_speedups(benchmarks),
        "service_speedups": _service_speedups(benchmarks),
        "service_scaling": _service_scaling(benchmarks),
        "incremental_speedups": _incremental_speedups(benchmarks),
        "closed_loop_speedups": _closed_loop_speedups(benchmarks),
        "parametric_ratios": _parametric_ratios(benchmarks),
        "characterization_speedups": _characterization_speedups(benchmarks),
        "faults_disabled_overhead": _fault_overhead(benchmarks),
        "setup_scaling": _setup_scaling(benchmarks),
    }


def _speedups(benchmarks: List[dict]) -> Dict[str, Dict[str, float]]:
    """Per benchmark name: wall(numpy) / wall(backend)."""
    by_name: Dict[str, Dict[str, float]] = {}
    for entry in benchmarks:
        by_name.setdefault(entry["name"], {})[entry["backend"]] = \
            entry["wall_seconds"]
    speedups: Dict[str, Dict[str, float]] = {}
    for name, walls in by_name.items():
        base = walls.get("numpy")
        if base is None:
            continue
        speedups[name] = {backend: base / wall
                          for backend, wall in walls.items() if wall > 0}
    return speedups


def _pruning_speedups(benchmarks: List[dict]) -> Dict[str, Dict[str, float]]:
    """Per low-activity scenario: wall(dense) / wall(sparse), by backend."""
    walls: Dict[str, Dict[str, Dict[str, float]]] = {}
    for entry in benchmarks:
        name = entry["name"]
        for suffix in ("_sparse", "_dense"):
            if name.endswith(suffix):
                scenario = name[:-len(suffix)]
                walls.setdefault(scenario, {}).setdefault(
                    entry["backend"], {})[suffix[1:]] = entry["wall_seconds"]
    speedups: Dict[str, Dict[str, float]] = {}
    for scenario, per_backend in walls.items():
        for backend, pair in per_backend.items():
            if "sparse" in pair and "dense" in pair and pair["sparse"] > 0:
                speedups.setdefault(scenario, {})[backend] = \
                    pair["dense"] / pair["sparse"]
    return speedups


def _incremental_speedups(benchmarks: List[dict]
                          ) -> Dict[str, Dict[str, float]]:
    """Per incremental scenario: wall(full re-sim) / wall(delta)."""
    walls: Dict[str, Dict[str, Dict[str, float]]] = {}
    for entry in benchmarks:
        name = entry["name"]
        if not name.startswith("incremental_"):
            continue
        for suffix in ("_full", "_delta"):
            if name.endswith(suffix):
                scenario = name[:-len(suffix)]
                walls.setdefault(scenario, {}).setdefault(
                    entry["backend"], {})[suffix[1:]] = entry["wall_seconds"]
    speedups: Dict[str, Dict[str, float]] = {}
    for scenario, per_backend in walls.items():
        for backend, pair in per_backend.items():
            if "full" in pair and "delta" in pair and pair["delta"] > 0:
                speedups.setdefault(scenario, {})[backend] = \
                    pair["full"] / pair["delta"]
    return speedups


def _closed_loop_speedups(benchmarks: List[dict]) -> Dict[str, float]:
    """Per backend: wall(full re-sim loop) / wall(delta-splicing loop)."""
    walls: Dict[str, Dict[str, float]] = {}
    for entry in benchmarks:
        for mode in ("full", "delta"):
            if entry["name"] == f"avfs_closed_loop_{mode}":
                walls.setdefault(entry["backend"], {})[mode] = \
                    entry["wall_seconds"]
    return {backend: pair["full"] / pair["delta"]
            for backend, pair in walls.items()
            if "full" in pair and "delta" in pair and pair["delta"] > 0}


def _parametric_ratios(benchmarks: List[dict]) -> Dict[str, Dict[str, float]]:
    """Per circuit: wall(parametric e2e) / wall(static e2e), by backend.

    The overhead of voltage-adaptive delay evaluation relative to a
    fixed-delay run of the same circuit — the quantity in-kernel
    Horner scaling is meant to push toward 1.0.  Entries that record a
    plane narrower than :data:`RATIO_SLOTS` are left out: their wall is
    per-call overhead, which both modes share.
    """
    walls: Dict[str, Dict[str, Dict[str, float]]] = {}
    for entry in benchmarks:
        name = entry["name"]
        if entry.get("params", {}).get("slots", RATIO_SLOTS) < RATIO_SLOTS:
            continue
        for suffix in ("_parametric", "_static"):
            if name.startswith("e2e_") and name.endswith(suffix) \
                    and "_lowact_" not in name:
                circuit = name[len("e2e_"):-len(suffix)]
                walls.setdefault(circuit, {}).setdefault(
                    entry["backend"], {})[suffix[1:]] = entry["wall_seconds"]
    ratios: Dict[str, Dict[str, float]] = {}
    for circuit, per_backend in walls.items():
        for backend, pair in per_backend.items():
            if "parametric" in pair and "static" in pair \
                    and pair["static"] > 0:
                ratios.setdefault(circuit, {})[backend] = \
                    pair["parametric"] / pair["static"]
    return ratios


def _quartiles(values: List[float]) -> Optional[List[float]]:
    """``[q1, median, q3]`` of ``values`` (inclusive method); None if empty."""
    if len(values) < 2:
        return [values[0]] * 3 if values else None
    return list(statistics.quantiles(values, n=4, method="inclusive"))


def _characterization_speedups(benchmarks: List[dict]) -> dict:
    """Adaptive-vs-fixed characterization: evaluations, parity, cache, walls.

    The wall ratios are taken per timed pair (``pair_walls``; a record
    without them is one pair of its two walls): ``wall_speedup`` and
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
    pairs = list(zip(fixed["params"].get("pair_walls", [fixed["wall_seconds"]]),
                     adaptive["params"].get("pair_walls", [adaptive["wall_seconds"]])))
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


def _service_speedups(benchmarks: List[dict]) -> Dict[str, float]:
    """Per backend: wall(sequential per-job runs) / wall(batched service)."""
    walls: Dict[str, Dict[str, float]] = {}
    for entry in benchmarks:
        for mode in ("sequential", "batched"):
            if entry["name"] == f"service_throughput_{mode}":
                walls.setdefault(entry["backend"], {})[mode] = \
                    entry["wall_seconds"]
    return {backend: pair["sequential"] / pair["batched"]
            for backend, pair in walls.items()
            if "sequential" in pair and "batched" in pair
            and pair["batched"] > 0}


def _service_scaling(benchmarks: List[dict]) -> Dict[str, Dict[str, float]]:
    """Per backend: wall(in-process) / wall(shards=N), keyed by N.

    A ratio above 1.0 means the sharded service beat the in-process one
    on this machine; below 1.0 it prices the multi-process transport
    overhead (expected whenever ``machine.cpu_count`` leaves no spare
    cores for the shards to use).
    """
    inproc: Dict[str, float] = {}
    sharded: Dict[str, Dict[str, float]] = {}
    for entry in benchmarks:
        name = entry["name"]
        if name == "service_scaling_inproc":
            inproc[entry["backend"]] = entry["wall_seconds"]
        elif name.startswith("service_scaling_shards"):
            shards = str(entry["params"]["shards"])
            sharded.setdefault(entry["backend"], {})[shards] = \
                entry["wall_seconds"]
    ratios: Dict[str, Dict[str, float]] = {}
    for backend, walls in sharded.items():
        base = inproc.get(backend)
        if base is None:
            continue
        ratios[backend] = {shards: base / wall
                           for shards, wall in walls.items() if wall > 0}
    return ratios


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
    ``(circuit, backend)`` ratio regresses when it exceeds the
    baseline's ratio by more than ``threshold``; pairs absent from
    either record (e.g. kernel-only runs) are skipped.  Backends named
    in :data:`PARAMETRIC_RATIO_CEILING` are also held to that absolute
    ratio, baseline or not.

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
    baseline_ratios = _parametric_ratios(baseline.get("benchmarks", []))
    for circuit, per_backend in _parametric_ratios(
            current.get("benchmarks", [])).items():
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
    for name, ratios in report.get("speedups", {}).items():
        interesting = {b: r for b, r in ratios.items() if b != "numpy"}
        if interesting:
            text = ", ".join(f"{b} {r:.2f}x" for b, r in interesting.items())
            print(f"  speedup over numpy — {name}: {text}", file=stream)
    for name, ratios in report.get("pruning_speedups", {}).items():
        text = ", ".join(f"{b} {r:.2f}x" for b, r in ratios.items())
        print(f"  pruning speedup — {name}: {text}", file=stream)
    service = report.get("service_speedups", {})
    if service:
        text = ", ".join(f"{b} {r:.2f}x" for b, r in service.items())
        print(f"  service batching speedup: {text}", file=stream)
    scaling = report.get("service_scaling", {})
    if scaling:
        cores = report.get("machine", {}).get("cpu_count")
        for backend, ratios in scaling.items():
            text = ", ".join(f"{shards} shards {ratio:.2f}x"
                             for shards, ratio in sorted(
                                 ratios.items(), key=lambda kv: int(kv[0])))
            print(f"  service sharding speedup [{backend}] "
                  f"({cores} cpu): {text}", file=stream)
    for name, ratios in report.get("incremental_speedups", {}).items():
        text = ", ".join(f"{b} {r:.2f}x" for b, r in ratios.items())
        print(f"  incremental re-sim speedup — {name}: {text}", file=stream)
    closed_loop = report.get("closed_loop_speedups", {})
    if closed_loop:
        text = ", ".join(f"{b} {r:.2f}x" for b, r in closed_loop.items())
        print(f"  closed-loop delta speedup: {text}", file=stream)
    for circuit, ratios in report.get("parametric_ratios", {}).items():
        text = ", ".join(f"{b} {r:.2f}x" for b, r in ratios.items())
        print(f"  parametric/static ratio — {circuit}: {text}", file=stream)
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
            spread = charz.get("break_even_us_per_evaluation_quartiles") \
                or [break_even] * 3
            print(f"  characterization: adaptive takes "
                  f"{1.0 / charz['wall_speedup']:.1f}x the fixed-grid wall; "
                  f"the evaluations saved pay for it above "
                  f"{break_even:.1f} us per SPICE evaluation "
                  f"[IQR {spread[0]:.1f}-{spread[2]:.1f} over "
                  f"{charz.get('timed_pairs', 1)} pairs]", file=stream)
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
