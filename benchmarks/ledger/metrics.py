"""Declarative tables of the ledger: workloads, end-to-end and per-layer metrics.

Everything that names a workload or a metric lives here, so ``run.py``,
``compare.py``, ``test_ledger.py``, ``README.md`` and the root
``BENCHMARK.json`` agree by construction (the test regenerates
``BENCHMARK.json`` from these tables and compares).

Two end-to-end groups exist because the driver contract and the issue
pull in different directions:

* :data:`UNIVERSAL` are defined on **every** workload and are never
  zero — the driver requires each run to print every ``end_to_end``
  metric of ``BENCHMARK.json``, so only these are listed there.  A
  *job* is the unit a user submits and waits for (see ``JOB_UNIT``).
* :data:`NAMED` are defined on some workloads only, or may be zero:
  the paper-facing throughput names (``meps``, ``iters_per_s``,
  ``cells_per_s``: the workload's ``jobs_per_s`` times a constant),
  the service's tail latency (three times the median in a slow minute
  of the reference box, so not something a fixed bound can gate) and
  ``failed_frac`` (the driver's ``failed / attempted``).  They appear
  in the ledger's own result JSON and in ``compare``.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

WORKLOADS: Dict[str, str] = {
    "sweep_dense": (
        "Paper Table I/II regime: every lane toggles, so merge kernel, in-kernel "
        "Horner delay and waveform unpack do the work; service, cache and delta do none."),
    "sweep_lowact": (
        "Same engine, 1 pair in 8 toggles: lane tracking, truth-table settle and "
        "memory-budget batching replace kernel work, so mask-bookkeeping costs show here."),
    "service_stream": (
        "Closed loop of small jobs with repeats and near-duplicates: fingerprinting, "
        "admission, batcher, demux, result cache and base ring dominate, the kernel does little."),
    "avfs_loop": (
        "Closed AVFS loop under droop and drift: base-arena capture beside select_delta "
        "and splice, engine pool, activity/arrival extraction and controller share the time."),
    "charz_cold": (
        "Offline adaptive characterization of the full library with a cold cache: the "
        "fit/probe loop dominates and no simulation layer runs, so engine changes must not move it."),
}

#: What one *job* is on each workload (the unit of ``jobs_per_s`` and
#: ``job_latency_ms_*``).
JOB_UNIT: Dict[str, str] = {
    "sweep_dense": "one slot-plane sweep: GpuWaveSim.run + latest_arrivals",
    "sweep_lowact": "one slot-plane sweep: GpuWaveSim.run + latest_arrivals",
    "service_stream": "one service job: submit() call to return of result()",
    "avfs_loop": "one 48-iteration closed-loop trajectory: fresh ClosedLoopRunner + run",
    "charz_cold": "one library characterization: characterize_library + compile",
}

ALL = tuple(WORKLOADS)


class EndToEnd(NamedTuple):
    unit: str
    better: str
    bound: float
    workloads: Tuple[str, ...]
    what: str


#: End-to-end times are in *reference seconds* (``harness.Calibration``).
#: Bounds of the universal metrics are sized to the reference box, not to
#: the issue's wish (0.10 / 0.10 / 0.05): the box has slow minutes in
#: which identical memory-bound Python work takes 30-40 % longer, and the
#: driver refuses a benchmark whose run-to-run spread exceeds a bound.
#: Ten runs on ten seeds spread 0.05-0.16 on jobs_per_s after calibration
#: (0.09-0.28 before) and 0.06 on peak_rss_mb (service_stream, where batch
#: timing sizes the arenas).
UNIVERSAL: Dict[str, EndToEnd] = {
    "setup_s": EndToEnd(
        "s", "lower", 0.25, ALL,
        "imports + median of repeated from-scratch set-ups (library, cold fixed-grid "
        "characterization, table compile, circuit build/compile, patterns, engine or "
        "V-f table); excludes the backend .so build and warm-up ops"),
    "jobs_per_s": EndToEnd(
        "1/s", "higher", 0.25, ALL,
        "jobs per reference second: median over ops (repetitions on service_stream)"),
    "job_latency_ms_p50": EndToEnd(
        "ms", "lower", 0.25, ALL,
        "median job latency, pooled over every timed job of the run"),
    "peak_rss_mb": EndToEnd(
        "MB", "lower", 0.15, ALL, "ru_maxrss of the workload's interpreter"),
}

NAMED: Dict[str, EndToEnd] = {
    "meps": EndToEnd(
        "1e6/s", "higher", 0.10, ("sweep_dense", "sweep_lowact", "avfs_loop"),
        "paper's MEPS: logical nodes x slots (x iterations) per reference second "
        "(host_value: per host second); pruned and spliced lanes count as done"),
    "iters_per_s": EndToEnd(
        "1/s", "higher", 0.10, ("avfs_loop",), "control iterations per reference second"),
    "cells_per_s": EndToEnd(
        "1/s", "higher", 0.10, ("charz_cold",), "library cells characterized per reference second"),
    "job_latency_ms_p95": EndToEnd(
        "ms", "lower", 0.15, ("service_stream",),
        "95th percentile job latency, pooled over every timed job; a failed or refused "
        "job is charged the whole repetition"),
    "failed_frac": EndToEnd(
        "fraction", "lower", 0.0, ALL,
        "ops, jobs and checked slots that raised or failed an output check / attempted "
        "(absolute bound: any non-zero value is a breach)"),
}

END_TO_END: Dict[str, EndToEnd] = {**UNIVERSAL, **NAMED}


class Layer(NamedTuple):
    unit: str
    better: str
    #: ``time`` (median of harness spans), ``count`` (program counter or
    #: harness count; timing-dependent on service_stream) or ``ratio``.
    kind: str
    workloads: Tuple[str, ...]
    #: End-to-end metric this should move, and where.
    moves: str


SWEEPS = ("sweep_dense", "sweep_lowact")
ENGINE = ("sweep_dense", "sweep_lowact", "service_stream", "avfs_loop")
DELTA = ("service_stream", "avfs_loop")
SETUP_MOVES = "setup_s on every workload; nothing else"
GPU_MOVES = ("meps on sweep_dense and sweep_lowact; jobs_per_s on service_stream only "
             "through service.engine_s; none on charz_cold")
DELTA_MOVES = ("iters_per_s on avfs_loop; jobs_per_s on service_stream in proportion to "
               "service.base_hits; none on sweep_*")
LOOP_MOVES = "iters_per_s on avfs_loop"
SERVICE_MOVES = ("jobs_per_s and both job_latency_ms_* on service_stream; read wait_s "
                 "with coalesce_factor")
CHARZ_MOVES = "cells_per_s on charz_cold; characterization share of setup_s everywhere"

PER_LAYER: Dict[str, Layer] = {
    # -- set-up ---------------------------------------------------------------
    "netlist.build_s": Layer("s", "lower", "time", ENGINE, SETUP_MOVES),
    "atpg.patterns_s": Layer("s", "lower", "time", ENGINE, SETUP_MOVES),
    "simulation.compiled.compile_s": Layer("s", "lower", "time", ENGINE, SETUP_MOVES),
    "simulation.compiled.plans_s": Layer("s", "lower", "time", ENGINE, SETUP_MOVES),
    "simulation.compiled.plan_cache_hits": Layer("count", "higher", "count", ENGINE, SETUP_MOVES),
    "simulation.backend.resolve_s": Layer("s", "lower", "time", ALL, SETUP_MOVES),
    # -- engine ---------------------------------------------------------------
    "simulation.gpu.run_s": Layer("s", "lower", "time", ENGINE, GPU_MOVES),
    "simulation.gpu.merge_s": Layer("s", "lower", "time", ENGINE, GPU_MOVES),
    "simulation.gpu.delay_s": Layer("s", "lower", "time", ENGINE, GPU_MOVES),
    "simulation.gpu.pack_s": Layer("s", "lower", "time", ENGINE, GPU_MOVES),
    "simulation.gpu.other_s": Layer("s", "lower", "time", ENGINE, GPU_MOVES),
    "simulation.gpu.first_run_s": Layer("s", "lower", "time", ENGINE,
                                        "none (warm-up, first-touch arena paging)"),
    "simulation.gpu.gate_evals": Layer("count", "lower", "count", ENGINE, GPU_MOVES),
    "simulation.gpu.lanes_skipped": Layer("count", "higher", "count", ENGINE, GPU_MOVES),
    "simulation.gpu.lanes_spliced": Layer("count", "higher", "count", ENGINE, GPU_MOVES),
    "simulation.gpu.kernel_calls": Layer("count", "lower", "count", ENGINE, GPU_MOVES),
    "simulation.gpu.batches": Layer("count", "lower", "count", ENGINE, GPU_MOVES),
    "simulation.gpu.retries": Layer("count", "lower", "count", ENGINE, GPU_MOVES),
    "simulation.gpu.active_fraction": Layer("fraction", "lower", "count", ENGINE, GPU_MOVES),
    "simulation.gpu.static_run_s": Layer("s", "lower", "time", ("sweep_dense",),
                                         "meps on sweep_dense when the Horner path changes"),
    "simulation.gpu.parametric_over_static": Layer(
        "ratio", "lower", "ratio", ("sweep_dense",),
        "meps on sweep_dense when the Horner path changes"),
    "simulation.backend.merge_lanes_per_s": Layer(
        "1/s", "higher", "ratio", ("sweep_dense",),
        "simulation.gpu.merge_s, then meps on sweep_dense; none on service_stream latency"),
    "simulation.backend.delay_gates_per_s": Layer(
        "1/s", "higher", "ratio", ("sweep_dense",),
        "simulation.gpu.merge_s, then meps on sweep_dense; none on service_stream latency"),
    "simulation.event_driven.s_per_slot": Layer("s", "lower", "time", ("sweep_dense",),
                                                "reference only, never gated"),
    "simulation.event_driven.speedup": Layer("ratio", "higher", "ratio", ("sweep_dense",),
                                             "reference only, never gated (Table I headline)"),
    "analysis.arrivals_s": Layer("s", "lower", "time", SWEEPS + ("avfs_loop",),
                                 "meps on sweep_*; iters_per_s on avfs_loop"),
    "analysis.activity_s": Layer("s", "lower", "time", ("avfs_loop",),
                                 "iters_per_s on avfs_loop"),
    # -- delta ----------------------------------------------------------------
    "simulation.delta.select_s": Layer("s", "lower", "time", DELTA, DELTA_MOVES),
    "simulation.delta.delta_run_s": Layer("s", "lower", "time", DELTA, DELTA_MOVES),
    "simulation.delta.full_run_s": Layer("s", "lower", "time", DELTA, DELTA_MOVES),
    "simulation.delta.capture_overhead": Layer("ratio", "lower", "ratio", ("avfs_loop",),
                                               DELTA_MOVES),
    "simulation.delta.delta_fraction": Layer("fraction", "lower", "count", DELTA, DELTA_MOVES),
    "simulation.delta.bytes_spliced": Layer("count", "higher", "count", DELTA, DELTA_MOVES),
    # -- closed loop ----------------------------------------------------------
    "avfs.loop.run_s": Layer("s", "lower", "time", ("avfs_loop",), LOOP_MOVES),
    "avfs.loop.step_ms_p50": Layer("ms", "lower", "time", ("avfs_loop",), LOOP_MOVES),
    "avfs.loop.vf_table_s": Layer("s", "lower", "time", ("avfs_loop",), "setup_s on avfs_loop"),
    "avfs.loop.full_over_delta": Layer("ratio", "higher", "ratio", ("avfs_loop",), LOOP_MOVES),
    "avfs.loop.delta_reuse": Layer("fraction", "higher", "count", ("avfs_loop",), LOOP_MOVES),
    "avfs.loop.delta_iters": Layer("count", "higher", "count", ("avfs_loop",), LOOP_MOVES),
    "avfs.loop.full_iters": Layer("count", "lower", "count", ("avfs_loop",), LOOP_MOVES),
    "avfs.loop.violations": Layer("count", "lower", "count", ("avfs_loop",), LOOP_MOVES),
    "simulation.pool.hits": Layer("count", "higher", "count", ("avfs_loop",), LOOP_MOVES),
    # -- service --------------------------------------------------------------
    "service.submit_s": Layer("s", "lower", "time", ("service_stream",), SERVICE_MOVES),
    "service.wait_s": Layer("s", "lower", "time", ("service_stream",), SERVICE_MOVES),
    "service.engine_s": Layer("s", "lower", "time", ("service_stream",), SERVICE_MOVES),
    "service.self_s": Layer("s", "lower", "time", ("service_stream",), SERVICE_MOVES),
    "service.sequential_jobs_per_s": Layer("1/s", "higher", "ratio", ("service_stream",),
                                           "reference for service.batching_speedup"),
    "service.batching_speedup": Layer("ratio", "higher", "ratio", ("service_stream",),
                                      SERVICE_MOVES),
    "service.latency_ms_p99": Layer("ms", "lower", "time", ("service_stream",), SERVICE_MOVES),
    "service.coalesce_factor": Layer("ratio", "higher", "count", ("service_stream",),
                                     SERVICE_MOVES),
    "service.mean_occupancy": Layer("count", "higher", "count", ("service_stream",),
                                    SERVICE_MOVES),
    "service.batches": Layer("count", "lower", "count", ("service_stream",), SERVICE_MOVES),
    "service.cache_hit_rate": Layer("fraction", "higher", "count", ("service_stream",),
                                    SERVICE_MOVES),
    "service.cache_evictions": Layer("count", "lower", "count", ("service_stream",),
                                     SERVICE_MOVES),
    "service.base_hits": Layer("count", "higher", "count", ("service_stream",), SERVICE_MOVES),
    "service.delta_fraction": Layer("fraction", "lower", "count", ("service_stream",),
                                    SERVICE_MOVES),
    "service.jobs_failed": Layer("count", "lower", "count", ("service_stream",), SERVICE_MOVES),
    "service.batches_requeued": Layer("count", "lower", "count", ("service_stream",),
                                      SERVICE_MOVES),
    "service.backend_demotions": Layer("count", "lower", "count", ("service_stream",),
                                       SERVICE_MOVES),
    # -- characterization -----------------------------------------------------
    "core.charz_adaptive_s": Layer("s", "lower", "time", ("charz_cold",), CHARZ_MOVES),
    "core.charz_fixed_s": Layer("s", "lower", "time", ALL, CHARZ_MOVES),
    "core.charz_warm_s": Layer("s", "lower", "time", ("charz_cold",), CHARZ_MOVES),
    "core.compile_table_s": Layer("s", "lower", "time", ALL, CHARZ_MOVES),
    "core.charz_worst_err": Layer("fraction", "lower", "ratio", ("charz_cold",), CHARZ_MOVES),
    "electrical.spice_evals_adaptive": Layer("count", "lower", "count", ("charz_cold",),
                                             CHARZ_MOVES),
    "electrical.spice_evals_fixed": Layer("count", "lower", "count", ALL, CHARZ_MOVES),
    "electrical.spice_evals_warm": Layer("count", "lower", "count", ("charz_cold",),
                                         CHARZ_MOVES),
    "electrical.spice_s": Layer("s", "lower", "time", ("charz_cold",), CHARZ_MOVES),
    # -- the tracer itself ----------------------------------------------------
    "trace_overhead_frac": Layer("fraction", "lower", "ratio", ALL,
                                 "none (traced / untraced op wall - 1, interleaved ops)"),
}

#: Counts that repeat exactly for a fixed seed (single-threaded paths).
#: ``compare`` requires them to match; service_stream counts depend on
#: batch timing and are excluded.
EXACT_COUNT_WORKLOADS = ("sweep_dense", "sweep_lowact", "avfs_loop", "charz_cold")

RUN_SECONDS = 6


def benchmark_json() -> dict:
    """The root ``BENCHMARK.json``, generated from the tables above."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for name, m in UNIVERSAL.items()],
        "per_layer": [
            {"name": name, "unit": m.unit, "better": m.better}
            for name, m in PER_LAYER.items()],
    }


def end_to_end_for(workload: str) -> List[str]:
    return [name for name, m in END_TO_END.items() if workload in m.workloads]


def per_layer_for(workload: str) -> List[str]:
    return [name for name, m in PER_LAYER.items() if workload in m.workloads]


def worsening(better: str, base: float, new: float) -> Optional[float]:
    """Relative worsening of ``new`` against ``base`` (positive = worse)."""
    if base == 0:
        return None
    change = (new - base) / abs(base)
    return change if better == "lower" else -change
