#!/usr/bin/env python3
"""The repository's end-to-end + per-layer benchmark (see README.md).

    python3 benchmarks/ledger/run.py --seed 0 [--trace] [--quick] [--runs N]
        runs the five workloads one after another, each in a fresh
        interpreter, prints every metric and writes one result JSON.

    python3 benchmarks/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1
        runs one workload in this interpreter and prints, as the last
        line, the JSON object the benchmark driver reads.

    python3 benchmarks/ledger/run.py compare A.json B.json
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
import time

import harness
import metrics

GOLDEN_PATH = os.path.join(harness.LEDGER_DIR, "golden.json")
#: From-scratch set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: Ops timed even when ``--seconds`` is already spent (charz_cold ops
#: take ~4.5 s each; a median wants at least three).
MIN_OPS = 3
#: Relative tolerance for floats of a golden ``simulated`` block: wide
#: enough for another BLAS build's last digits, far below any change to
#: the delay model or the engines.  Integers compare exactly.
GOLDEN_RTOL = 1e-6


def golden_mismatches(expected, got, path: str = "") -> list:
    """Paths at which ``got`` departs from the golden block (sha256 aside)."""
    if isinstance(expected, dict):
        if not isinstance(got, dict) or set(expected) != set(got):
            return [path or "<keys>"]
        out = []
        for key in expected:
            if key != "sha256":
                out += golden_mismatches(expected[key], got[key], f"{path}/{key}")
        return out
    if isinstance(expected, float) or isinstance(got, float):
        same = abs(expected - got) <= GOLDEN_RTOL * max(abs(expected), abs(got))
        return [] if same else [path]
    return [] if expected == got else [path]


def read_golden(path: str) -> dict:
    """``{"full" | "quick": {workload: simulated block}}``; empty when absent."""
    try:
        with open(path, "r", encoding="utf-8") as stream:
            return json.load(stream)
    except FileNotFoundError:
        return {}


def timed_ops(workload, tracer, calibration, checks, seconds: float, trace: bool) -> list:
    """Ops timed one by one until ``seconds`` of op time is spent."""
    ops = []
    raised = 0
    elapsed = 0.0
    while elapsed < seconds or len(ops) + raised < MIN_OPS + trace:
        # Odd ops run with the tracer paused: the pair gives
        # trace_overhead_frac without a second process.
        tracer.enabled = trace and (len(ops) + raised) % 2 == 0
        # Garbage left by the previous op is collected off the clock,
        # so a full collection lands at the same point of every op.
        gc.collect()
        calibration.sample()
        try:
            op = workload.op()
        except Exception as error:  # noqa: BLE001 - a failed op is a result
            raised += 1
            checks.add("op_raised", 1, 1, repr(error))
            if raised > 2:
                break
            continue
        ops.append(op)
        elapsed += op.wall
    tracer.enabled = trace
    if not ops:
        harness.die("every op raised: " + checks.entries[-1]["detail"], 1)
    return ops


# -- one workload, this interpreter --------------------------------------------------


def run_single(args) -> int:
    isolation = harness.Isolation()
    sys.path.insert(0, os.path.join(harness.REPO_ROOT, "src"))
    import_start = time.perf_counter()
    import workloads  # numpy + every repro layer the workloads touch
    from repro.simulation.backend import backend_status, resolve_backend
    import_s = time.perf_counter() - import_start

    trace = bool(args.trace)
    tracer = harness.Tracer(enabled=trace)
    # Resolved once before any clock starts, so a one-off build of the
    # kernel library never lands in a metric.
    with tracer.span("simulation.backend.resolve_backend"):
        backend = resolve_backend()
    context = harness.machine_context(backend.name, backend_status())
    context.update(seed=args.seed, quick=args.quick, seconds=args.seconds,
                   trace=trace, workload=args.workload)

    calibration = harness.Calibration()
    workload = workloads.make(args.workload, args.seed, args.quick, tracer, isolation)
    if trace:
        workload.install()
    checks = workloads.Checks()
    try:
        setups = []
        for _ in range(1 if args.quick else SETUP_REPEATS):
            harness.clear_program_caches()
            calibration.sample()
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)

        tracer.enabled = False
        warmups = [workload.warmup_op().wall for _ in range(workload.warmup_ops)]

        ops = timed_ops(workload, tracer, calibration, checks, args.seconds, trace)

        jobs = sum(op.jobs for op in ops)
        failed_jobs = sum(op.failed_jobs for op in ops)
        checks.add("jobs", jobs, failed_jobs, "timed jobs that raised or were refused")
        checks.add("op_to_op_identical", len(ops),
                   sum(1 for op in ops if op.digest != ops[0].digest),
                   "simulated digest of every op equals the first op's")
        simulated = workload.verify(ops, checks)
        golden = read_golden(args.golden).get("quick" if args.quick else "full", {}).get(
            args.workload)
        if args.seed == 0 and golden is not None and not args.update_golden:
            wrong = golden_mismatches(golden, simulated)
            if wrong:
                detail = "differs at " + ", ".join(wrong)
            elif golden["sha256"] == simulated["sha256"]:
                detail = "bit-identical to the golden recording"
            else:
                detail = "within tolerance; sha256 differs (last-digit rounding)"
            checks.add("golden_seed0", 1, 1 if wrong else 0, detail)

        # Latency percentiles are pooled over every timed job; the
        # quartiles beside them are those of the per-op estimates.
        pooled_ms = [1e3 * value for op in ops for value in op.latencies]

        def latency(q: float) -> dict:
            return harness.timing([1e3 * harness.percentile(op.latencies, q) for op in ops],
                                  "ms", harness.percentile(pooled_ms, q))

        end_to_end = {
            "setup_s": harness.timing(setups, "s", import_s + harness.quartiles(setups)[1]),
            "jobs_per_s": harness.timing([op.jobs / op.wall for op in ops], "1/s"),
            "job_latency_ms_p50": latency(50),
            "job_latency_ms_p95": latency(95),
        }
        for name, samples in workload.named(ops).items():
            end_to_end[name] = harness.timing(samples, metrics.END_TO_END[name].unit)
        # Host seconds become reference seconds (see harness.Calibration).
        end_to_end = {name: calibration.in_reference_seconds(record)
                      for name, record in end_to_end.items()
                      if args.workload in metrics.END_TO_END[name].workloads}

        per_layer = {}
        waterfall = []
        if trace:
            traced = [op for op in ops if op.root is not None]
            paused = [op for op in ops if op.root is None]
            per_layer = {name: 0.0 for name in metrics.PER_LAYER}
            per_layer.update(workload.setup_layers())
            per_layer.update(workload.layers(ops))
            if args.workload in metrics.PER_LAYER["simulation.gpu.first_run_s"].workloads:
                per_layer["simulation.gpu.first_run_s"] = warmups[0]
            if traced and paused:
                # Best op of each side: scheduling noise only ever adds.
                per_layer["trace_overhead_frac"] = (
                    min(op.wall for op in traced) / min(op.wall for op in paused) - 1.0)
            waterfall = tracer.waterfall([op.root for op in traced])
    finally:
        workload.close()
        tracer.unwrap_all()
    hygiene = isolation.finish()
    checks.add("hygiene", 1, 0 if hygiene["ok"] else 1, json.dumps(hygiene))

    end_to_end["peak_rss_mb"] = harness.single(harness.peak_rss_mb(), "MB")
    end_to_end["failed_frac"] = harness.single(checks.failed / checks.attempted, "fraction")
    context.update(ops=len(ops), jobs=jobs, warmup_ops=workload.warmup_ops,
                   warmup_s=warmups, setup_repeats=len(setups), import_s=import_s,
                   calibration={"reference_s": calibration.REFERENCE_S,
                                "slowdown": calibration.slowdown,
                                "samples_s": calibration.samples})
    record = {
        "workload": args.workload, "context": context,
        "end_to_end": end_to_end, "per_layer": per_layer, "waterfall": waterfall,
        "simulated": simulated, "checks": checks.entries,
        "attempted": checks.attempted, "failed": checks.failed, "hygiene": hygiene,
    }
    if args.result_json:
        harness.write_json(args.result_json, record)
    if trace:
        trace_path = os.path.join(args.out_dir, f"trace-{args.workload}.json")
        harness.write_json(trace_path, tracer.chrome_trace())
        print(f"trace: {trace_path}")
        print_waterfall(args.workload, waterfall, per_layer["trace_overhead_frac"])
    print_metrics(args.workload, per_layer if trace else end_to_end)
    print(f"  calibration: slowdown {calibration.slowdown:.3f} (time metrics above are in "
          f"reference seconds = host seconds / slowdown; per-layer times are host seconds)")
    for entry in checks.entries:
        mark = "ok  " if entry["failed"] == 0 else "FAIL"
        print(f"  check {mark} {entry['name']}: {entry['attempted'] - entry['failed']}"
              f"/{entry['attempted']} {entry['detail'] if entry['name'] != 'hygiene' else ''}")

    if trace:
        reported = {name: {"value": per_layer[name], "unit": m.unit}
                    for name, m in metrics.PER_LAYER.items()}
    else:
        reported = {name: {"value": end_to_end[name]["value"], "unit": m.unit}
                    for name, m in metrics.UNIVERSAL.items()}
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": reported}))
    return 0


def print_metrics(workload: str, values: dict) -> None:
    for name, value in values.items():
        if isinstance(value, dict):
            print(f"  {workload:15s} {name:38s} {value['value']:14.6g} {value['unit']:9s}"
                  f" q1 {value['q1']:.6g} q3 {value['q3']:.6g} n {value['n']}")
        elif workload in metrics.PER_LAYER[name].workloads:
            print(f"  {workload:15s} {name:38s} {value:14.6g} {metrics.PER_LAYER[name].unit}")


def print_waterfall(workload: str, waterfall: list, overhead: float) -> None:
    print(f"  {workload}: per-layer waterfall (median per traced op; self = span minus children)")
    print(f"    {'layer':34s} {'spans/op':>9s} {'total_s':>10s} {'self_s':>10s} {'share':>7s}")
    for row in waterfall:
        print(f"    {row['layer']:34s} {row['spans_per_op']:9.0f} {row['total_s']:10.4f}"
              f" {row['self_s']:10.4f} {100 * row['share']:6.1f}%")
    named = sum(row["share"] for row in waterfall if not row["layer"].startswith("harness"))
    print(f"    attributed to named layers: {100 * named:.1f}% of the op wall;"
          f" trace_overhead_frac {overhead:+.4f}")


# -- all workloads, one fresh interpreter each ---------------------------------------


def spawn(workload: str, args, trace: int, result_path: str) -> dict:
    command = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(trace), "--result-json", result_path,
               "--out-dir", args.out_dir, "--golden", args.golden]
    if args.quick:
        command.append("--quick")
    if args.update_golden:
        command.append("--update-golden")
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    sys.stdout.write("".join(line + "\n" for line in proc.stdout.splitlines()[:-1]))
    if proc.returncode != 0:
        harness.die(f"workload {workload} exited with {proc.returncode}", 1)
    with open(result_path, "r", encoding="utf-8") as stream:
        return json.load(stream)


def run_all(args) -> int:
    out_path = args.out or os.path.join(
        args.out_dir, f"ledger-{'quick-' if args.quick else ''}seed{args.seed}.json")
    scratch = os.path.join(args.out_dir, "runs")
    result = {"schema": 1, "seed": args.seed, "quick": args.quick,
              "seconds": args.seconds, "runs": args.runs, "workloads": {}}
    failed = 0
    for workload in metrics.WORKLOADS:
        print(f"== {workload}: {metrics.WORKLOADS[workload]}")
        print(f"   job = {metrics.JOB_UNIT[workload]}")
        records = [spawn(workload, args, 0,
                         os.path.join(scratch, f"{workload}-{run}.json"))
                   for run in range(args.runs)]
        traced = (spawn(workload, args, 1, os.path.join(scratch, f"{workload}-traced.json"))
                  if args.trace else None)
        first = records[0]
        entry = {
            "context": first["context"],
            "end_to_end": {name: across_runs([r["end_to_end"][name] for r in records])
                           for name in first["end_to_end"]},
            "simulated": first["simulated"],
            "simulated_identical_across_runs": all(
                r["simulated"] == first["simulated"] for r in records),
            "checks": [r["checks"] for r in records],
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
        }
        if traced is not None:
            entry.update(per_layer={name: traced["per_layer"][name]
                                    for name in metrics.per_layer_for(workload)},
                         waterfall=traced["waterfall"],
                         traced_simulated_identical=traced["simulated"] == first["simulated"])
            entry["attempted"] += traced["attempted"]
            entry["failed"] += traced["failed"]
        failed += entry["failed"]
        result["workloads"][workload] = entry
    result["context"] = {key: result["workloads"]["sweep_dense"]["context"][key]
                         for key in ("platform", "machine", "python", "numpy", "nproc",
                                     "omp_threads", "blas_threads", "backend",
                                     "backend_status", "git_commit")}
    harness.write_json(out_path, result)
    if args.update_golden:
        golden = read_golden(GOLDEN_PATH)
        golden["quick" if args.quick else "full"] = {
            name: entry["simulated"] for name, entry in result["workloads"].items()}
        harness.write_json(GOLDEN_PATH, golden)
        print(f"golden updated: {GOLDEN_PATH}")
    print("== end-to-end (median over runs)")
    for workload, entry in result["workloads"].items():
        print_metrics(workload, entry["end_to_end"])
    print(f"result: {out_path}")
    return 1 if failed else 0


def across_runs(records: list) -> dict:
    """One metric over the runs of a set: median and quartiles of the run values."""
    if len(records) == 1:
        return records[0]
    merged = harness.timing([r["value"] for r in records], records[0]["unit"])
    merged["run_values"] = [r["value"] for r in records]
    return merged


# -- entry point ---------------------------------------------------------------------


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        import compare

        return compare.main(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(metrics.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="same code paths, tiny sizes (smoke test)")
    parser.add_argument("--runs", type=int, default=1,
                        help="untraced runs per workload of a complete set")
    parser.add_argument("--out", help="result JSON of a complete set")
    parser.add_argument("--out-dir", default=os.path.join(harness.BUILD_DIR, "out"))
    parser.add_argument("--golden", default=GOLDEN_PATH)
    parser.add_argument("--update-golden", action="store_true")
    parser.add_argument("--result-json", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.5 if args.quick else float(metrics.RUN_SECONDS)
    if not os.path.isfile(os.path.join(harness.REPO_ROOT, "src", "repro", "__init__.py")):
        harness.die("the program under test (src/repro) is not in this checkout")
    return run_single(args) if args.workload else run_all(args)


if __name__ == "__main__":
    raise SystemExit(main())
