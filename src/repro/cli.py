"""Command-line interface: ``python -m repro <command> …``.

Wraps the library's main flows for shell use:

* ``characterize`` — run the offline Fig. 1 flow, save a kernel table,
* ``stats``       — circuit statistics (Table I columns 1–2),
* ``sta``         — static timing analysis with optional voltage derating,
* ``atpg``        — transition-fault + timing-aware pattern generation,
* ``simulate``    — parallel voltage-sweep time simulation (+ VCD dump),
* ``campaign``    — checkpointed sweep on the service, resumable,
* ``serve``       — JSON-lines simulation service with dynamic batching,
* ``explore``     — AVFS design-space exploration / VF table,
* ``avfs-loop``   — closed-loop AVFS scenario with disturbances,
* ``bench``       — record kernel/e2e benchmarks, check for regressions.

Circuits are specified either as a file (``.v`` structural Verilog or
``.bench``) or as a generator spec:

* ``suite:<name>[:scale]`` — a scaled paper-suite circuit (``suite:b17``),
* ``random:<gates>[:seed]`` — a random mapped netlist.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.cells.library import CellLibrary
from repro.cells.nangate15 import make_nangate15_library
from repro.core.characterization import characterize_library
from repro.core.delay_kernel import DelayKernelTable
from repro.electrical.model import TransistorCorner
from repro.electrical.spice import AnalyticalSpice
from repro.errors import ReproError
from repro.netlist.bench import parse_bench
from repro.netlist.circuit import Circuit
from repro.netlist.generate import random_circuit
from repro.netlist.stats import circuit_stats
from repro.netlist.suite import DEFAULT_SCALE, build_suite_circuit
from repro.netlist.verilog import parse_verilog
from repro.units import si_format

__all__ = ["main"]


def _load_library() -> CellLibrary:
    return make_nangate15_library()


def _corner(name: str, temperature: Optional[float]) -> TransistorCorner:
    factories = {
        "typical": TransistorCorner.typical,
        "slow": TransistorCorner.slow,
        "fast": TransistorCorner.fast,
    }
    corner = factories[name]()
    if temperature is not None:
        corner = corner.at_temperature(temperature)
    return corner


def _load_circuit(spec: str, library: CellLibrary) -> Circuit:
    """Resolve a circuit spec: file path or generator shorthand."""
    if spec.startswith("suite:"):
        parts = spec.split(":")
        scale = float(parts[2]) if len(parts) > 2 else DEFAULT_SCALE
        return build_suite_circuit(parts[1], scale=scale)
    if spec.startswith("random:"):
        parts = spec.split(":")
        gates = int(parts[1])
        seed = int(parts[2]) if len(parts) > 2 else 0
        return random_circuit(f"random{gates}", max(8, gates // 12), gates,
                              seed=seed)
    with open(spec, "r", encoding="utf-8") as stream:
        text = stream.read()
    if spec.endswith(".bench"):
        base = spec.rsplit("/", 1)[-1]
        return parse_bench(text, name=base.rsplit(".", 1)[0], filename=spec)
    return parse_verilog(text, library, filename=spec)


def _voltages(text: str) -> List[float]:
    return [float(part) for part in text.split(",") if part.strip()]


# -- subcommands -------------------------------------------------------------------


def _cmd_characterize(args: argparse.Namespace) -> int:
    import json
    import time

    from repro.core.characterization import (FIXED_GRID_EVALUATIONS,
                                             AdaptiveConfig)
    from repro.core.charz_cache import CoefficientCache

    library = _load_library()
    spice = AnalyticalSpice(_corner(args.corner, args.temperature))
    adaptive = None
    if args.adaptive:
        adaptive = AdaptiveConfig(target_error=args.target_error,
                                  budget=args.budget)
        mode = (f"adaptive sampling (target error {adaptive.target_error:g}, "
                f"budget {adaptive.budget}/entry, auto order)")
    else:
        mode = f"fixed 12x9 grid, order 2*{args.order}"
    cache = CoefficientCache(args.cache_dir) if args.cache_dir else None
    print(f"characterizing {len(library)} cells ({args.corner} corner"
          + (f", {args.temperature:g} C" if args.temperature is not None else "")
          + f", {mode}"
          + (f", cache {args.cache_dir}" if cache else "") + ") ...")
    start = time.perf_counter()
    characterization = characterize_library(
        library, spice, n=args.order, adaptive=adaptive, cache=cache)
    wall = time.perf_counter() - start
    entries = list(characterization.all_entries())
    charged = characterization.total_evaluations()
    fixed_baseline = FIXED_GRID_EVALUATIONS * len(entries)
    print(f"  {len(entries)} delay surfaces, {charged} SPICE delay "
          f"evaluations charged vs {fixed_baseline} fixed-grid "
          f"({fixed_baseline / charged:.2f}x); {spice.delay_evaluations} "
          f"performed this run in {wall:.2f}s")
    table = characterization.compile()
    table.save(args.output)
    print(f"wrote {table.num_types} cell types "
          f"({table.memory_bytes / 1024:.0f} KiB) to {args.output}")
    if args.report:
        report = {
            "mode": "adaptive" if adaptive else "fixed",
            "corner": args.corner,
            "order": None if adaptive else args.order,
            "wall_seconds": wall,
            "evaluations": {
                "charged": charged,
                "performed": spice.delay_evaluations,
                "fixed_grid_baseline": fixed_baseline,
                "ratio_vs_fixed": fixed_baseline / charged,
            },
            "entries": [
                {
                    "cell": entry.cell_name,
                    "pin": entry.pin_name,
                    "polarity": entry.polarity.name.lower(),
                    "evaluations": entry.evaluations,
                    "fixed_grid_evaluations": FIXED_GRID_EVALUATIONS,
                    "half_order": entry.fit.polynomial.n,
                    "max_fit_error": entry.fit.max_abs_error,
                }
                for entry in entries
            ],
        }
        with open(args.report, "w", encoding="utf-8") as stream:
            json.dump(report, stream, indent=2)
            stream.write("\n")
        print(f"wrote evaluation report to {args.report}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    library = _load_library()
    circuit = _load_circuit(args.circuit, library)
    circuit.validate(library)
    stats = circuit_stats(circuit)
    print(stats.summary())
    print(f"  avg fanin {stats.avg_fanin:.2f}, avg fanout "
          f"{stats.avg_fanout:.2f}")
    for family, count in sorted(stats.cells_by_family.items()):
        print(f"  {family:8s} {count}")
    return 0


def _cmd_sta(args: argparse.Namespace) -> int:
    from repro.timing.paths import k_longest_paths
    from repro.timing.report import format_timing_report
    from repro.timing.sta import StaticTimingAnalysis

    library = _load_library()
    circuit = _load_circuit(args.circuit, library)
    sta = StaticTimingAnalysis(circuit, library)
    kernel_table = DelayKernelTable.load(args.kernels) if args.kernels else None
    arrivals = sta.analyze(voltage=args.voltage if kernel_table else None,
                           kernel_table=kernel_table)
    paths = k_longest_paths(circuit, library, k=args.paths,
                            compiled=sta.compiled)
    print(format_timing_report(
        arrivals, circuit.name, paths,
        voltage=args.voltage if kernel_table else None))
    return 0


def _cmd_atpg(args: argparse.Namespace) -> int:
    from repro.atpg.path_patterns import generate_path_patterns
    from repro.atpg.transition_fault import generate_transition_patterns

    library = _load_library()
    circuit = _load_circuit(args.circuit, library)
    patterns, coverage = generate_transition_patterns(
        circuit, library, max_pairs=args.max_pairs,
        fault_sample=args.fault_sample)
    print(f"transition-fault ATPG: {len(patterns)} pairs, "
          f"{coverage:.1%} coverage")
    if args.paths:
        result = generate_path_patterns(circuit, library, k=args.paths)
        print(f"timing-aware: {len(result.tested_paths)} paths tested, "
              f"{len(result.false_paths)} false paths"
              + (" (*)" if result.all_false else ""))
        patterns.extend(result.patterns)
    print(f"total: {len(patterns)} pattern pairs "
          f"{patterns.count_by_source()}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.analysis.arrival import latest_arrivals
    from repro.atpg.patterns import random_pattern_set
    from repro.simulation.base import SimulationConfig
    from repro.simulation.gpu import GpuWaveSim
    from repro.simulation.grid import SlotPlan

    library = _load_library()
    circuit = _load_circuit(args.circuit, library)
    voltages = _voltages(args.voltages)
    kernel_table = DelayKernelTable.load(args.kernels) if args.kernels else None
    if kernel_table is None and len(voltages) > 1:
        print("error: multi-voltage simulation needs --kernels",
              file=sys.stderr)
        return 2
    patterns = random_pattern_set(circuit, args.patterns, seed=args.seed)
    config = SimulationConfig(record_all_nets=bool(args.vcd),
                              backend=args.backend)
    simulator = GpuWaveSim(circuit, library, config=config)
    plan = SlotPlan.cross(len(patterns), voltages)
    result = simulator.run(patterns.pairs, plan=plan,
                           kernel_table=kernel_table)
    print(f"simulated {plan.num_slots} slots in "
          f"{result.runtime_seconds:.3f}s ({result.engine})")
    report = latest_arrivals(result, circuit, plan=plan)
    for voltage in voltages:
        print(f"  {voltage:.2f} V: latest transition "
              f"{si_format(report.at(voltage), unit='s')}")
    if args.vcd:
        from repro.waveform.vcd import result_to_vcd
        with open(args.vcd, "w", encoding="utf-8") as stream:
            stream.write(result_to_vcd(result, args.vcd_slot))
        print(f"  slot {args.vcd_slot} waveforms -> {args.vcd}")
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    import json

    from repro.atpg.patterns import random_pattern_set
    from repro.runtime import CampaignConfig, CampaignRunner
    from repro.simulation.base import SimulationConfig
    from repro.simulation.grid import SlotPlan

    library = _load_library()
    circuit = _load_circuit(args.circuit, library)
    voltages = _voltages(args.voltages)
    kernel_table = DelayKernelTable.load(args.kernels) if args.kernels else None
    if kernel_table is None and len(voltages) > 1:
        print("error: multi-voltage campaigns need --kernels", file=sys.stderr)
        return 2
    variation = None
    if args.sigma is not None:
        from repro.simulation.variation import ProcessVariation
        variation = ProcessVariation(sigma=args.sigma,
                                     seed=args.variation_seed)
    patterns = random_pattern_set(circuit, args.patterns, seed=args.seed)
    plan = SlotPlan.cross(len(patterns), voltages)
    runner = CampaignRunner(
        circuit, library,
        config=SimulationConfig(backend=args.backend),
        campaign=CampaignConfig(chunk_slots=args.chunk_slots,
                                num_workers=args.workers),
    )
    result = runner.run(patterns.pairs, plan=plan, kernel_table=kernel_table,
                        variation=variation,
                        checkpoint_dir=args.checkpoint_dir)
    print(result.report.summary())
    print(f"engine {result.engine}, {result.gate_evaluations} gate "
          f"evaluations")
    if args.report_json:
        with open(args.report_json, "w", encoding="utf-8") as stream:
            json.dump(result.report.to_dict(), stream, indent=2)
        print(f"run report -> {args.report_json}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import json

    from repro.service import (ServiceClient, ServiceConfig,
                               SimulationService, serve_jsonl)

    if args.faults:
        from repro import faults
        faults.activate(args.faults)
    library = _load_library()
    kernel_table = DelayKernelTable.load(args.kernels) if args.kernels else None
    config = ServiceConfig(
        max_batch_slots=args.max_batch_slots,
        max_wait_ms=args.max_wait_ms,
        queue_depth=args.queue_depth,
        admission=args.admission,
        workers=args.workers,
        cache_entries=args.cache_entries,
        shards=args.shards,
    )
    with SimulationService(config=config) as service:
        client = ServiceClient(service, library, _load_circuit,
                               kernel_table=kernel_table,
                               backend=args.backend)
        status = serve_jsonl(sys.stdin, sys.stdout, client)
        metrics = service.metrics()
    print(metrics.summary(), file=sys.stderr)
    if args.metrics_json:
        with open(args.metrics_json, "w", encoding="utf-8") as stream:
            json.dump(metrics.to_dict(), stream, indent=2)
        print(f"service metrics -> {args.metrics_json}", file=sys.stderr)
    return status


def _cmd_convert(args: argparse.Namespace) -> int:
    from repro.netlist.bench import write_bench
    from repro.netlist.sdf import annotate_nominal, write_sdf
    from repro.netlist.spef import write_spef
    from repro.netlist.verilog import write_verilog

    library = _load_library()
    circuit = _load_circuit(args.circuit, library)
    circuit.validate(library)
    output = args.output
    if output.endswith(".v"):
        text = write_verilog(circuit, library)
    elif output.endswith(".bench"):
        text = write_bench(circuit)
    elif output.endswith(".sdf"):
        text = write_sdf(circuit, library, annotate_nominal(circuit, library))
    elif output.endswith(".spef"):
        text = write_spef(circuit, circuit.net_loads(library))
    else:
        print(f"error: unknown output format for {output!r} "
              "(use .v/.bench/.sdf/.spef)", file=sys.stderr)
        return 2
    with open(output, "w", encoding="utf-8") as stream:
        stream.write(text)
    print(f"wrote {circuit.num_nodes}-node {circuit.name} to {output}")
    return 0


def _cmd_liberty(args: argparse.Namespace) -> int:
    from repro.netlist.liberty import write_liberty

    library = _load_library()
    spice = AnalyticalSpice(_corner(args.corner, args.temperature))
    characterization = characterize_library(library, spice, n=args.order)
    for voltage in _voltages(args.voltages):
        text = write_liberty(characterization, voltage=voltage)
        path = args.output_pattern.format(voltage=f"{voltage:.2f}")
        with open(path, "w", encoding="utf-8") as stream:
            stream.write(text)
        print(f"wrote {voltage:.2f} V Liberty view to {path}")
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    from repro.atpg.patterns import random_pattern_set
    from repro.avfs.explorer import DesignSpaceExplorer

    library = _load_library()
    circuit = _load_circuit(args.circuit, library)
    if not args.kernels:
        print("error: explore needs --kernels (run 'characterize' first)",
              file=sys.stderr)
        return 2
    kernel_table = DelayKernelTable.load(args.kernels)
    patterns = random_pattern_set(circuit, args.patterns, seed=args.seed)
    explorer = DesignSpaceExplorer(circuit, library, kernel_table)
    table = explorer.voltage_frequency_table(
        patterns.pairs, _voltages(args.voltages), guardband=args.guardband)
    print(f"voltage-frequency table for {circuit.name} "
          f"(guardband {args.guardband:.0%}):")
    print(table.summary())
    return 0


def _cmd_avfs_loop(args: argparse.Namespace) -> int:
    import json

    from repro.atpg.patterns import random_pattern_set
    from repro.avfs import (AvfsController, ClosedLoopRunner,
                            DesignSpaceExplorer, LoopConfig,
                            TemperatureDrift, VoltageDroop)

    library = _load_library()
    circuit = _load_circuit(args.circuit, library)
    if not args.kernels:
        print("error: avfs-loop needs --kernels (run 'characterize' first)",
              file=sys.stderr)
        return 2
    kernel_table = DelayKernelTable.load(args.kernels)
    patterns = random_pattern_set(circuit, args.patterns, seed=args.seed)

    # Characterize the operating table on the same engine the loop will
    # reuse (shared via the process-wide pool).
    explorer = DesignSpaceExplorer(circuit, library, kernel_table)
    table = explorer.voltage_frequency_table(
        patterns.pairs, _voltages(args.voltages), guardband=args.guardband)
    if args.period is not None:
        period = args.period
    else:
        # Default: 20% of slack on top of the mid-table critical delay.
        mid = table.points[len(table.points) // 2]
        period = mid.critical_delay * (1.0 + args.guardband) * 1.2
    print(f"closing the loop on {circuit.name} at period "
          f"{si_format(period, unit='s')}")

    disturbances = []
    if args.droop > 0:
        disturbances.append(VoltageDroop(
            args.droop, reference_activity=args.droop_reference,
            jitter=args.droop_jitter, seed=args.seed))
    if args.drift > 0:
        disturbances.append(TemperatureDrift(args.drift))
    variation = None
    if args.sigma is not None:
        from repro.simulation.variation import StateDependentVariation
        variation = StateDependentVariation(
            sigma=args.sigma, seed=args.variation_seed,
            voltage_sensitivity=args.voltage_sensitivity,
            v_ref=table.points[-1].voltage)

    config = LoopConfig(
        period=period,
        max_iterations=args.iterations,
        settle_iterations=args.settle,
        use_delta=not args.no_delta,
        record_energy=not args.no_energy,
    )
    service = None
    try:
        if args.service:
            from repro.service import SimulationService
            service = SimulationService()
        runner = ClosedLoopRunner(
            circuit, library, kernel_table, AvfsController(table), config,
            disturbances=disturbances, variation=variation, service=service,
            checkpoint_dir=args.checkpoint_dir, backend=args.backend)
        report = runner.run(patterns.pairs)
    finally:
        if service is not None:
            service.close()
    print(report.summary())
    if report.run_report is not None:
        print(report.run_report.summary())
    if args.report_json:
        with open(args.report_json, "w", encoding="utf-8") as stream:
            json.dump(report.to_dict(), stream, indent=2)
        print(f"loop report -> {args.report_json}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.perf.record import main as bench_main

    forwarded: List[str] = []
    if args.quick:
        forwarded.append("--quick")
    if args.no_e2e:
        forwarded.append("--no-e2e")
    if args.no_fail:
        forwarded.append("--no-fail")
    forwarded += ["--output", args.output,
                  "--threshold", str(args.threshold)]
    if args.baseline:
        forwarded += ["--baseline", args.baseline]
    if args.backends:
        forwarded += ["--backends", args.backends]
    return bench_main(forwarded)


# -- parser ------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("characterize", help="build and save a kernel table")
    p.add_argument("--order", type=int, default=3, help="polynomial half-order N")
    p.add_argument("--corner", choices=["typical", "slow", "fast"],
                   default="typical")
    p.add_argument("--temperature", type=float, default=None,
                   help="junction temperature in Celsius")
    p.add_argument("--output", default="kernels.npz")
    p.add_argument("--adaptive", action="store_true",
                   help="error-driven adaptive sampling with per-entry "
                        "order selection instead of the fixed 12x9 grid")
    p.add_argument("--target-error", type=float, default=0.012,
                   help="adaptive stopping target as a fraction of the "
                        "nominal delay (default 0.012)")
    p.add_argument("--budget", type=int, default=36,
                   help="adaptive per-entry cap on SPICE delay "
                        "evaluations (default 36)")
    p.add_argument("--cache-dir", default=None,
                   help="persistent coefficient-cache directory "
                        "(fingerprint-keyed; warm hits skip SPICE)")
    p.add_argument("--report", default=None,
                   help="write a JSON report of per-entry SPICE "
                        "evaluations vs the fixed-grid baseline")
    p.set_defaults(func=_cmd_characterize)

    p = sub.add_parser("stats", help="circuit statistics")
    p.add_argument("circuit")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("sta", help="static timing analysis")
    p.add_argument("circuit")
    p.add_argument("--voltage", type=float, default=0.8)
    p.add_argument("--kernels", default=None,
                   help="kernel table for voltage derating")
    p.add_argument("--paths", type=int, default=5, help="report K longest paths")
    p.set_defaults(func=_cmd_sta)

    p = sub.add_parser("atpg", help="generate test patterns")
    p.add_argument("circuit")
    p.add_argument("--max-pairs", type=int, default=64)
    p.add_argument("--fault-sample", type=int, default=1000)
    p.add_argument("--paths", type=int, default=0,
                   help="also target the K longest paths")
    p.set_defaults(func=_cmd_atpg)

    p = sub.add_parser("simulate", help="parallel time simulation")
    p.add_argument("circuit")
    p.add_argument("--patterns", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--voltages", default="0.8", help="comma-separated volts")
    p.add_argument("--kernels", default=None)
    p.add_argument("--vcd", default=None, help="dump one slot as VCD")
    p.add_argument("--vcd-slot", type=int, default=0)
    p.add_argument("--backend", default=None,
                   choices=["auto", "numpy", "cext"],
                   help="compute backend (default: REPRO_BACKEND or auto)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "campaign",
        help="checkpointed sweep with resume, run on the service")
    p.add_argument("circuit")
    p.add_argument("--patterns", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--voltages", default="0.8", help="comma-separated volts")
    p.add_argument("--kernels", default=None)
    p.add_argument("--checkpoint-dir", default=None,
                   help="campaign directory for checkpoint/resume")
    p.add_argument("--chunk-slots", type=int, default=64,
                   help="slots per chunk (job/checkpoint granularity)")
    p.add_argument("--workers", type=int, default=0,
                   help="shard processes (0 = in-process)")
    p.add_argument("--sigma", type=float, default=None,
                   help="Monte-Carlo process-variation sigma")
    p.add_argument("--variation-seed", type=int, default=0)
    p.add_argument("--report-json", default=None,
                   help="write the structured run report to this file")
    p.add_argument("--backend", default=None,
                   choices=["auto", "numpy", "cext"],
                   help="compute backend (default: REPRO_BACKEND or auto)")
    p.set_defaults(func=_cmd_campaign)

    p = sub.add_parser(
        "serve",
        help="JSON-lines simulation service (one request per stdin line)")
    p.add_argument("--kernels", default=None,
                   help="kernel table for voltage-aware jobs")
    p.add_argument("--max-batch-slots", type=int, default=256,
                   help="flush a compatibility group at this many slots")
    p.add_argument("--max-wait-ms", type=float, default=5.0,
                   help="flush a batch once its oldest job waited this long")
    p.add_argument("--queue-depth", type=int, default=1024,
                   help="admission-control bound on in-flight jobs")
    p.add_argument("--admission", choices=["block", "reject"],
                   default="block",
                   help="behaviour at the queue-depth bound")
    p.add_argument("--workers", type=int, default=1,
                   help="engine worker threads")
    p.add_argument("--shards", type=int, default=0,
                   help="execute batches in this many worker processes "
                        "(0 = in-process engine pool)")
    p.add_argument("--cache-entries", type=int, default=256,
                   help="result-cache capacity (0 disables the cache)")
    p.add_argument("--backend", default=None,
                   choices=["auto", "numpy", "cext"],
                   help="compute backend (default: REPRO_BACKEND or auto)")
    p.add_argument("--metrics-json", default=None,
                   help="write the final service metrics to this file")
    p.add_argument("--faults", default=None, metavar="SPEC",
                   help="activate a fault-injection plan, e.g. "
                        "'seed=7;backend.run_levels:raise@n=3' "
                        "(also: REPRO_FAULTS env var)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("convert", help="convert/emit design-exchange files")
    p.add_argument("circuit")
    p.add_argument("output", help="target file: .v / .bench / .sdf / .spef")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("liberty", help="emit per-voltage Liberty views")
    p.add_argument("--order", type=int, default=3)
    p.add_argument("--corner", choices=["typical", "slow", "fast"],
                   default="typical")
    p.add_argument("--temperature", type=float, default=None)
    p.add_argument("--voltages", default="0.8")
    p.add_argument("--output-pattern", default="nangate15_{voltage}V.lib",
                   help="'{voltage}' is substituted per view")
    p.set_defaults(func=_cmd_liberty)

    p = sub.add_parser("bench",
                       help="record benchmarks / check for regressions")
    p.add_argument("--quick", action="store_true",
                   help="smaller sizes (CI smoke)")
    p.add_argument("--output", default="BENCH_kernels.json")
    p.add_argument("--baseline", default=None,
                   help="baseline record (default: previous output file)")
    p.add_argument("--threshold", type=float, default=1.5,
                   help="regression factor on wall time")
    p.add_argument("--backends", default=None,
                   help="comma-separated backend subset")
    p.add_argument("--no-e2e", action="store_true",
                   help="kernel micro-benchmarks only")
    p.add_argument("--no-fail", action="store_true",
                   help="report regressions but exit 0")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("explore", help="AVFS design-space exploration")
    p.add_argument("circuit")
    p.add_argument("--patterns", type=int, default=24)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--voltages", default="0.55,0.65,0.8,0.95,1.1")
    p.add_argument("--guardband", type=float, default=0.10)
    p.add_argument("--kernels", default=None)
    p.set_defaults(func=_cmd_explore)

    p = sub.add_parser(
        "avfs-loop",
        help="closed-loop AVFS scenario: simulate -> measure -> decide")
    p.add_argument("circuit")
    p.add_argument("--patterns", type=int, default=24)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kernels", default=None)
    p.add_argument("--voltages", default="0.55,0.65,0.8,0.95,1.1",
                   help="operating grid characterized before the loop")
    p.add_argument("--guardband", type=float, default=0.10)
    p.add_argument("--period", type=float, default=None,
                   help="clock period in seconds (default: derived from "
                        "the mid-table critical delay)")
    p.add_argument("--iterations", type=int, default=20)
    p.add_argument("--settle", type=int, default=3,
                   help="consecutive stable iterations = convergence")
    p.add_argument("--droop", type=float, default=0.0,
                   help="supply droop in volts at the reference activity")
    p.add_argument("--droop-reference", type=float, default=1.0,
                   help="toggles/pattern producing exactly --droop volts")
    p.add_argument("--droop-jitter", type=float, default=0.0,
                   help="random droop sigma in volts (seeded)")
    p.add_argument("--drift", type=float, default=0.0,
                   help="thermal delay drift per iteration (fraction)")
    p.add_argument("--sigma", type=float, default=None,
                   help="state-dependent Monte-Carlo sigma")
    p.add_argument("--voltage-sensitivity", type=float, default=0.0,
                   help="sigma growth per volt below the top voltage")
    p.add_argument("--variation-seed", type=int, default=0)
    p.add_argument("--no-delta", action="store_true",
                   help="disable base-arena splicing between iterations")
    p.add_argument("--no-energy", action="store_true",
                   help="skip per-iteration energy accounting")
    p.add_argument("--checkpoint-dir", default=None,
                   help="resumable trajectory checkpoint directory")
    p.add_argument("--service", action="store_true",
                   help="run iterations through a local simulation service")
    p.add_argument("--backend", default=None,
                   choices=["numpy", "cext", "auto"])
    p.add_argument("--report-json", default=None)
    p.set_defaults(func=_cmd_avfs_loop)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
