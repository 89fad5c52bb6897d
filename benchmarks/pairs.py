#!/usr/bin/env python3
"""Alternating parent/change runs of the BENCHMARK.json command.

    python3 benchmarks/pairs.py --base REV --workload NAME [--pairs 10]

The procedure every gain in CHANGES.md was claimed by, as one command:
the committed files of ``REV`` are unpacked below ``.bench_build/pairs/``
(``git archive``: the files a fresh checkout would hold, nothing
registered in ``.git``), then the benchmark command of the root
``BENCHMARK.json`` runs once per side per pair — this checkout is the
change — with the order flipped every pair and the pair index as seed.
Printed per end-to-end metric: each side's median and quartiles, the
ratio of medians, the wins (ties count for neither side) and whether the
medians differ by more than the base's inter-quartile distance.  Every
run must report ``correct`` with nothing failed, or the tool exits 1.

Beside the walls, each side's package calls per service job are
printed: one untimed ``sys.setprofile`` pass over the fixed 64-job
stream of ``tests/service/test_call_budget.py``, run inside that side's
tree.  A count is exact where a wall is noise, so one numpy call added
per job reads as +3 whatever the budget's margin.  ``--pairs 0`` prints
the counts alone.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def materialise(rev: str) -> str:
    """Unpack ``rev``'s committed files once; returns the directory."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
                         cwd=REPO_ROOT, check=True, stdout=subprocess.PIPE,
                         text=True).stdout.strip()
    tree = os.path.join(REPO_ROOT, ".bench_build", "pairs", sha[:12])
    if not os.path.isdir(tree):
        archive = subprocess.run(["git", "archive", sha], cwd=REPO_ROOT,
                                 check=True, stdout=subprocess.PIPE).stdout
        os.makedirs(tree)
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tree)
    return tree


#: Runs in a tree's root: ``calls_per_job`` of that tree's call-budget
#: test, with the library and ``monkeypatch`` its fixtures would give.
_CALLS_PROBE = """
import sys
sys.path[:0] = ["src", "."]
import pytest
from repro.cells import make_nangate15_library
from tests.service.test_call_budget import calls_per_job
with pytest.MonkeyPatch.context() as monkeypatch:
    print(calls_per_job(make_nangate15_library(), monkeypatch))
"""


def _environment() -> dict:
    # Both sides compile to (and, from the second run on, import from)
    # one bytecode directory of their own: a checkout that happens to
    # hold ``__pycache__`` would otherwise read a lower ``setup_s`` than
    # a freshly unpacked tree.
    env = dict(os.environ, PYTHONPYCACHEPREFIX=os.path.join(
        REPO_ROOT, ".bench_build", "pairs", "pyc"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def calls_per_job(tree: str) -> float:
    """Package calls per service job in ``tree`` (untimed)."""
    proc = subprocess.run([sys.executable, "-c", _CALLS_PROBE], cwd=tree,
                          env=_environment(), stdout=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        sys.exit(f"the calls-per-job probe exited with {proc.returncode} "
                 f"in {tree}")
    return float(proc.stdout.splitlines()[-1])


def run_once(tree: str, benchmark: dict, workload: str, seed: int) -> dict:
    """One untraced run in ``tree``: the driver's JSON line, parsed."""
    command = benchmark["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(benchmark["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(command, cwd=tree, env=_environment(),
                          stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(command)} exited with {proc.returncode} in {tree}")
    report = json.loads(proc.stdout.splitlines()[-1])
    if not report["correct"] or report["failed"]:
        sys.exit(f"seed {seed} in {tree}: {report['failed']} of "
                 f"{report['attempted']} checks failed")
    return {name: entry["value"] for name, entry in report["metrics"].items()}


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarise(spec: dict, base: list, change: list) -> str:
    higher = spec["better"] == "higher"
    wins = sum((c > b) if higher else (c < b) for b, c in zip(base, change))
    losses = sum((c < b) if higher else (c > b) for b, c in zip(base, change))
    (b1, b2, b3), (c1, c2, c3) = quartiles(base), quartiles(change)
    beyond = "beyond" if abs(c2 - b2) > b3 - b1 else "within"
    return (f"  {spec['name']:20s} base {b2:10.5g} [{b1:.5g}, {b3:.5g}]  "
            f"change {c2:10.5g} [{c1:.5g}, {c3:.5g}]  x{c2 / b2:.3f}  "
            f"change wins {wins}/{len(base)} (loses {losses})  "
            f"{beyond} base IQR")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10,
                        help="alternating pairs (0: calls per job only)")
    args = parser.parse_args()
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as stream:
        benchmark = json.load(stream)
    if args.workload not in [w["name"] for w in benchmark["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    trees = {"base": materialise(args.base), "change": REPO_ROOT}
    runs = {"base": [], "change": []}
    for pair in range(args.pairs):
        for side in (("base", "change") if pair % 2 == 0 else ("change", "base")):
            runs[side].append(run_once(trees[side], benchmark, args.workload, pair))
        print(f"pair {pair}: " + "  ".join(
            f"{spec['name']} {runs['base'][-1][spec['name']]:.5g} -> "
            f"{runs['change'][-1][spec['name']]:.5g}"
            for spec in benchmark["end_to_end"]), flush=True)
    print(f"{args.workload}: {args.pairs} alternating pairs, base {args.base} "
          f"({trees['base']}) against this checkout; median [q1, q3]")
    for spec in benchmark["end_to_end"] if args.pairs else ():
        print(summarise(spec, [run[spec["name"]] for run in runs["base"]],
                        [run[spec["name"]] for run in runs["change"]]))
    calls = {side: calls_per_job(tree) for side, tree in trees.items()}
    print(f"  {'calls_per_job':20s} base {calls['base']:10.1f}  "
          f"change {calls['change']:10.1f}  "
          f"{calls['change'] - calls['base']:+.1f}  "
          "(tests/service/test_call_budget.py stream, untimed)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
