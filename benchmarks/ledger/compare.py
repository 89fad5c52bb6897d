"""``run.py compare A.json B.json``: two complete sets, one row per (workload, metric).

``A`` is the base, ``B`` the candidate.  A metric *breaches* when B's
median is worse than A's by more than the metric's bound; it is
*unresolved* — neither breached nor unchanged — when the spread of
either side exceeds that bound, unless every run of B reads better than
every run of A.  Exact counts and ``simulated`` blocks must be equal,
and sets from different machine contexts are refused.
"""

from __future__ import annotations

import json
import sys
from typing import List, Optional

import harness
import metrics


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as stream:
        return json.load(stream)


def _spread(record: dict) -> float:
    """Inter-quartile range as a share of the value (run-to-run when the
    set holds several runs, op-to-op within the run otherwise)."""
    return abs(record["q3"] - record["q1"]) / abs(record["value"]) if record["value"] else 0.0


def _every_run_better(better: str, a: dict, b: dict) -> bool:
    runs_a, runs_b = a.get("run_values"), b.get("run_values")
    if not runs_a or not runs_b:
        return False
    return all((metrics.worsening(better, x, y) or 0.0) < 0 for x in runs_a for y in runs_b)


def judge(name: str, a: dict, b: dict) -> tuple:
    """``(ratio, status)`` of one end-to-end metric."""
    spec = metrics.END_TO_END[name]
    if name == "failed_frac":  # absolute bound: nothing may fail
        return None, "BREACH" if (a["value"] > 0 or b["value"] > 0) else "ok"
    worse = metrics.worsening(spec.better, a["value"], b["value"])
    ratio = b["value"] / a["value"] if a["value"] else None
    if worse is None:
        return ratio, "BREACH"
    noisy = max(_spread(a), _spread(b)) > spec.bound
    if noisy and not _every_run_better(spec.better, a, b):
        return ratio, "unresolved"
    return ratio, "BREACH" if worse > spec.bound else "ok"


def _fmt(record: dict) -> str:
    return f"{record['value']:.5g} [{record['q1']:.5g}, {record['q3']:.5g}]"


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        harness.die("usage: run.py compare A.json B.json")
    a, b = _load(argv[0]), _load(argv[1])

    differing = [key for key in harness.COMPARABLE_CONTEXT
                 if a["context"].get(key) != b["context"].get(key)]
    differing += [key for key in ("seed", "quick", "seconds") if a.get(key) != b.get(key)]
    if differing:
        for key in differing:
            print(f"context differs: {key}: {a['context'].get(key, a.get(key))!r} vs "
                  f"{b['context'].get(key, b.get(key))!r}", file=sys.stderr)
        harness.die("refusing to compare runs from different machine contexts")

    breaches = unresolved = 0
    print(f"{'workload':15s} {'metric':20s} {'A median [q1, q3]':>32s} "
          f"{'B median [q1, q3]':>32s} {'B/A':>7s} {'bound':>6s}  status")
    for workload in metrics.WORKLOADS:
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        for name in metrics.end_to_end_for(workload):
            ratio, status = judge(name, wa["end_to_end"][name], wb["end_to_end"][name])
            breaches += status == "BREACH"
            unresolved += status == "unresolved"
            print(f"{workload:15s} {name:20s} {_fmt(wa['end_to_end'][name]):>32s} "
                  f"{_fmt(wb['end_to_end'][name]):>32s} "
                  f"{'' if ratio is None else format(ratio, '7.3f'):>7s} "
                  f"{metrics.END_TO_END[name].bound:6.2f}  {status}")
        if wa["simulated"] != wb["simulated"]:
            breaches += 1
            print(f"{workload:15s} simulated block differs  BREACH")
        if (workload in metrics.EXACT_COUNT_WORKLOADS
                and "per_layer" in wa and "per_layer" in wb):
            for name in metrics.per_layer_for(workload):
                if (metrics.PER_LAYER[name].kind == "count"
                        and wa["per_layer"][name] != wb["per_layer"][name]):
                    breaches += 1
                    print(f"{workload:15s} {name} count differs: "
                          f"{wa['per_layer'][name]} vs {wb['per_layer'][name]}  BREACH")
    print(f"{breaches} breach(es), {unresolved} unresolved")
    return 1 if breaches else 0
