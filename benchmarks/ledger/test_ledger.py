"""Smoke test of the ledger: drives ``run.py --quick`` end to end.

    PYTHONPATH=src python -m pytest benchmarks/ledger -q

Not part of tier-1 (``testpaths = tests``).
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(LEDGER_DIR))
RUN = os.path.join(LEDGER_DIR, "run.py")
sys.path.insert(0, LEDGER_DIR)

import metrics  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def ledger(*argv, check=True):
    proc = subprocess.run([sys.executable, RUN, *argv], cwd=REPO_ROOT,
                          capture_output=True, text=True, timeout=600)
    if check:
        assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    """One complete traced quick set for seed 0: (result, out_dir)."""
    out_dir = tmp_path_factory.mktemp("ledger")
    out = out_dir / "set.json"
    ledger("--quick", "--seed", "0", "--trace", "--out", str(out), "--out-dir", str(out_dir))
    return json.loads(out.read_text()), out_dir


def test_benchmark_json_is_generated_from_the_tables():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as stream:
        declared = json.load(stream)
    assert declared == metrics.benchmark_json()
    names = [w["name"] for w in declared["workloads"]]
    names += [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in declared["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])
    assert len(declared["per_layer"]) <= 128 and len(declared["workloads"]) == 5
    # The issue's nine end-to-end names all exist in the ledger's tables.
    assert set(metrics.END_TO_END) == {
        "setup_s", "meps", "jobs_per_s", "job_latency_ms_p50", "job_latency_ms_p95",
        "iters_per_s", "cells_per_s", "peak_rss_mb", "failed_frac"}


def test_every_metric_appears_exactly_where_it_is_declared(quick):
    result, _ = quick
    assert list(result["workloads"]) == list(metrics.WORKLOADS)
    for workload, entry in result["workloads"].items():
        assert sorted(entry["end_to_end"]) == sorted(metrics.end_to_end_for(workload))
        assert sorted(entry["per_layer"]) == sorted(metrics.per_layer_for(workload))
        for name, record in entry["end_to_end"].items():
            assert record["unit"] == metrics.END_TO_END[name].unit
            if name != "failed_frac":
                assert record["value"] > 0, (workload, name)
        assert entry["end_to_end"]["failed_frac"]["value"] == 0
        assert entry["failed"] == 0 and entry["attempted"] > 0
        assert entry["traced_simulated_identical"]
        # Every output check actually ran.
        for checks in entry["checks"]:
            assert all(check["attempted"] > 0 for check in checks)
            assert "golden_seed0" in {check["name"] for check in checks}
        assert entry["context"]["backend"] and entry["context"]["ops"] >= 3


def test_driver_protocol_prints_every_declared_metric():
    for trace, table in ((0, metrics.UNIVERSAL), (1, metrics.PER_LAYER)):
        proc = ledger("--workload", "sweep_lowact", "--seed", "3", "--seconds", "0.3",
                      "--trace", str(trace), "--quick")
        last = json.loads(proc.stdout.splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
        assert set(last["metrics"]) == set(table)
        for name, value in last["metrics"].items():
            assert set(value) == {"value", "unit"} and value["unit"] == table[name].unit


def test_spans_nest_and_self_times_add_up(quick):
    _, out_dir = quick
    for workload in metrics.WORKLOADS:
        events = json.loads((out_dir / f"trace-{workload}.json").read_text())["traceEvents"]
        spans = {e["args"]["id"]: e for e in events}
        children = {}
        for event in events:
            parent = event["args"]["parent"]
            if parent is not None:
                inside = spans[parent]
                assert inside["ts"] <= event["ts"] + 1e-3
                assert event["ts"] + event["dur"] <= inside["ts"] + inside["dur"] + 1e-3
                children.setdefault(parent, []).append(event)
        roots = [e for e in events if e["args"]["op"] == e["args"]["id"]]
        assert roots, workload
        for root in roots:
            total_self = 0.0
            stack = [root]
            while stack:
                span = stack.pop()
                kids = children.get(span["args"]["id"], [])
                self_us = span["dur"] - sum(k["dur"] for k in kids)
                assert self_us >= -1.0, (workload, span["name"], self_us)
                total_self += self_us
                stack += kids
            assert total_self == pytest.approx(root["dur"], rel=1e-6)


def test_waterfall_attributes_the_op_wall_to_named_layers(quick):
    result, _ = quick
    for workload, entry in result["workloads"].items():
        named = sum(row["share"] for row in entry["waterfall"]
                    if not row["layer"].startswith("harness"))
        assert named >= 0.9, (workload, entry["waterfall"])


def test_a_second_seed_changes_the_inputs_and_still_passes(quick):
    result, out_dir = quick
    out = out_dir / "seed1.json"
    ledger("--quick", "--seed", "1", "--out", str(out), "--out-dir", str(out_dir))
    other = json.loads(out.read_text())
    for workload in ("sweep_dense", "sweep_lowact", "service_stream", "avfs_loop"):
        assert other["workloads"][workload]["failed"] == 0
        assert (other["workloads"][workload]["simulated"]["sha256"]
                != result["workloads"][workload]["simulated"]["sha256"]), workload
    assert other["workloads"]["charz_cold"]["failed"] == 0


def test_a_corrupted_golden_fails_the_run(tmp_path):
    with open(os.path.join(LEDGER_DIR, "golden.json"), encoding="utf-8") as stream:
        golden = json.load(stream)
    golden["quick"]["sweep_lowact"]["transitions"] += 1
    corrupted = tmp_path / "golden.json"
    corrupted.write_text(json.dumps(golden))
    proc = ledger("--workload", "sweep_lowact", "--quick", "--seed", "0", "--trace", "0",
                  "--golden", str(corrupted), "--out-dir", str(tmp_path))
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["correct"] is False and last["failed"] > 0


def test_compare_accepts_itself_and_refuses_another_context(quick, tmp_path):
    result, out_dir = quick
    same = str(out_dir / "set.json")
    proc = ledger("compare", same, same)
    assert "0 breach(es)" in proc.stdout
    # A steady base (no spread) against a copy that is twice as slow.
    steady = json.loads(json.dumps(result))
    for entry in steady["workloads"].values():
        for record in entry["end_to_end"].values():
            record["q1"] = record["q3"] = record["value"]
    (tmp_path / "steady.json").write_text(json.dumps(steady))
    slower = json.loads(json.dumps(steady))
    record = slower["workloads"]["charz_cold"]["end_to_end"]["cells_per_s"]
    for key in ("value", "q1", "q3"):
        record[key] *= 0.5
    (tmp_path / "slower.json").write_text(json.dumps(slower))
    proc = ledger("compare", str(tmp_path / "steady.json"), str(tmp_path / "slower.json"),
                  check=False)
    assert proc.returncode == 1 and "BREACH" in proc.stdout
    # The same loss inside a spread wider than the bound is unresolved, not a breach.
    record["q1"], record["q3"] = 0.5 * record["value"], 1.5 * record["value"]
    (tmp_path / "noisy.json").write_text(json.dumps(slower))
    proc = ledger("compare", str(tmp_path / "steady.json"), str(tmp_path / "noisy.json"))
    assert "unresolved" in proc.stdout
    slower["context"]["backend"] = "another"
    (tmp_path / "other.json").write_text(json.dumps(slower))
    proc = ledger("compare", same, str(tmp_path / "other.json"), check=False)
    assert proc.returncode == 2 and "refusing" in proc.stderr


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's files
    the command exits non-zero and prints no result."""
    import shutil

    bare = tmp_path / "checkout"
    shutil.copytree(LEDGER_DIR, bare / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", "sweep_dense",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and proc.stdout.strip() == ""
