"""Tests for the benchmark-recording harness (``repro.perf.record``)."""

import json

import pytest

from repro.perf import record


@pytest.fixture
def one_pair(monkeypatch):
    """Time one pair per flow (after the warm-up) instead of PAIRS."""
    monkeypatch.setattr(record, "PAIRS", 1)


class TestMicroBenchmarks:
    def test_merge_kernel_entry(self, one_pair):
        entry = record.bench_merge_kernel("numpy", lanes=64)
        assert entry["name"] == "waveform_merge_kernel"
        assert entry["backend"] == "numpy"
        assert entry["wall_seconds"] > 0
        assert entry["walls"] == [entry["wall_seconds"]]
        assert entry["gate_evals_per_second"] > 0
        assert entry["params"]["lanes"] == 64

    def test_delay_kernel_entry(self, kernel_table, one_pair):
        entry = record.bench_delay_kernel("numpy", kernel_table, gates=16)
        assert entry["name"] == "delays_for_gates"
        assert entry["backend"] == "numpy"
        assert entry["wall_seconds"] > 0


class TestTimingProtocol:
    def test_warms_each_flow_once_then_flips_the_order(self, monkeypatch):
        monkeypatch.setattr(record, "PAIRS", 4)
        calls = []
        flows = {name: (lambda name=name: calls.append(name) or len(calls))
                 for name in ("a", "b", "c")}
        walls, last = record._time_pairs(flows,
                                         before=lambda: calls.append("-"))
        runs = [name for name in calls if name != "-"]
        assert calls == [step for name in runs for step in ("-", name)]
        # One untimed warm-up of each flow, then four timed pairs, each
        # running every flow once in the reverse order of the last.
        assert runs[3:] == list("abc" "cba" "abc" "cba")
        assert sorted(runs[:3]) == ["a", "b", "c"]
        assert runs[:3] != runs[3:6]
        assert {name: len(w) for name, w in walls.items()} == {
            "a": 4, "b": 4, "c": 4}
        # Each flow's last return value, in declaration order.
        assert list(last.items()) == [("a", 30), ("b", 28), ("c", 26)]

    def test_quick_times_fewer_pairs(self):
        walls, _ = record._time_pairs({"a": lambda: None}, quick=True)
        assert len(walls["a"]) == record.PAIRS_QUICK

    def test_wall_is_the_median_of_the_pairs(self):
        entry = record._entry("x", "numpy", [0.3, 0.1, 0.2], 10)
        assert entry["wall_seconds"] == 0.2
        assert entry["walls"] == [0.3, 0.1, 0.2]
        assert entry["gate_evals_per_second"] == pytest.approx(50.0)


def make_report(walls):
    """Entries of one pair each; a list value is the entry's ``walls``."""
    return {"benchmarks": [
        {"name": name, "backend": backend, "wall_seconds": wall}
        if not isinstance(wall, list) else
        {"name": name, "backend": backend, "walls": wall,
         "wall_seconds": sorted(wall)[len(wall) // 2]}
        for (name, backend), wall in walls.items()
    ]}


class TestRegressionGate:
    def test_no_regression_within_threshold(self):
        baseline = make_report({("merge", "numpy"): 1.0})
        current = make_report({("merge", "numpy"): 1.4})
        assert record.compare_reports(current, baseline, 1.5) == []

    def test_regression_flagged(self):
        baseline = make_report({("merge", "numpy"): 1.0,
                                ("merge", "cext"): 0.2})
        current = make_report({("merge", "numpy"): 1.1,
                               ("merge", "cext"): 0.5})
        messages = record.compare_reports(current, baseline, 1.5)
        assert len(messages) == 1
        assert "merge[cext]" in messages[0]
        assert "2.50x" in messages[0]

    def test_unmatched_entries_skipped(self):
        """Machines legitimately differ in backend availability."""
        baseline = make_report({("merge", "cext"): 0.1})
        current = make_report({("merge", "numpy"): 5.0})
        assert record.compare_reports(current, baseline, 1.5) == []

    def test_speedups_relative_to_numpy(self):
        report = make_report({("merge", "numpy"): 1.0,
                              ("merge", "cext"): 0.25,
                              ("delay", "cext"): 0.5})
        speedups = record._ratios(report["benchmarks"])["speedups"]
        assert speedups["merge"] == {"numpy": 1.0,
                                     "cext": pytest.approx(4.0)}
        assert "delay" not in speedups  # no numpy baseline entry

    def test_every_section_is_present_with_its_quartiles(self):
        sections = record._ratios([])
        names = [ratio.section for ratio in record.RATIOS]
        assert list(sections) == names + ["ratio_quartiles"]
        assert sections["ratio_quartiles"] == {name: {} for name in names}

    def test_ratios_pair_by_backend(self):
        """Each backend's flows pair with each other, never across."""
        benchmarks = make_report({
            ("service_throughput_sequential", "numpy"): 4.0,
            ("service_throughput_batched", "numpy"): 1.0,
            ("service_throughput_sequential", "cext"): 0.6,
            ("service_throughput_batched", "cext"): 0.3,
            ("avfs_closed_loop_full", "cext"): 0.9,
            ("avfs_closed_loop_delta", "cext"): 0.3,
            # No full partner on numpy: no closed-loop ratio for it.
            ("avfs_closed_loop_delta", "numpy"): 1.0,
        })["benchmarks"]
        sections = record._ratios(benchmarks)
        assert sections["service_speedups"] == {
            "numpy": pytest.approx(4.0), "cext": pytest.approx(2.0)}
        assert sections["closed_loop_speedups"] == {"cext": pytest.approx(3.0)}

    def test_service_scaling_keyed_by_backend_then_shards(self):
        benchmarks = make_report({
            ("service_scaling_inproc", "cext"): 1.0,
            ("service_scaling_shards1", "cext"): 2.0,
            ("service_scaling_shards4", "cext"): 0.5,
            ("service_scaling_shards2", "numpy"): 0.5,  # no partner
        })["benchmarks"]
        sections = record._ratios(benchmarks)
        assert sections["service_scaling"] == {
            "cext": {"1": pytest.approx(0.5), "4": pytest.approx(2.0)}}
        assert sections["ratio_quartiles"]["service_scaling"] == {
            "cext": {"1": [pytest.approx(0.5)] * 3,
                     "4": [pytest.approx(2.0)] * 3}}

    def test_incremental_speedups_pair_full_with_delta(self):
        benchmarks = make_report({
            ("incremental_stimulus_full", "cext"): 3.0,
            ("incremental_stimulus_delta", "cext"): 1.0,
            ("incremental_voltage_sweep_delta", "cext"): 1.0,  # no partner
        })["benchmarks"]
        assert record._ratios(benchmarks)["incremental_speedups"] == {
            "incremental_stimulus": {"cext": pytest.approx(3.0)}}

    def test_quartiles_come_from_per_pair_ratios(self):
        """Pair i's wall over pair i's wall — not a ratio of medians."""
        full = [1.0, 2.0, 3.0, 4.0, 5.0]
        delta = [1.0, 1.0, 1.0, 8.0, 1.0]
        benchmarks = make_report({
            ("avfs_closed_loop_full", "cext"): full,
            ("avfs_closed_loop_delta", "cext"): delta,
        })["benchmarks"]
        sections = record._ratios(benchmarks)
        per_pair = sorted(f / d for f, d in zip(full, delta))  # .5 1 2 3 5
        assert sections["closed_loop_speedups"]["cext"] == per_pair[2] == 2.0
        assert sections["ratio_quartiles"]["closed_loop_speedups"][
            "cext"] == [1.0, 2.0, 3.0]
        # The medians' ratio (3.0 / 1.0) is not what is recorded.
        assert benchmarks[0]["wall_seconds"] / benchmarks[1]["wall_seconds"] \
            == 3.0

    def test_schema_1_baseline_without_walls_still_compares(self):
        """An entry without ``walls`` is one pair of its wall_seconds."""
        baseline = make_report({("e2e_x_static", "numpy"): 1.0,
                                ("e2e_x_parametric", "numpy"): 0.9,
                                ("merge", "numpy"): 1.0})
        current = make_report({("e2e_x_static", "numpy"): [0.6, 0.6, 0.6],
                               ("e2e_x_parametric", "numpy"): [0.9, 0.95, 0.9],
                               ("merge", "numpy"): [2.0, 1.2, 1.9]})
        messages = record.compare_reports(current, baseline, 1.5)
        assert len(messages) == 2
        assert messages[0].startswith("merge[numpy]: 1.9000s vs baseline 1.0000s")
        assert messages[1].startswith(
            "parametric_ratio[x/numpy]: 1.50 vs baseline 0.90")
        # A schema-1 record also still reduces as a current record.
        assert record._ratios(baseline["benchmarks"])["parametric_ratios"] == {
            "x": {"numpy": pytest.approx(0.9)}}

    def test_pruning_speedups_pair_dense_with_sparse(self):
        benchmarks = [
            {"name": "e2e_x_lowact_sparse", "backend": "numpy",
             "wall_seconds": 1.0},
            {"name": "e2e_x_lowact_dense", "backend": "numpy",
             "wall_seconds": 3.0},
            # No dense partner on cext: no ratio for it.
            {"name": "e2e_x_lowact_sparse", "backend": "cext",
             "wall_seconds": 0.5},
            # Unrelated benchmarks are ignored.
            {"name": "waveform_merge_kernel", "backend": "numpy",
             "wall_seconds": 2.0},
        ]
        speedups = record._ratios(benchmarks)["pruning_speedups"]
        assert speedups["e2e_x_lowact"]["numpy"] == pytest.approx(3.0)
        assert "cext" not in speedups["e2e_x_lowact"]

    def test_parametric_ratios_pair_static_with_parametric(self):
        benchmarks = make_report({
            ("e2e_x_static", "numpy"): 1.0,
            ("e2e_x_parametric", "numpy"): 2.5,
            # No static partner on cext: no ratio for it.
            ("e2e_x_parametric", "cext"): 0.5,
            # Low-activity entries never pair, whatever their suffix.
            ("e2e_x_lowact_dense", "numpy"): 3.0,
            ("e2e_y_lowact_static", "numpy"): 1.0,
            ("e2e_y_lowact_parametric", "numpy"): 3.0,
        })["benchmarks"]
        ratios = record._ratios(benchmarks)["parametric_ratios"]
        assert ratios == {"x": {"numpy": pytest.approx(2.5)}}

    def test_parametric_ratio_regression_flagged(self):
        """The ratio gate fires even when every raw wall time improved."""
        baseline = make_report({("e2e_x_static", "numpy"): 1.0,
                                ("e2e_x_parametric", "numpy"): 1.2})
        current = make_report({("e2e_x_static", "numpy"): 0.5,
                               ("e2e_x_parametric", "numpy"): 1.3})
        messages = record.compare_reports(current, baseline, 1.5)
        assert len(messages) == 1
        assert "parametric_ratio[x/numpy]" in messages[0]

    def test_parametric_ratio_within_threshold(self):
        baseline = make_report({("e2e_x_static", "numpy"): 1.0,
                                ("e2e_x_parametric", "numpy"): 2.0})
        current = make_report({("e2e_x_static", "numpy"): 1.0,
                               ("e2e_x_parametric", "numpy"): 2.2})
        assert record.compare_reports(current, baseline, 1.5) == []

    def test_parametric_ratio_needs_a_wide_plane(self):
        """A 16-slot run is per-call overhead on both sides: no ratio."""
        narrow, wide = {"slots": 16}, {"slots": record.RATIO_SLOTS}
        benchmarks = [
            {"name": "e2e_x_static", "backend": "cext",
             "wall_seconds": 1.0, "params": narrow},
            {"name": "e2e_x_parametric", "backend": "cext",
             "wall_seconds": 1.2, "params": narrow},
            {"name": "e2e_x_wide_static", "backend": "cext",
             "wall_seconds": 10.0, "params": wide},
            {"name": "e2e_x_wide_parametric", "backend": "cext",
             "wall_seconds": 10.5, "params": wide},
        ]
        assert record._ratios(benchmarks)["parametric_ratios"] == {
            "x_wide": {"cext": pytest.approx(1.05)}}

    def test_parametric_ratio_ceiling_is_absolute(self):
        """cext evaluates the polynomial once per (gate, voltage): its
        ratio is held under the ceiling whatever the baseline says."""
        ceiling = record.PARAMETRIC_RATIO_CEILING["cext"]
        walls = {("e2e_x_static", "cext"): 1.0,
                 ("e2e_x_parametric", "cext"): ceiling + 0.1,
                 ("e2e_x_static", "numpy"): 1.0,
                 ("e2e_x_parametric", "numpy"): ceiling + 0.1}
        messages = record.compare_reports(make_report(walls),
                                          make_report(walls), 1.5)
        assert len(messages) == 1
        assert "parametric_ratio[x/cext]" in messages[0]
        assert "ceiling" in messages[0]

    def test_fault_overhead_extracted_per_backend(self):
        benchmarks = [
            {"name": "fault_seams_e2e", "backend": "numpy",
             "wall_seconds": 1.0, "params": {"overhead_fraction": 2e-5}},
            {"name": "fault_seams_e2e", "backend": "cext",
             "wall_seconds": 0.1, "params": {"overhead_fraction": 3e-4}},
            {"name": "waveform_merge_kernel", "backend": "numpy",
             "wall_seconds": 2.0, "params": {}},
        ]
        assert record._fault_overhead(benchmarks) == {"numpy": 2e-5,
                                                      "cext": 3e-4}

    def test_fault_overhead_ceiling_flagged(self):
        """The seam-overhead gate is absolute, not baseline-relative."""
        current = {"benchmarks": [
            {"name": "fault_seams_e2e", "backend": "numpy",
             "wall_seconds": 1.0,
             "params": {"overhead_fraction":
                        record.FAULT_OVERHEAD_CEILING * 2}},
        ]}
        messages = record.compare_reports(current, {"benchmarks": []}, 1.5)
        assert len(messages) == 1
        assert "faults_disabled_overhead[numpy]" in messages[0]

    def test_fault_overhead_under_ceiling_passes(self):
        current = {"benchmarks": [
            {"name": "fault_seams_e2e", "backend": "numpy",
             "wall_seconds": 1.0,
             "params": {"overhead_fraction":
                        record.FAULT_OVERHEAD_CEILING / 10}},
        ]}
        assert record.compare_reports(current, {"benchmarks": []}, 1.5) == []

    @staticmethod
    def charz_benchmarks(fixed_evals=39960, adaptive_evals=12000,
                         fixed_err=0.017, adaptive_err=0.019, warm_evals=0):
        return [
            {"name": "characterization_fixed", "backend": "numpy",
             "wall_seconds": 4.0,
             "params": {"delay_evaluations": fixed_evals,
                        "worst_error": fixed_err}},
            {"name": "characterization_adaptive", "backend": "numpy",
             "wall_seconds": 2.0,
             "params": {"delay_evaluations": adaptive_evals,
                        "worst_error": adaptive_err}},
            {"name": "characterization_warm_cache", "backend": "numpy",
             "wall_seconds": 0.1,
             "params": {"delay_evaluations": warm_evals}},
        ]

    def test_characterization_section(self):
        section = record._characterization_speedups(self.charz_benchmarks())
        assert section["evaluation_ratio"] == pytest.approx(39960 / 12000)
        assert section["warm_cache_evaluations"] == 0
        assert "pool_speedup" not in section
        assert section["wall_speedup"] == pytest.approx(2.0)

    def test_characterization_break_even(self):
        """(adaptive wall - fixed wall) / evaluations saved, in microseconds."""
        benchmarks = self.charz_benchmarks()
        benchmarks[0]["wall_seconds"], benchmarks[1]["wall_seconds"] = 0.08, 0.25
        section = record._characterization_speedups(benchmarks)
        assert section["break_even_us_per_evaluation"] == pytest.approx(
            (0.25 - 0.08) * 1e6 / (39960 - 12000))
        # An adaptive flow that saves no evaluations never breaks even.
        section = record._characterization_speedups(
            self.charz_benchmarks(adaptive_evals=39960))
        assert section["break_even_us_per_evaluation"] is None

    def test_characterization_spread_over_pairs(self):
        """Ratios are taken per timed pair; the section carries their quartiles."""
        benchmarks = self.charz_benchmarks()
        benchmarks[0]["walls"] = [0.06, 0.05, 0.09, 0.06, 0.05]
        benchmarks[1]["walls"] = [0.30, 0.20, 0.30, 0.24, 0.25]
        section = record._characterization_speedups(benchmarks)
        ratios = sorted([0.2, 0.25, 0.3, 0.25, 0.2])
        assert section["timed_pairs"] == 5
        assert section["wall_speedup_quartiles"] == pytest.approx([0.2, 0.25, 0.25])
        assert section["wall_speedup"] == pytest.approx(ratios[2])
        saved = 39960 - 12000
        per_pair = sorted((a - f) * 1e6 / saved for f, a in zip(
            benchmarks[0]["walls"], benchmarks[1]["walls"]))
        q1, median, q3 = section["break_even_us_per_evaluation_quartiles"]
        assert q1 <= median <= q3
        assert median == pytest.approx(per_pair[2])
        assert section["break_even_us_per_evaluation"] == median

    def test_characterization_gates_pass(self):
        current = {"benchmarks": self.charz_benchmarks()}
        assert record.compare_reports(current, {"benchmarks": []}, 1.5) == []

    def test_characterization_eval_ratio_gate(self):
        current = {"benchmarks": self.charz_benchmarks(adaptive_evals=20000)}
        messages = record.compare_reports(current, {"benchmarks": []}, 1.5)
        assert len(messages) == 1
        assert "characterization[evals]" in messages[0]

    def test_characterization_error_gate(self):
        current = {"benchmarks": self.charz_benchmarks(adaptive_err=0.08)}
        messages = record.compare_reports(current, {"benchmarks": []}, 1.5)
        assert len(messages) == 1
        assert "characterization[error]" in messages[0]

    def test_characterization_warm_cache_gate(self):
        current = {"benchmarks": self.charz_benchmarks(warm_evals=108)}
        messages = record.compare_reports(current, {"benchmarks": []}, 1.5)
        assert len(messages) == 1
        assert "characterization[cache]" in messages[0]

    def test_setup_scaling_entry_and_section(self, one_pair):
        (entry,) = record.bench_setup_scaling(sizes=(("s38417", 0.01),))
        assert entry["name"] == "setup_s38417_x0.01" and entry["backend"] == "numpy"
        params = entry["params"]
        assert params["us_per_gate"] == pytest.approx(
            1e6 * entry["wall_seconds"] / params["gates"])
        assert record._setup_scaling([entry, {"name": "merge", "params": {}}]) == {
            "s38417_x0.01": params["us_per_gate"]}

    def test_report_roundtrip(self, tmp_path):
        report = make_report({("merge", "numpy"): 1.0})
        path = str(tmp_path / "bench.json")
        record.write_report(report, path)
        assert record.load_report(path) == report


class TestCli:
    def test_quick_run_writes_report(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code = record.main(["--quick", "--no-e2e", "--backends", "numpy",
                            "--output", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        names = {e["name"] for e in report["benchmarks"]}
        # --no-e2e skips the delay/e2e benchmarks (they need the full
        # library characterization) — only the merge kernel remains.
        assert names == {"waveform_merge_kernel"}
        assert report["machine"]["backends"]
        assert "recorded" in capsys.readouterr().out

    def test_second_run_compares_against_first(self, tmp_path):
        out = tmp_path / "bench.json"
        argv = ["--quick", "--no-e2e", "--backends", "numpy",
                "--output", str(out)]
        assert record.main(argv) == 0
        # Same machine, same workload: far below any regression threshold.
        assert record.main(argv + ["--threshold", "100"]) == 0

    def test_regression_exit_code(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        argv = ["--quick", "--no-e2e", "--backends", "numpy",
                "--output", str(out)]
        assert record.main(argv) == 0
        baseline = json.loads(out.read_text())
        for entry in baseline["benchmarks"]:
            entry["wall_seconds"] /= 1e6  # impossible baseline
        (tmp_path / "fast.json").write_text(json.dumps(baseline))
        argv_vs = argv + ["--baseline", str(tmp_path / "fast.json")]
        assert record.main(argv_vs) == 3
        assert record.main(argv_vs + ["--no-fail"]) == 0
