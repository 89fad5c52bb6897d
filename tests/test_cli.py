"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.core.delay_kernel import DelayKernelTable


@pytest.fixture(scope="module")
def kernels_file(tmp_path_factory, kernel_table):
    path = tmp_path_factory.mktemp("cli") / "kernels.npz"
    kernel_table.save(str(path))
    return str(path)


@pytest.fixture(scope="module")
def verilog_file(tmp_path_factory, library):
    from repro.netlist.generate import random_circuit
    from repro.netlist.verilog import write_verilog

    circuit = random_circuit("clidesign", 10, 120, seed=3)
    path = tmp_path_factory.mktemp("cli_netlist") / "design.v"
    path.write_text(write_verilog(circuit, library))
    return str(path)


class TestCharacterize:
    def test_writes_table(self, tmp_path, capsys):
        out = str(tmp_path / "k.npz")
        assert main(["characterize", "--order", "2", "--output", out]) == 0
        table = DelayKernelTable.load(out)
        assert table.n == 2
        assert "wrote" in capsys.readouterr().out

    def test_corner_and_temperature(self, tmp_path):
        out = str(tmp_path / "k_slow_hot.npz")
        assert main(["characterize", "--order", "1", "--corner", "slow",
                     "--temperature", "125", "--output", out]) == 0

    def test_adaptive_with_report_and_cache(self, tmp_path, capsys):
        import json

        from repro.core.charz_cache import CoefficientCache

        CoefficientCache.clear_memo()
        out = str(tmp_path / "k_adaptive.npz")
        report_path = str(tmp_path / "report.json")
        cache_dir = str(tmp_path / "cache")
        assert main(["characterize", "--adaptive", "--budget", "30",
                     "--target-error", "0.02",
                     "--cache-dir", cache_dir, "--report", report_path,
                     "--output", out]) == 0
        assert "adaptive sampling" in capsys.readouterr().out
        with open(report_path, encoding="utf-8") as stream:
            report = json.load(stream)
        assert report["mode"] == "adaptive"
        assert "workers" not in report
        assert report["evaluations"]["ratio_vs_fixed"] > 3.0
        assert report["evaluations"]["performed"] == \
            report["evaluations"]["charged"]
        for entry in report["entries"]:
            assert entry["evaluations"] <= 30
            assert entry["fixed_grid_evaluations"] == 108
        # Second run hits the on-disk cache: zero SPICE work performed.
        CoefficientCache.clear_memo()
        assert main(["characterize", "--adaptive", "--budget", "30",
                     "--target-error", "0.02",
                     "--cache-dir", cache_dir, "--report", report_path,
                     "--output", out]) == 0
        with open(report_path, encoding="utf-8") as stream:
            warm = json.load(stream)
        assert warm["evaluations"]["performed"] == 0
        assert warm["evaluations"]["charged"] == \
            report["evaluations"]["charged"]
        assert DelayKernelTable.load(out).num_types > 0


class TestStats:
    def test_suite_spec(self, capsys):
        assert main(["stats", "suite:s38417:0.004"]) == 0
        out = capsys.readouterr().out
        assert "s38417" in out and "depth" in out

    def test_random_spec(self, capsys):
        assert main(["stats", "random:100:3"]) == 0
        assert "random100" in capsys.readouterr().out

    def test_verilog_file(self, verilog_file, capsys):
        assert main(["stats", verilog_file]) == 0
        assert "clidesign" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["stats", "no_such_file.v"]) == 1
        assert "error" in capsys.readouterr().err


class TestSta:
    def test_nominal(self, verilog_file, capsys):
        assert main(["sta", verilog_file, "--paths", "3"]) == 0
        out = capsys.readouterr().out
        assert "Longest path delay" in out
        assert "#3" in out

    def test_derated(self, verilog_file, kernels_file, capsys):
        assert main(["sta", verilog_file, "--kernels", kernels_file,
                     "--voltage", "0.6"]) == 0
        assert "0.60 V" in capsys.readouterr().out


class TestAtpg:
    def test_transition_and_paths(self, capsys):
        assert main(["atpg", "random:80:5", "--max-pairs", "16",
                     "--paths", "5"]) == 0
        out = capsys.readouterr().out
        assert "transition-fault ATPG" in out
        assert "timing-aware" in out


class TestSimulate:
    def test_single_voltage_static(self, verilog_file, capsys):
        assert main(["simulate", verilog_file, "--patterns", "8"]) == 0
        out = capsys.readouterr().out
        assert "gpu-static" in out
        assert "0.80 V" in out

    def test_sweep_with_kernels_and_vcd(self, verilog_file, kernels_file,
                                        tmp_path, capsys):
        vcd = str(tmp_path / "wave.vcd")
        assert main(["simulate", verilog_file, "--patterns", "4",
                     "--voltages", "0.6,1.0", "--kernels", kernels_file,
                     "--vcd", vcd]) == 0
        out = capsys.readouterr().out
        assert "gpu-parametric" in out
        text = open(vcd).read()
        assert "$enddefinitions" in text

    def test_sweep_without_kernels_fails(self, verilog_file, capsys):
        assert main(["simulate", verilog_file, "--voltages", "0.6,1.0"]) == 2
        assert "needs --kernels" in capsys.readouterr().err


class TestCampaign:
    def test_checkpoint_and_resume(self, verilog_file, tmp_path, capsys):
        import json

        directory = str(tmp_path / "campaign")
        report = str(tmp_path / "report.json")
        assert main(["campaign", verilog_file, "--patterns", "8",
                     "--chunk-slots", "3", "--workers", "0",
                     "--checkpoint-dir", directory,
                     "--report-json", report]) == 0
        out = capsys.readouterr().out
        assert "campaign" in out and "3 chunks" in out
        with open(report) as stream:
            payload = json.load(stream)
        assert payload["chunks_executed"] == 3
        # Second invocation resumes entirely from the checkpoint.
        assert main(["campaign", verilog_file, "--patterns", "8",
                     "--chunk-slots", "3", "--workers", "0",
                     "--checkpoint-dir", directory]) == 0
        out = capsys.readouterr().out
        assert "from checkpoint 3" in out and "(resumed)" in out

    def test_multi_voltage_needs_kernels(self, verilog_file, capsys):
        assert main(["campaign", verilog_file,
                     "--voltages", "0.6,1.0"]) == 2
        assert "need --kernels" in capsys.readouterr().err

    def test_sweep_with_kernels(self, verilog_file, kernels_file, capsys):
        assert main(["campaign", verilog_file, "--patterns", "4",
                     "--workers", "0", "--voltages", "0.6,1.0",
                     "--kernels", kernels_file]) == 0
        out = capsys.readouterr().out
        assert "8 slots" in out and "campaign[0]" in out


class TestConvert:
    def test_bench_to_verilog_and_back(self, tmp_path, capsys):
        from repro.netlist.bench import write_bench
        from repro.netlist.generate import c17

        bench_in = tmp_path / "c17.bench"
        bench_in.write_text(write_bench(c17()))
        verilog = str(tmp_path / "c.v")
        assert main(["convert", str(bench_in), verilog]) == 0
        assert "wrote" in capsys.readouterr().out
        assert "module" in open(verilog).read()
        bench_out = str(tmp_path / "c_back.bench")
        assert main(["convert", verilog, bench_out]) == 0
        assert "NAND" in open(bench_out).read()

    def test_sdf_and_spef_emission(self, verilog_file, tmp_path):
        sdf = str(tmp_path / "d.sdf")
        spef = str(tmp_path / "d.spef")
        assert main(["convert", verilog_file, sdf]) == 0
        assert main(["convert", verilog_file, spef]) == 0
        assert "(DELAYFILE" in open(sdf).read()
        assert "*SPEF" in open(spef).read()

    def test_unknown_format(self, verilog_file, tmp_path, capsys):
        assert main(["convert", verilog_file,
                     str(tmp_path / "d.xyz")]) == 2
        assert "unknown output format" in capsys.readouterr().err


class TestLiberty:
    def test_per_voltage_views(self, tmp_path, capsys):
        pattern = str(tmp_path / "lib_{voltage}V.lib")
        assert main(["liberty", "--order", "1", "--voltages", "0.6,1.0",
                     "--output-pattern", pattern]) == 0
        out = capsys.readouterr().out
        assert "0.60 V Liberty view" in out
        text = open(str(tmp_path / "lib_0.60V.lib")).read()
        assert text.startswith("library (")


class TestExplore:
    def test_vf_table(self, verilog_file, kernels_file, capsys):
        assert main(["explore", verilog_file, "--kernels", kernels_file,
                     "--patterns", "6",
                     "--voltages", "0.6,0.8,1.0"]) == 0
        out = capsys.readouterr().out
        assert "voltage-frequency table" in out
        assert "f_max" in out

    def test_requires_kernels(self, verilog_file, capsys):
        assert main(["explore", verilog_file]) == 2


class TestServe:
    def run_serve(self, monkeypatch, capsys, lines, extra_args=()):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
        status = main(["serve", "--backend", "numpy",
                       "--max-wait-ms", "200", *extra_args])
        captured = capsys.readouterr()
        return status, captured

    def test_json_lines_round_trip(self, monkeypatch, capsys):
        import json

        status, captured = self.run_serve(monkeypatch, capsys, [
            json.dumps({"id": "a", "circuit": "random:60:3", "patterns": 2}),
            json.dumps({"id": "b", "circuit": "random:60:3", "patterns": 2,
                        "seed": 1}),
        ])
        assert status == 0
        responses = [json.loads(line)
                     for line in captured.out.strip().splitlines()]
        assert [r["id"] for r in responses] == ["a", "b"]
        assert all(r["ok"] for r in responses)
        assert "service:" in captured.err
        assert "coalesce factor" in captured.err

    def test_metrics_json_output(self, monkeypatch, capsys, tmp_path):
        import json

        metrics_path = str(tmp_path / "metrics.json")
        status, _ = self.run_serve(
            monkeypatch, capsys,
            [json.dumps({"id": "a", "circuit": "random:60:3",
                         "patterns": 2})],
            extra_args=["--metrics-json", metrics_path])
        assert status == 0
        metrics = json.load(open(metrics_path))
        assert metrics["jobs_completed"] == 1
        assert "occupancy_histogram" in metrics
