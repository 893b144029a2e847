"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_args(self):
        a = build_parser().parse_args(
            ["simulate", "--scenario", "small", "--hours", "0.5", "--out", "/tmp/x"]
        )
        assert a.command == "simulate" and a.hours == 0.5

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    @pytest.mark.parametrize("argv", [
        ["simulate", "--hours", "0.01", "--out", "{missing}/city"],
        ["identify", "--city", "{missing}/city", "--at", "0",
         "--report", "{missing}/r.json"],
        ["evaluate", "--city", "{missing}/city", "--times", "0",
         "--report", "{missing}/r.json"],
        ["stream", "--city", "{missing}/city", "--report", "{missing}/r.json"],
        ["serve-bench", "--tenants", "1", "--chunks", "1", "--intersections", "1",
         "--evaluates-per-chunk", "1", "--json", "{missing}/s.json"],
        ["serve-bench", "--tenants", "1", "--chunks", "1", "--intersections", "1",
         "--evaluates-per-chunk", "1", "--report", "{missing}/r.json"],
        ["frontier", "--intersections", "1", "--alphas", "0", "--horizon", "3600",
         "--json", "{missing}/f.json"],
    ], ids=lambda argv: argv[0] + argv[-2])
    def test_missing_output_directory_exits_before_work(self, argv, tmp_path, capsys):
        missing = tmp_path / "no-such-dir"
        with pytest.raises(SystemExit) as exc:
            main([arg.format(missing=missing) for arg in argv])
        assert exc.value.code == 2
        assert "does not exist" in capsys.readouterr().err


@pytest.fixture(scope="module")
def city_prefix(tmp_path_factory):
    prefix = str(tmp_path_factory.mktemp("cli") / "city")
    rc = main(["simulate", "--scenario", "small", "--hours", "1.0",
               "--seed", "3", "--out", prefix])
    assert rc == 0
    return prefix


class TestPipelineCommands:
    def test_simulate_outputs(self, city_prefix):
        assert os.path.exists(f"{city_prefix}.trace.txt")
        assert os.path.exists(f"{city_prefix}.net.json")
        assert os.path.getsize(f"{city_prefix}.trace.txt") > 10_000

    def test_stats(self, city_prefix, capsys):
        rc = main(["stats", f"{city_prefix}.trace.txt"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "update interval" in out
        assert "stationary" in out

    def test_identify_with_truth(self, city_prefix, capsys):
        rc = main(["identify", "--city", city_prefix, "--at", "3600",
                   "--backend", "serial"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "dCycle" in out  # ground truth present -> scored output
        assert "cycle" in out

    def test_identify_writes_report(self, city_prefix, capsys, tmp_path):
        import json

        path = str(tmp_path / "report.json")
        rc = main(["identify", "--city", city_prefix, "--at", "3600",
                   "--backend", "serial", "--report", path])
        assert rc == 0
        out = capsys.readouterr().out
        assert "wrote run report" in out
        doc = json.loads(open(path).read())
        assert doc["schema"] == "repro.run_report/v1"
        assert doc["lights"]["total"] > 0
        assert doc["stages"]  # per-stage wall times present
        assert doc["counters"]["samples_primary"] > 0

    def test_navigate(self, capsys):
        rc = main(["navigate", "--cols", "4", "--rows", "4", "--trips", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "overall saving" in out


class TestEvaluateCommand:
    def test_evaluate(self, city_prefix, capsys):
        rc = main(["evaluate", "--city", city_prefix, "--times", "2700", "3600",
                   "--backend", "serial"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cycle length" in out and "cycle-locked" in out


class TestStreamCommand:
    def test_stream_replay(self, city_prefix, capsys, tmp_path):
        import json

        path = str(tmp_path / "stream_report.json")
        rc = main(["stream", "--city", city_prefix, "--chunk", "900",
                   "--report", path])
        assert rc == 0
        out = capsys.readouterr().out
        assert "replaying" in out
        assert "chunk   0" in out
        assert "final estimates" in out
        assert "true cycle" in out  # ground truth present -> scored output
        doc = json.loads(open(path).read())
        assert doc["schema"] == "repro.run_report/v1"
        assert len(doc["chunks"]) >= 3
        assert sum(c["n_records"] for c in doc["chunks"]) > 0

    def test_stream_backend_flag_on_identify(self, city_prefix, capsys):
        rc = main(["identify", "--city", city_prefix, "--at", "3600",
                   "--backend", "stream"])
        assert rc == 0
        assert "cycle" in capsys.readouterr().out


class TestServeBenchCommand:
    def test_serve_bench_meets_slo(self, capsys, tmp_path):
        import json

        json_path = str(tmp_path / "serve.json")
        report_path = str(tmp_path / "serve_report.json")
        rc = main(["serve-bench", "--tenants", "2", "--chunks", "3",
                   "--intersections", "1", "--evaluates-per-chunk", "2",
                   "--json", json_path, "--report", report_path])
        assert rc == 0
        out = capsys.readouterr().out
        assert "SLOs met" in out
        assert "0 stale, 0 torn, 0 parity mismatches" in out
        doc = json.loads(open(json_path).read())
        assert doc["n_tenants"] == 2
        assert doc["stale_violations"] == 0
        report = json.loads(open(report_path).read())
        assert report["schema"] == "repro.run_report/v1"
        assert len(report["services"]) == 2

    def test_serve_bench_flags_slo_violation(self, capsys):
        rc = main(["serve-bench", "--tenants", "1", "--chunks", "2",
                   "--intersections", "1", "--evaluates-per-chunk", "1",
                   "--p99-slo-ms", "0.000001"])
        assert rc == 1
        assert "SLO FAILED" in capsys.readouterr().out


class TestMonitorCommand:
    def test_monitor(self, city_prefix, capsys):
        rc = main(["monitor", "--city", city_prefix, "--light", "0:NS",
                   "--every", "600"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "windows" in out and "cycle=" in out

    def test_monitor_bad_light(self, city_prefix, capsys):
        assert main(["monitor", "--city", city_prefix, "--light", "zzz"]) == 2
        assert main(["monitor", "--city", city_prefix, "--light", "99:NS"]) == 2
