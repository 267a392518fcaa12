"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main

FAULT_SPEC = (
    Path(__file__).resolve().parent.parent
    / "examples" / "faults" / "crash-and-flaky.json"
)


def scheme_row(out, scheme):
    """The run table's row for ``scheme``, without the wall-clock column."""
    line = next(row for row in out.splitlines() if row.startswith(scheme))
    cells = line.split()
    return cells[:2] + cells[3:]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.workload == "image"
        assert args.schemes == ["bipartition", "minmin"]

    def test_figure_choices(self):
        args = build_parser().parse_args(["figure", "fig5a"])
        assert args.name == "fig5a"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig9z"])


class TestCommands:
    def test_schedulers(self, capsys):
        assert main(["schedulers"]) == 0
        out = capsys.readouterr().out
        for scheme in ("ip", "bipartition", "minmin", "jdp", "maxmin", "sufferage"):
            assert scheme in out

    def test_workload_describe(self, capsys):
        assert main(["workload", "--workload", "sat", "--tasks", "12"]) == 0
        out = capsys.readouterr().out
        assert "distinct data" in out
        assert "sharing fraction" in out

    def test_run_basic(self, capsys):
        rc = main(
            [
                "run",
                "--workload",
                "synthetic",
                "--tasks",
                "8",
                "--schemes",
                "bipartition",
                "jdp",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "bipartition" in out
        assert "jdp" in out
        assert "makespan" in out

    def test_run_synthetic_takes_the_parallel_path(self, capsys):
        argv = ["run", "--workload", "synthetic", "--tasks", "12",
                "--schemes", "minmin"]
        assert main(argv + ["--workers", "2"]) == 0
        fanned = capsys.readouterr().out
        assert main(argv + ["--workers", "1"]) == 0
        serial = capsys.readouterr().out
        assert "note:" not in fanned
        assert scheme_row(fanned, "minmin") == scheme_row(serial, "minmin")

    def test_run_no_replication(self, capsys):
        rc = main(
            [
                "run",
                "--workload",
                "synthetic",
                "--tasks",
                "6",
                "--schemes",
                "minmin",
                "--no-replication",
            ]
        )
        assert rc == 0
        # replica MB column must be zero
        line = next(
            l for l in capsys.readouterr().out.splitlines()
            if l.startswith("minmin")
        )
        assert float(line.split()[4]) == 0.0

    def test_run_with_gantt(self, capsys):
        rc = main(
            [
                "run",
                "--workload",
                "synthetic",
                "--tasks",
                "6",
                "--schemes",
                "bipartition",
                "--gantt",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "x=transfer" in out

    def test_run_with_trace(self, tmp_path, capsys):
        trace_file = tmp_path / "trace.json"
        rc = main(
            [
                "run",
                "--workload",
                "synthetic",
                "--tasks",
                "6",
                "--schemes",
                "bipartition",
                "--trace",
                str(trace_file),
            ]
        )
        assert rc == 0
        doc = json.loads(trace_file.read_text())
        assert doc["traceEvents"]

    def test_run_gantt_prints_the_same_schedule(self, capsys):
        # Disk pressure: the driver evicts between BiPartition's sub-batches.
        args = [
            "run", "--tasks", "40", "--disk-gb", "1.0",
            "--schemes", "bipartition",
        ]
        assert main(args) == 0
        plain = scheme_row(capsys.readouterr().out, "bipartition")
        assert main([*args, "--gantt"]) == 0
        out = capsys.readouterr().out
        assert "x=transfer" in out
        assert scheme_row(out, "bipartition") == plain

    def test_run_trace_under_faults(self, tmp_path, capsys):
        trace_file = tmp_path / "trace.json"
        rc = main(
            [
                "run", "--tasks", "12", "--schemes", "bipartition",
                "--faults", str(FAULT_SPEC), "--trace", str(trace_file),
                "--gantt",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "fault injection:" in out
        assert "x=transfer" in out
        assert json.loads(trace_file.read_text())["traceEvents"]

    @pytest.mark.parametrize("command", ["metrics", "profile"])
    def test_obs_commands_validate_the_fault_spec(self, command, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"transfer_failure_rate": 2.0}))
        with pytest.raises(SystemExit, match="invalid fault spec"):
            main([command, "fig5b", "--tasks", "8", "--faults", str(bad)])
        missing = tmp_path / "missing.json"
        with pytest.raises(SystemExit, match="cannot read fault spec"):
            main([command, "fig5b", "--tasks", "8", "--faults", str(missing)])

    def test_profile_shows_work_counters(self, capsys):
        rc = main(["profile", "fig6b", "--tasks", "12", "--scheme", "minmin"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "MCT mapping work" in out
        assert "pair_evaluations" in out
        assert "runtime ECT search work" in out
        for counter in ("duplicates", "evaluations", "slot_searches", "slot_reuses"):
            assert counter in out

    def test_figure_fig5a_with_csv(self, tmp_path, capsys):
        csv_file = tmp_path / "fig.csv"
        rc = main(["figure", "fig5a", "--tasks", "12", "--csv", str(csv_file)])
        assert rc == 0
        lines = csv_file.read_text().strip().splitlines()
        assert lines[0].startswith("experiment,")
        assert len(lines) == 5  # header + 2 workloads x (rep, norep)

    def test_workload_save_and_run_load(self, tmp_path, capsys):
        saved = tmp_path / "batch.json"
        rc = main(
            [
                "workload", "--workload", "synthetic", "--tasks", "6",
                "--save", str(saved),
            ]
        )
        assert rc == 0
        assert saved.exists()
        rc = main(
            ["run", "--load", str(saved), "--schemes", "bipartition"]
        )
        assert rc == 0
        assert "bipartition" in capsys.readouterr().out

    def test_run_load_rejects_incompatible_platform(self, tmp_path):
        saved = tmp_path / "batch.json"
        main(
            [
                "workload", "--workload", "synthetic", "--tasks", "4",
                "--storage-nodes", "4", "--save", str(saved),
            ]
        )
        with pytest.raises(SystemExit, match="storage node"):
            main(
                [
                    "run", "--load", str(saved), "--storage-nodes", "1",
                    "--schemes", "minmin",
                ]
            )

    def test_figure_fig3b_reduced(self, capsys):
        rc = main(["figure", "fig3b", "--tasks", "8", "--ip-time-limit", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bipartition" in out
        assert "zero" in out
