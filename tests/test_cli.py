"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
FAULT_SPEC = EXAMPLES / "faults" / "crash-and-flaky.json"
STREAM_SPEC = EXAMPLES / "streams" / "poisson-osumed.json"


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

    def test_stream_rejects_an_unknown_storage(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "experiment": "t", "workload": "sat", "overlap": "high",
            "num_jobs": 4, "storage": "XIO",
        }))
        assert main(["stream", str(spec)]) == 2
        assert "unknown storage 'XIO'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec, message",
        [
            (None, "No such file or directory"),
            ("{not json", "Expecting property name"),
            ({"policy": "nosuch"}, "unknown admission policy 'nosuch'"),
            ({"arrival": {"kind": "nosuch"}}, "unknown arrival kind 'nosuch'"),
        ],
    )
    def test_stream_spec_errors_are_usage_errors(self, spec, message, tmp_path, capsys):
        path = tmp_path / "spec.json"
        if isinstance(spec, dict):
            spec = json.dumps({**json.loads(STREAM_SPEC.read_text()), **spec})
        if spec is not None:
            path.write_text(spec)
        assert main(["stream", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"invalid stream spec {path}: ")
        assert message in err

    def test_stream_both_modes_prints_each_modes_faults(self, capsys):
        # Warm reads the spec on the stream clock, cold windows on their
        # own, so the warm-vs-cold line comes with each mode's faults.
        spec = EXAMPLES / "streams" / "trace-faults.json"
        assert main(["stream", str(spec), "--mode", "both"]) == 0
        lines = capsys.readouterr().out.splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("warm vs cold"))
        assert lines[at + 1].startswith(
            "  faults warm vs cold (not the same exposure): "
            "crashes 1 vs 0, disk losses 1 vs 0, transfer failures "
        )

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

    def test_chaos_audits_and_writes_both_files(self, tmp_path, capsys):
        csv_file, json_file = tmp_path / "c.csv", tmp_path / "c.json"
        rc = main(
            [
                "chaos", "--tasks", "8", "--rates", "0", "0.2",
                "--schemes", "minmin", "--crash-node", "1", "--crash-time", "2",
                "--csv", str(csv_file), "--json", str(json_file),
            ]
        )
        assert rc == 0
        assert "every cell passed the E1-E8 trace audit" in capsys.readouterr().out
        lines = csv_file.read_text().splitlines()
        assert lines[0].startswith("experiment,") and len(lines) == 3
        records = json.loads(json_file.read_text())["records"]
        assert [(r["scheme"], r["x"]) for r in records] == [
            ("minmin", 0.0), ("minmin", 0.2)
        ]

    CELL = {"workload": "image", "overlap": "high", "num_tasks": 8, "storage": "xio"}

    def test_metrics_config_file_takes_disk_gb(self, tmp_path, capsys):
        config = tmp_path / "cell.json"
        config.write_text(json.dumps({**self.CELL, "disk_gb": 4, "scheme": "minmin"}))
        out = tmp_path / "m.json"
        assert main(["metrics", str(config), "--out", str(out)]) == 0
        manifest = json.loads(out.read_text())
        assert manifest["config"]["disk_space_mb"] == 4000.0
        assert manifest["config"]["experiment"] == str(config)

    @pytest.mark.parametrize("command", ["metrics", "profile"])
    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"num_taks": 8}, "unknown config keys: ['num_taks']"),
            ({"workload": "nosuch"}, "unknown workload 'nosuch'"),
            ({"num_tasks": "eight"}, "num_tasks must be an integer >= 1"),
            ({"faults": {"transfer_failure_rate": 2.0}}, "must be in [0, 1]"),
            ({"scheme": "nosuch"}, "unknown scheme 'nosuch'"),
            ({"num_compute": 0}, "num_compute must be an integer >= 1"),
        ],
    )
    def test_invalid_config_file_is_a_usage_error(
        self, command, bad, message, tmp_path, capsys
    ):
        config = tmp_path / "cell.json"
        config.write_text(json.dumps({**self.CELL, **bad}))
        with pytest.raises(SystemExit) as exc:
            main([command, str(config)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"invalid config {config}: " in err
        assert message in err

    @pytest.mark.parametrize("command", ["metrics", "profile"])
    def test_unreadable_config_file_is_a_usage_error(self, command, tmp_path, capsys):
        missing = tmp_path / "nosuch.json"
        with pytest.raises(SystemExit) as exc:
            main([command, str(missing)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "not a readable config file" in err
        assert "No such file or directory" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "--tasks", "0"], "num_tasks must be an integer >= 1"),
            (["audit", "--compute", "0"], "num_compute must be an integer >= 1"),
        ],
    )
    def test_flags_describing_no_cell_are_usage_errors(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--schemes", "minmin"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro {argv[0]}: ")
        assert message in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--tasks", "8"],
            ["audit", "--tasks", "8"],
            ["metrics", "fig5b", "--tasks", "8"],
            ["profile", "fig5b", "--tasks", "8"],
        ],
        ids=lambda argv: argv[0],
    )
    @pytest.mark.parametrize(
        "text, message",
        [
            (None, "No such file or directory"),
            ('{"transfer_failure_rate": 0.1', "Expecting ',' delimiter"),
            ("[1, 2]", "not a JSON object"),
            ('{"transfer_failure_rate": 2.0}', "must be in [0, 1]"),
        ],
        ids=["missing", "truncated", "list", "rate"],
    )
    def test_a_bad_fault_spec_is_a_usage_error(
        self, argv, text, message, tmp_path, capsys
    ):
        spec = tmp_path / "faults.json"
        if text is not None:
            spec.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--faults", str(spec)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro {argv[0]}: invalid fault spec {spec}: ")
        assert message in err

    def test_profile_shows_work_counters(self, capsys):
        # MinMin maps with the MCT kernel, BiPartition with the hypergraph
        # partitioner; both stage through the runtime.
        for scheme, block, counters in (
            ("minmin", "MCT mapping work", ("pair_evaluations",)),
            ("bipartition", "partitioner work", ("bisections", "fm/passes", "fm/moves")),
        ):
            rc = main(["profile", "fig6b", "--tasks", "12", "--scheme", scheme])
            assert rc == 0
            out = capsys.readouterr().out
            assert block in out
            assert "runtime ECT search work" in out
            for counter in (
                *counters,
                "duplicates", "shape_skips", "evaluations", "first_evaluations",
                "slot_searches", "slot_reuses", "slot_skips", "head_walks",
                "head_resumes",
            ):
                assert counter in out
        assert "MCT mapping work" not in out
        assert "cut_weight" not in out

    def test_figure_fig5a_with_csv(self, tmp_path, capsys):
        csv_file = tmp_path / "fig.csv"
        rc = main(
            [
                "figure", "fig5a", "--tasks", "12", "--csv", str(csv_file),
                "--cache-dir", str(tmp_path / "cache"),
            ]
        )
        assert rc == 0
        lines = csv_file.read_text().strip().splitlines()
        assert lines[0].startswith("experiment,")
        assert len(lines) == 5  # header + 2 workloads x (rep, norep)

    def test_figure_clear_cache_applies_without_the_cache(self, capsys, tmp_path):
        argv = ["figure", "fig5b", "--sizes", "8", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        assert len(list(tmp_path.rglob("*.json"))) == 3  # one cell per scheme
        capsys.readouterr()
        # --no-cache never reads or writes the cache; the clear must still
        # happen.
        assert main([*argv, "--no-cache", "--clear-cache"]) == 0
        assert "cache cleared: 3 entries removed" in capsys.readouterr().out
        assert not list(tmp_path.rglob("*.json"))

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

    def test_figure_fig3b_reduced(self, tmp_path, capsys):
        rc = main(
            [
                "figure", "fig3b", "--tasks", "8", "--ip-time-limit", "5",
                "--cache-dir", str(tmp_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "bipartition" in out
        assert "zero" in out
