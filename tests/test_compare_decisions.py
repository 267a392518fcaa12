"""The decision-check tool ``benchmarks/compare_decisions.py``."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "compare_decisions", ROOT / "benchmarks" / "compare_decisions.py"
)
compare_decisions = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_decisions)


class TestDifferences:
    def test_equal_values_have_none(self):
        job = {"batches": [{"records": [["t0", 1, "0.5"]], "stats": None}]}
        assert compare_decisions.differences(job, job) == []

    def test_each_difference_is_located(self):
        base = {"records": [["t0", 1, "0.5"], ["t1", 0, "1.0"]], "a": 1}
        change = {"records": [["t0", 1, "0.5000000000000001"]], "b": 1}
        assert compare_decisions.differences(base, change, "job[0]") == [
            "job[0].a: only in base",
            "job[0].b: only in change",
            "job[0].records[0][2]: '0.5' in base, '0.5000000000000001' in change",
            "job[0].records: length 2 in base, 1 in change",
        ]

    def test_a_last_bit_timeseries_drift_is_located(self):
        def job(busy):
            points = [[1.0, busy]]
            return {"timeseries": {"series": {"port_busy_s/compute0": {
                "points": points}}}}

        found = compare_decisions.differences(
            job(0.30000000000000004), job(0.3), "job[0]"
        )
        assert found == [
            "job[0].timeseries.series.port_busy_s/compute0.points[0][1]: "
            "0.30000000000000004 in base, 0.3 in change"
        ]


def test_stream_batches_carry_timeseries_and_audit():
    jobs = compare_decisions.run_tree(ROOT, "stream", 1)
    assert len(jobs) == 64
    for job in jobs:
        for batch in job["batches"]:
            # One sample per committed task: the stream's scheme pushes
            # nothing.
            assert batch["timeseries"]["samples"] == len(batch["records"])
            checked, violations = batch["audit"]
            assert checked >= 2 * len(batch["records"])
            assert violations == []


def test_a_tree_matches_itself(capsys):
    code = compare_decisions.main(
        ["--base", str(ROOT), "--change", str(ROOT), "--workload", "stream",
         "--seed", "1"]
    )
    out = capsys.readouterr().out
    assert code == 0, out
    assert out.strip().endswith("identical")


def test_a_tree_without_source_is_an_error(tmp_path, capsys):
    code = compare_decisions.main(
        ["--base", str(tmp_path), "--change", str(ROOT), "--workload", "stream",
         "--seed", "1"]
    )
    assert code == 2
    assert "no program source" in capsys.readouterr().out


def test_a_fig6b_batch_matches_itself(capsys):
    code = compare_decisions.main(
        ["--base", str(ROOT), "--change", str(ROOT), "--fig6b", "24", "4"]
    )
    out = capsys.readouterr().out
    assert code == 0, out
    lines = out.strip().splitlines()
    # Wall time and work counters of each tree, then the verdict.
    assert [line.split(":")[0] for line in lines] == ["base", "change", "fig6b n24c4"]
    assert all(name in lines[0] for name in ("evaluations", "slot_searches", "slot_skips"))
    # Two jobs a tree, MinMin then BiPartition, each with its scheduling time.
    minmin, bipartition = lines[0].removeprefix("base: ").split("; ")
    assert minmin.startswith("minmin ") and bipartition.startswith("bipartition ")
    assert all("s (scheduling " in job for job in (minmin, bipartition))
    assert lines[-1].endswith("2 jobs, 48 task records: identical")


def test_fig6b_repeat_alternates_and_pairs(tmp_path, monkeypatch, capsys):
    order = []

    def run_tree(tree, *job_args):
        # The k-th run takes k seconds a job.
        order.append(tree.name)
        return [
            {"batches": [], "work": {"scheme": scheme, "seconds": float(len(order)),
                                     "scheduling_seconds": 0.5, "evaluations": 7}}
            for scheme in ("minmin", "bipartition")
        ]

    monkeypatch.setattr(compare_decisions, "run_tree", run_tree)
    code = compare_decisions.main(
        ["--base", str(tmp_path / "a"), "--change", str(tmp_path / "b"),
         "--fig6b", "8", "2", "--repeat", "2"]
    )
    out = capsys.readouterr().out
    assert code == 0, out
    assert order == ["a", "b", "a", "b"]
    # Medians: base runs took 1 and 3 s, the change's 2 and 4 s.
    assert out.splitlines() == [
        "base: minmin 2.000 s (scheduling 0.5000 s), evaluations 7; "
        "bipartition 2.000 s (scheduling 0.5000 s), evaluations 7",
        "change: minmin 3.000 s (scheduling 0.5000 s), evaluations 7; "
        "bipartition 3.000 s (scheduling 0.5000 s), evaluations 7",
        "minmin: change over base per pair 2.000 1.333 (median 1.667)",
        "bipartition: change over base per pair 2.000 1.333 (median 1.667)",
        "fig6b n8c2: 2 jobs, 0 task records: identical",
    ]


def test_repeat_needs_fig6b(capsys):
    with pytest.raises(SystemExit):
        compare_decisions.main(
            ["--base", str(ROOT), "--change", str(ROOT), "--workload", "mct",
             "--seed", "1", "--repeat", "2"]
        )
    assert "--repeat needs --fig6b" in capsys.readouterr().err


def test_fig6b_takes_no_workload(capsys):
    with pytest.raises(SystemExit):
        compare_decisions.main(
            ["--base", str(ROOT), "--change", str(ROOT), "--fig6b", "24", "4",
             "--workload", "mct"]
        )
    assert "--fig6b takes no --workload or --seed" in capsys.readouterr().err
