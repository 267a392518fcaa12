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
    assert lines[-1].endswith("1 jobs, 24 task records: identical")


def test_fig6b_takes_no_workload(capsys):
    with pytest.raises(SystemExit):
        compare_decisions.main(
            ["--base", str(ROOT), "--change", str(ROOT), "--fig6b", "24", "4",
             "--workload", "mct"]
        )
    assert "--fig6b takes no --workload or --seed" in capsys.readouterr().err
