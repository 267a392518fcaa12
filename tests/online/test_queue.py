"""Admission policies: windows, fairness, locality grouping."""

import pytest

from repro.batch import Batch, FileInfo, Task
from repro.online import (
    FIFOWindow,
    JobArrival,
    LocalityWindow,
    SizeCappedWindow,
    make_policy,
)


def _batch_two_groups():
    """Two file-disjoint job groups: t0,t2,t4 share x*, t1,t3,t5 share y*."""
    files = {}
    for fid in ("x0", "x1", "y0", "y1"):
        files[fid] = FileInfo(fid, 100.0, 0)
    tasks = [
        Task("t0", ("x0", "x1"), 1.0),
        Task("t1", ("y0", "y1"), 1.0),
        Task("t2", ("x0", "x1"), 1.0),
        Task("t3", ("y0", "y1"), 1.0),
        Task("t4", ("x0", "x1"), 1.0),
        Task("t5", ("y0", "y1"), 1.0),
    ]
    return Batch(tasks, files)


def _queue(batch):
    return [JobArrival(t.task_id, float(i)) for i, t in enumerate(batch.tasks)]


class TestFIFO:
    def test_drains_everything_in_arrival_order(self):
        batch = _batch_two_groups()
        sel = FIFOWindow().select(_queue(batch), batch, now=10.0)
        assert sel == ["t0", "t1", "t2", "t3", "t4", "t5"]

    def test_empty_queue_rejected(self):
        with pytest.raises(ValueError):
            FIFOWindow().select([], _batch_two_groups(), now=0.0)


class TestSizeCapped:
    def test_oldest_n(self):
        batch = _batch_two_groups()
        sel = SizeCappedWindow(max_jobs=2).select(_queue(batch), batch, 0.0)
        assert sel == ["t0", "t1"]

    def test_cap_validation(self):
        with pytest.raises(ValueError):
            SizeCappedWindow(max_jobs=0)


class TestLocality:
    def test_groups_by_file_overlap(self):
        # With cap 3 the window seeded by t0 should pull in the other two
        # x-sharing jobs (t2, t4), not the interleaved y-jobs.
        batch = _batch_two_groups()
        sel = LocalityWindow(max_jobs=3).select(_queue(batch), batch, 0.0)
        assert sel == ["t0", "t2", "t4"]

    def test_always_includes_oldest(self):
        batch = _batch_two_groups()
        for cap in (1, 2, 3, 4, 5):
            sel = LocalityWindow(max_jobs=cap).select(_queue(batch), batch, 0.0)
            assert "t0" in sel
            assert len(sel) == cap

    def test_small_queue_drains(self):
        batch = _batch_two_groups()
        queued = _queue(batch)[:3]
        sel = LocalityWindow(max_jobs=8).select(queued, batch, 0.0)
        assert sel == ["t0", "t1", "t2"]

    def test_disjoint_jobs_admitted_oldest_first(self):
        # No sharing at all: locality degenerates to the size-capped window.
        files = {f"f{i}": FileInfo(f"f{i}", 50.0, 0) for i in range(6)}
        tasks = [Task(f"t{i}", (f"f{i}",), 1.0) for i in range(6)]
        batch = Batch(tasks, files)
        sel = LocalityWindow(max_jobs=3).select(_queue(batch), batch, 0.0)
        assert sel == ["t0", "t1", "t2"]

    def test_window_dispatched_in_arrival_order(self):
        batch = _batch_two_groups()
        queued = _queue(batch)
        sel = LocalityWindow(max_jobs=4).select(queued, batch, 0.0)
        positions = [next(i for i, q in enumerate(queued) if q.task_id == t)
                     for t in sel]
        assert positions == sorted(positions)


class TestRegistry:
    def test_make_policy(self):
        assert make_policy("fifo").name == "fifo"
        assert make_policy("size", 4).max_jobs == 4
        assert make_policy("locality").max_jobs == 8

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown admission policy"):
            make_policy("lottery")
