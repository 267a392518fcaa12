"""Unit tests for the batch/task/file data model and sharing metrics."""

import math

import pytest

from repro.batch import (
    Batch,
    FileInfo,
    Task,
    overlap_fraction,
    pairwise_overlap,
)


@pytest.fixture
def batch():
    files = {
        "a": FileInfo("a", 10.0, 0),
        "b": FileInfo("b", 20.0, 1),
        "c": FileInfo("c", 30.0, 0),
    }
    tasks = [
        Task("t0", ("a", "b"), 1.0),
        Task("t1", ("b", "c"), 2.0),
        Task("t2", ("a", "b", "c"), 3.0),
    ]
    return Batch(tasks, files)


class TestValidation:
    def test_file_validation(self):
        with pytest.raises(ValueError):
            FileInfo("f", 0.0, 0)
        with pytest.raises(ValueError):
            FileInfo("f", 5.0, -1)

    def test_task_validation(self):
        with pytest.raises(ValueError):
            Task("t", (), 1.0)
        with pytest.raises(ValueError):
            Task("t", ("a", "a"), 1.0)
        with pytest.raises(ValueError):
            Task("t", ("a",), -1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, value):
        # NaN passes every ordered comparison's negation, so each check
        # must also ask for a finite value.
        with pytest.raises(ValueError, match="finite"):
            FileInfo("f", value, 0)
        with pytest.raises(ValueError, match="finite"):
            Task("t", ("a",), value)

    def test_unknown_file_rejected(self):
        with pytest.raises(ValueError):
            Batch([Task("t", ("zzz",), 1.0)], {})

    def test_duplicate_task_ids_rejected(self):
        f = {"a": FileInfo("a", 1.0, 0)}
        with pytest.raises(ValueError):
            Batch([Task("t", ("a",), 1.0), Task("t", ("a",), 2.0)], f)


class TestAccessors:
    def test_len_iter(self, batch):
        assert len(batch) == 3
        assert [t.task_id for t in batch] == ["t0", "t1", "t2"]

    def test_lookup(self, batch):
        assert batch.task("t1").compute_time == 2.0
        assert batch.file("c").size_mb == 30.0
        assert batch.file_size("a") == 10.0

    def test_task_input_mb(self, batch):
        assert batch.task_input_mb("t0") == 30.0
        assert batch.task_input_mb(batch.task("t2")) == 60.0

    def test_access_map(self, batch):
        acc = batch.access_map()
        assert acc["t0"] == ("a", "b")

    def test_require_map(self, batch):
        req = batch.require_map()
        assert set(req["b"]) == {"t0", "t1", "t2"}
        assert set(req["a"]) == {"t0", "t2"}

    def test_referenced_files(self, batch):
        assert batch.referenced_files() == {"a", "b", "c"}

    def test_volumes(self, batch):
        assert batch.distinct_file_mb == 60.0
        assert batch.total_access_mb == 30.0 + 50.0 + 60.0
        assert batch.total_compute_time == 6.0
        assert batch.max_task_footprint_mb() == 60.0

    def test_subset(self, batch):
        sub = batch.subset(["t0"])
        assert len(sub) == 1
        assert sub.referenced_files() == {"a", "b"}

    def test_subset_unknown_task(self, batch):
        with pytest.raises(KeyError):
            batch.subset(["nope"])


class TestOverlapMetrics:
    def test_overlap_fraction_zero_when_disjoint(self):
        files = {f"f{i}": FileInfo(f"f{i}", 1.0, 0) for i in range(4)}
        tasks = [Task(f"t{i}", (f"f{i}",), 1.0) for i in range(4)]
        assert overlap_fraction(Batch(tasks, files)) == 0.0

    def test_overlap_fraction_high_when_identical(self):
        files = {"f": FileInfo("f", 1.0, 0)}
        tasks = [Task(f"t{i}", ("f",), 1.0) for i in range(10)]
        assert overlap_fraction(Batch(tasks, files)) == pytest.approx(0.9)

    def test_pairwise_identical(self):
        files = {"f": FileInfo("f", 1.0, 0), "g": FileInfo("g", 1.0, 0)}
        tasks = [Task(f"t{i}", ("f", "g"), 1.0) for i in range(3)]
        assert pairwise_overlap(Batch(tasks, files)) == pytest.approx(1.0)

    def test_pairwise_disjoint(self):
        files = {f"f{i}": FileInfo(f"f{i}", 1.0, 0) for i in range(4)}
        tasks = [
            Task("t0", ("f0", "f1"), 1.0),
            Task("t1", ("f2", "f3"), 1.0),
        ]
        assert pairwise_overlap(Batch(tasks, files)) == 0.0

    def test_pairwise_partial(self, batch):
        # pairs: (t0,t1): |{b}|/2=0.5; (t0,t2): |{a,b}|/2=1.0; (t1,t2): 1.0
        assert pairwise_overlap(batch) == pytest.approx((0.5 + 1.0 + 1.0) / 3)

    def test_pairwise_sampling(self):
        files = {f"f{i}": FileInfo(f"f{i}", 1.0, 0) for i in range(3)}
        tasks = [Task(f"t{i}", ("f0",), 1.0) for i in range(30)]
        b = Batch(tasks, files)
        assert pairwise_overlap(b, sample_pairs=50, seed=1) == pytest.approx(1.0)

    def test_single_task_batch(self):
        files = {"f": FileInfo("f", 1.0, 0)}
        b = Batch([Task("t", ("f",), 1.0)], files)
        assert pairwise_overlap(b) == 0.0
        assert overlap_fraction(b) == 0.0
