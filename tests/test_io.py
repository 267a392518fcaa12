"""Tests for batch JSON serialization."""

import json

import pytest

from repro.batch import Batch, FileInfo, Task
from repro.io import (
    batch_from_dict,
    batch_to_dict,
    load_batch,
    save_batch,
)
from repro.workloads import generate_sat_batch


@pytest.fixture
def batch():
    files = {
        "a": FileInfo("a", 12.5, 0),
        "b": FileInfo("b", 64.0, 1),
    }
    return Batch(
        [Task("t0", ("a", "b"), 1.5), Task("t1", ("b",), 0.25)], files
    )


class TestBatchRoundTrip:
    def test_roundtrip_equality(self, batch):
        rebuilt = batch_from_dict(batch_to_dict(batch))
        assert [t.task_id for t in rebuilt.tasks] == ["t0", "t1"]
        assert rebuilt.task("t0").files == ("a", "b")
        assert rebuilt.task("t0").compute_time == 1.5
        assert rebuilt.file("b").size_mb == 64.0
        assert rebuilt.file("b").storage_node == 1

    def test_file_roundtrip(self, batch, tmp_path):
        p = tmp_path / "batch.json"
        save_batch(batch, p)
        rebuilt = load_batch(p)
        assert batch_to_dict(rebuilt) == batch_to_dict(batch)

    def test_generated_workload_roundtrip(self, tmp_path):
        original = generate_sat_batch(30, "medium", 4, seed=9)
        p = tmp_path / "sat.json"
        save_batch(original, p)
        rebuilt = load_batch(p)
        assert batch_to_dict(rebuilt) == batch_to_dict(original)
        assert rebuilt.distinct_file_mb == original.distinct_file_mb

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            batch_from_dict({"kind": "pancake", "schema": 1})

    def test_bad_schema_rejected(self, batch):
        doc = batch_to_dict(batch)
        doc["schema"] = 999
        with pytest.raises(ValueError, match="schema"):
            batch_from_dict(doc)

    @pytest.mark.parametrize(
        "section, key, literal",
        [("files", "size_mb", "NaN"), ("tasks", "compute_time", "Infinity")],
    )
    def test_non_finite_value_in_file_rejected(
        self, batch, tmp_path, section, key, literal
    ):
        # Python's json module reads the NaN and Infinity literals.
        doc = batch_to_dict(batch)
        doc[section][0][key] = "PLACEHOLDER"
        p = tmp_path / "batch.json"
        p.write_text(json.dumps(doc).replace('"PLACEHOLDER"', literal))
        with pytest.raises(ValueError, match="finite"):
            load_batch(p)

    def test_json_is_stable(self, batch, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_batch(batch, p1)
        save_batch(batch, p2)
        assert p1.read_text() == p2.read_text()
