"""Run-manifest assembly, schema validation, golden file, traces."""

import copy
import json
from pathlib import Path

import pytest

from repro.cluster.platform import osc_xio
from repro.core.driver import run_batch
from repro.experiments import run_stream_config, stream_config_from_dict
from repro.obs import (
    MANIFEST_KIND,
    MANIFEST_VERSION,
    build_manifest,
    build_stream_manifest,
    load_schema,
    merged_chrome_trace,
    validate_manifest,
    write_manifest,
)
from repro.obs.core import telemetry
from repro.obs.schema import validate
from repro.workloads import generate_image_batch

GOLDEN_PATH = Path(__file__).with_name("golden_manifest.json")
STREAM_SPEC = (
    Path(__file__).resolve().parents[2] / "examples" / "streams" / "trace-smoke.json"
)


@pytest.fixture(autouse=True)
def clean_registry():
    telemetry.reset()
    telemetry.disable()
    yield
    telemetry.reset()
    telemetry.disable()


def golden_result():
    """The fixed run behind the checked-in golden manifest (deterministic)."""
    batch = generate_image_batch(16, "high", 4, seed=0)
    platform = osc_xio(num_compute=4, num_storage=4, disk_space_mb=4000.0)
    return run_batch(
        batch, platform, "minmin", candidate_limit=25, telemetry=True
    )


def normalize(manifest: dict) -> dict:
    """Strip everything wall-clock- or environment-dependent.

    Span *counts* are deterministic (they mirror simulated control flow) but
    their timings are not; versions and the scheduling wall time vary by
    machine. Everything else in the manifest derives from the simulation and
    must be bit-stable across runs.
    """
    doc = copy.deepcopy(manifest)
    doc["versions"] = {k: "normalized" for k in doc["versions"]}
    doc["config_digest"] = "0" * 64
    doc["result"]["scheduling_seconds"] = 0.0
    tel = doc.get("telemetry")
    if tel:
        tel["spans"] = {
            path: {
                "count": span["count"],
                "total_s": 0.0,
                "mean_s": 0.0,
                "min_s": 0.0,
                "max_s": 0.0,
            }
            for path, span in tel["spans"].items()
        }
    return doc


class TestBuildManifest:
    def test_validates_against_checked_in_schema(self):
        manifest = build_manifest(golden_result(), config_digest="0" * 64)
        assert validate_manifest(manifest) == []
        assert manifest["kind"] == MANIFEST_KIND
        assert manifest["manifest_version"] == MANIFEST_VERSION

    def test_validates_without_telemetry_attachments(self):
        # run_batch(telemetry=False) leaves metrics/telemetry/decisions None;
        # the schema declares them nullable.
        batch = generate_image_batch(6, "high", 4, seed=0)
        result = run_batch(batch, osc_xio(), "jdp")
        manifest = build_manifest(result)
        assert validate_manifest(manifest) == []
        assert manifest["metrics"] is None
        assert manifest["telemetry"] is None

    def test_schema_rejects_mutations(self):
        manifest = build_manifest(golden_result(), config_digest="0" * 64)
        missing = dict(manifest)
        del missing["stats"]
        assert validate_manifest(missing)
        extra = dict(manifest)
        extra["surprise"] = 1
        assert validate_manifest(extra)
        wrong = copy.deepcopy(manifest)
        wrong["result"]["makespan_s"] = "fast"
        assert validate_manifest(wrong)

    def test_matches_golden_file(self):
        got = normalize(build_manifest(golden_result(), config_digest="0" * 64))
        want = json.loads(GOLDEN_PATH.read_text())
        assert got == want

    def test_each_number_is_stated_once(self):
        # The stats block carries the transfer counters, the decisions block
        # the decision-log summary and the faults block the recovery
        # counters; none reappears in the metrics block or the telemetry.
        faulted = run_batch(
            generate_image_batch(16, "high", 4, seed=0),
            osc_xio(num_compute=4, num_storage=4, disk_space_mb=4000.0),
            "jdp",
            candidate_limit=25,
            telemetry=True,
            faults={
                "node_crashes": [{"node": 1, "time": 5.0}],
                "transfer_failure_rate": 0.2,
                "seed": 3,
            },
        )
        stream = run_stream_config(
            stream_config_from_dict(json.loads(STREAM_SPEC.read_text())),
            warm=True,
        )
        manifests = [
            build_manifest(golden_result()),
            build_manifest(faulted),
            build_stream_manifest(stream),
        ]
        assert "faults" in manifests[1]
        for manifest in manifests:
            assert validate_manifest(manifest) == []
            metrics = manifest["metrics"] or {}
            assert not set(manifest["stats"]) & set(metrics)
            assert "estimation" not in metrics
            tel = manifest["telemetry"] or {}
            assert not [
                name for name in (*tel.get("counters", {}), *tel.get("gauges", {}))
                if name.startswith(("metrics/", "faults/"))
            ]

    def test_golden_file_itself_validates(self):
        golden = json.loads(GOLDEN_PATH.read_text())
        assert validate(golden, load_schema()) == []

    def test_write_manifest_round_trips(self, tmp_path):
        manifest = build_manifest(golden_result(), config_digest="0" * 64)
        path = write_manifest(manifest, tmp_path / "m.json")
        assert json.loads(path.read_text()) == manifest


class TestMergedChromeTrace:
    def test_both_processes_present(self):
        telemetry.reset()
        telemetry.enable(keep_events=True)
        try:
            batch = generate_image_batch(8, "high", 4, seed=0)
            result = run_batch(batch, osc_xio(), "minmin", telemetry=True)
            doc = json.loads(merged_chrome_trace(result.runtime, telemetry))
        finally:
            telemetry.keep_events = False
        events = doc["traceEvents"]
        pids = {ev["pid"] for ev in events}
        assert pids == {0, 1}
        tele_spans = [ev for ev in events if ev.get("cat") == "telemetry"]
        assert tele_spans, "wall-clock span events missing from merged trace"
        names = {ev["name"] for ev in events if ev.get("ph") == "M"}
        assert "process_name" in names and "thread_name" in names


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(
            normalize(build_manifest(golden_result(), config_digest="0" * 64)),
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
