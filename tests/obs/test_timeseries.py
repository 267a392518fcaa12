"""Simulated-time series: determinism, schema, null object.

The series (:mod:`repro.obs.timeseries`) is folded from the run's event log
at commit points in *simulated* time only, so its output is a pure function
of the run's decisions — exact golden comparison, not tolerance bands.
These tests pin that: two checked-in golden blocks (a fault-free run, and
one with pushes, evictions, retries, a crash and slowdown markers), schema
rejection of mutated blocks, and the allocation-free disabled path
(``timeseries=False`` must never construct a probe).
"""

import json
from pathlib import Path

import pytest

from repro.cluster.platform import osc_xio
from repro.core.driver import run_batch
from repro.experiments import ExperimentConfig
from repro.obs import validate_manifest
from repro.obs.core import telemetry
from repro.obs.export import build_manifest
from repro.cluster.events import EventLog
from repro.obs.timeseries import TimeSeriesProbe
from repro.workloads.image import generate_image_batch

GOLDEN_PATH = Path(__file__).with_name("golden_timeseries.json")
FAULTS_GOLDEN_PATH = Path(__file__).with_name("golden_timeseries_faults.json")

#: ``examples/faults/degraded-platform.json`` without its second slowdown.
FAULTS_SPEC = {
    "node_crashes": [{"node": 1, "time": 5.0}],
    "transfer_failure_rate": 0.2,
    "link_slowdowns": [
        {"start": 2.0, "end": 8.0, "factor": 2.0, "scope": "all"},
    ],
    "disk_losses": [{"node": 0, "time": 1.0, "lost_mb": 500.0}],
    "seed": 3,
}


@pytest.fixture(autouse=True)
def clean_registry():
    telemetry.reset()
    telemetry.disable()
    yield
    telemetry.reset()
    telemetry.disable()


def golden_run(**overrides):
    batch = generate_image_batch(16, "high", 4, seed=0)
    platform = osc_xio(num_compute=4, num_storage=4, disk_space_mb=4000.0)
    kwargs = dict(candidate_limit=25, timeseries=True)
    kwargs.update(overrides)
    return run_batch(batch, platform, "minmin", **kwargs)


def faults_run():
    """JDP on tight disks: DLL pushes, evictions, retries, a crash and a
    slowdown window, all folded from one audited event log."""
    return run_batch(
        generate_image_batch(24, "high", 4, seed=0),
        osc_xio(4, 4, disk_space_mb=1200.0),
        "jdp",
        candidate_limit=25,
        faults=FAULTS_SPEC,
        timeseries=True,
        audit=True,
    )


class TestDisabledPath:
    """``timeseries`` off must be allocation-free, not merely empty."""

    @pytest.mark.parametrize("value", [None, False])
    def test_no_probe_constructed(self, monkeypatch, value):
        def boom(self, *a, **k):
            raise AssertionError("TimeSeriesProbe constructed while disabled")

        monkeypatch.setattr(TimeSeriesProbe, "__init__", boom)
        result = golden_run(timeseries=value)
        assert result.timeseries is None

    def test_default_is_off(self, monkeypatch):
        monkeypatch.setattr(
            TimeSeriesProbe,
            "__init__",
            lambda *a, **k: (_ for _ in ()).throw(AssertionError("probe")),
        )
        batch = generate_image_batch(6, "high", 4, seed=0)
        result = run_batch(batch, osc_xio(), "minmin")
        assert result.timeseries is None

    def test_disabled_makespan_matches_enabled(self):
        off = golden_run(timeseries=False)
        on = golden_run(timeseries=True)
        assert off.makespan == on.makespan
        assert off.stats == on.stats


class TestGolden:
    def test_matches_golden_file(self):
        got = json.loads(json.dumps(golden_run().timeseries, sort_keys=True))
        want = json.loads(GOLDEN_PATH.read_text())
        assert got == want

    def test_deterministic_across_runs(self):
        a = golden_run().timeseries
        b = golden_run().timeseries
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_faults_run_matches_golden_file(self):
        result = faults_run()
        got = json.loads(json.dumps(result.timeseries, sort_keys=True))
        assert got == json.loads(FAULTS_GOLDEN_PATH.read_text())
        # 185 events plus the one applied disk loss, which the fold skips.
        assert result.audit_report.checked_events == 186
        kinds = {e["kind"] for e in got["events"]}
        assert {"crash", "retry", "slowdown-start", "subbatch"} <= kinds
        assert result.stats.evictions > 0

    def test_expected_shape(self):
        ts = golden_run().timeseries
        assert ts["version"] == 1
        assert ts["samples"] == 16  # one sample per committed task
        assert "ready_tasks" in ts["series"]
        assert "remote_mb" in ts["series"]
        for node in range(4):
            assert f"disk_used_mb/compute{node}" in ts["series"]
            assert f"port_busy_s/compute{node}" in ts["series"]


class TestSchema:
    def manifest(self):
        return build_manifest(golden_run(), config_digest="0" * 64)

    def test_block_validates_in_manifest(self):
        assert validate_manifest(self.manifest()) == []

    def test_probe_free_manifest_has_no_block(self):
        manifest = build_manifest(golden_run(timeseries=False))
        assert "timeseries" not in manifest
        assert validate_manifest(manifest) == []

    def test_rejects_mutations(self):
        base = self.manifest()

        missing = json.loads(json.dumps(base))
        del missing["timeseries"]["budget"]
        assert validate_manifest(missing)

        extra = json.loads(json.dumps(base))
        extra["timeseries"]["surprise"] = 1
        assert validate_manifest(extra)

        corrupt = json.loads(json.dumps(base))
        name = next(iter(corrupt["timeseries"]["series"]))
        corrupt["timeseries"]["series"][name]["points"] = [["late", 1.0]]
        assert validate_manifest(corrupt)

        bad_event = json.loads(json.dumps(base))
        bad_event["timeseries"]["events"] = [{"kind": "crash"}]  # no t
        assert validate_manifest(bad_event)


class TestDownsampling:
    def test_merge_adjacent_keeps_later_points(self):
        probe = TimeSeriesProbe(EventLog(), budget=4)
        for i in range(8):
            probe._point("x", "u", float(i), float(i))
        series = probe.to_dict()["series"]["x"]
        assert series["points"] == [[1.0, 1.0], [3.0, 3.0], [5.0, 5.0], [7.0, 7.0]]
        assert probe.to_dict()["compactions"] == 1

    def test_bounded_at_twice_budget(self):
        probe = TimeSeriesProbe(EventLog(), budget=8)
        for i in range(10_000):
            probe._point("x", "u", float(i), float(i))
        points = probe.to_dict()["series"]["x"]["points"]
        assert len(points) <= 2 * 8 - 1
        assert points[-1] == [9999.0, 9999.0]


class TestWorkerMerge:
    """Probes only observe, so the toggle stays out of a sweep cell's key."""

    def test_timeseries_not_in_cache_key(self):
        import dataclasses

        from repro.parallel.cache import config_key

        cfg_on = ExperimentConfig(
            experiment="test",
            workload="image",
            overlap="high",
            num_tasks=8,
            storage="xio",
            scheme="minmin",
            timeseries=True,
        )
        cfg_off = dataclasses.replace(cfg_on, timeseries=False)
        assert config_key(cfg_on) == config_key(cfg_off)


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(golden_run().timeseries, indent=2, sort_keys=True) + "\n"
    )
    FAULTS_GOLDEN_PATH.write_text(
        json.dumps(faults_run().timeseries, sort_keys=True) + "\n"
    )
