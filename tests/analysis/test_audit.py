"""Tests for the executed-trace auditor (E1-E5)."""

import dataclasses
import math

import pytest

from repro.analysis.audit import AuditError, AuditReport, audit_runtime
from repro.batch import Batch, FileInfo, Task
from repro.cluster import (
    ClusterState,
    ComputeNode,
    Platform,
    Runtime,
    StorageNode,
    TaskRecord,
)
from repro.cluster.cache import DiskCache
from repro.cluster.events import (
    DiskLossEvent,
    EvictionEvent,
    ExecEvent,
    FailedTransferEvent,
    TransferEvent,
)
from repro.cluster.gantt import Interval
from repro.core import run_batch
from repro.experiments import ExperimentConfig, run_config
from repro.faults import FaultModel, FaultSpec
from repro.cluster.platform import osc_xio
from repro.workloads import generate_image_batch, generate_synthetic_batch


def make_platform(num_compute=2, num_storage=2, disk_space_mb=math.inf):
    return Platform(
        compute_nodes=tuple(
            ComputeNode(i, disk_space_mb=disk_space_mb, local_disk_bw=200.0)
            for i in range(num_compute)
        ),
        storage_nodes=tuple(
            StorageNode(s, disk_bw=100.0) for s in range(num_storage)
        ),
        storage_network_bw=1000.0,
        compute_network_bw=1000.0,
    )


def small_run(disk_space_mb=math.inf):
    """Two tasks sharing a file across two nodes; audited runtime."""
    platform = make_platform(disk_space_mb=disk_space_mb)
    batch = Batch(
        [Task("t0", ("a", "b"), 1.0), Task("t1", ("a",), 1.0)],
        {"a": FileInfo("a", 100.0, 0), "b": FileInfo("b", 100.0, 1)},
    )
    state = ClusterState.initial(platform, batch)
    rt = Runtime(platform, state, events=True)
    res = rt.execute(batch.tasks, {"t0": 0, "t1": 1})
    return rt, res


# Reduced-scale stand-ins for the six figure drivers (same workload,
# platform shape and scheme families as repro.experiments.figures).
FIGURE_CONFIGS = {
    "fig3": ExperimentConfig(
        experiment="fig3-osumed", workload="image", overlap="high",
        num_tasks=12, storage="osumed", scheme="bipartition", audit=True,
    ),
    "fig4": ExperimentConfig(
        experiment="fig4-osumed", workload="sat", overlap="medium",
        num_tasks=12, storage="osumed", scheme="minmin", audit=True,
    ),
    "fig5a": ExperimentConfig(
        experiment="fig5a", workload="sat", overlap="high", num_tasks=12,
        storage="osumed", num_compute=4, num_storage=2,
        scheme="bipartition", allow_replication=False, audit=True,
    ),
    "fig5b": ExperimentConfig(
        experiment="fig5b", workload="image", overlap="high", num_tasks=24,
        storage="xio", disk_space_mb=2000.0, scheme="jdp",
        candidate_limit=10, audit=True,
    ),
    "fig6a": ExperimentConfig(
        experiment="fig6a", workload="image", overlap="high", num_tasks=16,
        storage="xio", num_compute=6, num_storage=3, scheme="bipartition",
        candidate_limit=10, audit=True,
    ),
    "fig6b": ExperimentConfig(
        experiment="fig6b", workload="image", overlap="high", num_tasks=8,
        storage="xio", num_compute=2, num_storage=2, scheme="ip",
        scheduler_kwargs={"time_limit": 10.0, "mip_rel_gap": 0.1},
        audit=True,
    ),
}


class TestFigureDriversAuditClean:
    @pytest.mark.parametrize("fig", sorted(FIGURE_CONFIGS))
    def test_figure_config_passes_audit(self, fig):
        # run_config -> run_batch(audit=True) raises AuditError on any
        # violation, so a returned record proves the trace verified.
        record = run_config(FIGURE_CONFIGS[fig])
        assert record.makespan_s > 0.0


class TestRandomizedSchedulesAuditClean:
    @pytest.mark.parametrize("scheme", ["minmin", "maxmin", "sufferage"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mct_family_zero_violations(self, scheme, seed):
        platform = make_platform(num_compute=3, num_storage=2,
                                 disk_space_mb=200.0)
        batch = generate_synthetic_batch(
            18, 24, 3, 2, hot_probability=0.6, seed=seed
        )
        result = run_batch(batch, platform, scheme, audit=True)
        assert result.audit_report is not None
        assert result.audit_report.ok, str(result.audit_report)
        assert result.audit_report.checked_events > 0

    def test_disk_pressure_run_with_evictions_audits_clean(self):
        platform = make_platform(num_compute=2, num_storage=2,
                                 disk_space_mb=160.0)
        batch = generate_synthetic_batch(
            14, 20, 3, 2, hot_probability=0.3, seed=5
        )
        result = run_batch(batch, platform, "minmin", audit=True)
        assert result.audit_report.ok, str(result.audit_report)
        # The point of this configuration is to exercise the eviction path.
        assert result.stats.evictions > 0

    def test_overlap_ablation_skips_e4_only(self):
        platform = make_platform(num_compute=2, num_storage=2)
        batch = generate_synthetic_batch(10, 12, 2, 2, seed=3)
        result = run_batch(
            batch, platform, "minmin", overlap_io_compute=True, audit=True
        )
        assert result.audit_report.ok, str(result.audit_report)


class TestCleanTrace:
    def test_small_run_verifies(self):
        rt, res = small_run()
        report = audit_runtime(rt, [res])
        assert report.ok, str(report)
        # Every logged transfer and execution; the sub-batch marker is not
        # an audited event.
        assert report.checked_events == sum(
            isinstance(e, (TransferEvent, ExecEvent)) for e in rt.events.events
        )

    def test_requires_trail(self):
        platform = make_platform()
        batch = Batch([Task("t", ("a",), 1.0)],
                      {"a": FileInfo("a", 10.0, 0)})
        state = ClusterState.initial(platform, batch)
        rt = Runtime(platform, state)  # no event log
        rt.execute(batch.tasks, {"t": 0})
        with pytest.raises(ValueError, match="events=True"):
            audit_runtime(rt)


class TestCorruptedTraces:
    """Each deliberately corrupted trace must be flagged with its code."""

    def test_port_interval_overlap_flagged_e1(self):
        rt, _ = small_run()
        tl = rt.node_tl[0]
        first = tl.intervals[0]
        # Bypass reserve() — splice an overlapping busy interval in.
        mid = (first.start + first.end) / 2
        tl._intervals.append(Interval(mid, first.end + 1.0, "xfer:evil->0"))
        tl._starts.append(mid)
        report = audit_runtime(rt)
        assert any(v.code == "E1" for v in report.violations), str(report)

    def test_transfer_after_exec_start_flagged_e2(self):
        rt, _ = small_run()
        events = rt.events.events
        i = next(i for i, e in enumerate(events) if isinstance(e, TransferEvent))
        events[i] = dataclasses.replace(
            events[i], duration=events[i].duration + 1000.0
        )
        report = audit_runtime(rt)
        assert any(v.code == "E2" for v in report.violations), str(report)

    def test_missing_transfer_flagged_e2(self):
        rt, _ = small_run()
        events = rt.events.events
        consumed = next(e for e in events if isinstance(e, TransferEvent))
        events[:] = [
            e for e in events
            if not (isinstance(e, TransferEvent)
                    and e.file_id == consumed.file_id)
        ]
        report = audit_runtime(rt)
        assert any(
            v.code == "E2" and "no transfer" in v.message
            for v in report.violations
        ), str(report)

    def test_disk_overflow_flagged_e3(self):
        rt, _ = small_run(disk_space_mb=250.0)
        rt.events.append(
            TransferEvent("huge", 10_000.0, "remote", 0, 0, 0.0, 1.0)
        )
        report = audit_runtime(rt)
        assert any(v.code == "E3" for v in report.violations), str(report)

    def test_disk_loss_below_occupancy_flagged_e3(self):
        rt, _ = small_run(disk_space_mb=250.0)
        # Node 0 holds both 100 MB inputs of t0; 150 MB of disk is left.
        rt.events.append(DiskLossEvent(0, 5.0, 100.0))
        report = audit_runtime(rt)
        assert any(
            v.code == "E3" and "after losing 100.0 MB" in v.message
            for v in report.violations
        ), str(report)

    def test_phantom_eviction_flagged_e3(self):
        rt, _ = small_run()
        rt.events.append(EvictionEvent(1, "never-staged", 50.0))
        report = audit_runtime(rt)
        assert any(
            v.code == "E3" and "never staged" in v.message
            for v in report.violations
        ), str(report)

    def test_failure_after_the_last_success_flagged_e7(self):
        platform = make_platform()
        batch = Batch([Task("t", ("a",), 1.0)],
                      {"a": FileInfo("a", 10.0, 0)})
        state = ClusterState.initial(platform, batch)
        rt = Runtime(platform, state, events=True, faults=FaultModel(FaultSpec()))
        rt.execute(batch.tasks, {"t": 0})
        fail = FailedTransferEvent("a", 10.0, "remote", None, 0, 0.0, 0.05)
        # A failure logged before the file's successful transfer recovered.
        staged = next(
            i for i, e in enumerate(rt.events.events)
            if isinstance(e, TransferEvent)
        )
        rt.events.events.insert(staged, fail)
        assert audit_runtime(rt).ok
        # One logged after it never did.
        rt.events.append(fail)
        report = audit_runtime(rt)
        assert [v.code for v in report.violations] == ["E7"], str(report)

    def test_staging_during_execution_flagged_e4(self):
        rt, _ = small_run()
        tl = rt.node_tl[0]
        ex = next(iv for iv in tl.intervals if iv.tag.startswith("exec:"))
        tl._intervals.append(
            Interval(ex.start + 0.1, ex.end - 0.1, "xfer:smuggled->0")
        )
        tl._starts.append(ex.start + 0.1)
        report = audit_runtime(rt)
        assert any(v.code == "E4" for v in report.violations), str(report)

    def test_tampered_record_flagged_e5(self):
        rt, res = small_run()
        rec = res.records[0]
        bad = dataclasses.replace(res, records=[
            dataclasses.replace(rec, exec_start=rec.exec_start - 5.0)
        ])
        report = audit_runtime(rt, [bad])
        assert any(v.code == "E5" for v in report.violations), str(report)

    def test_record_without_exec_event_flagged_e5(self):
        rt, res = small_run()
        ghost = TaskRecord("ghost", 0, 0.0, 0.0, 1.0)
        bad = dataclasses.replace(res, records=[*res.records, ghost])
        report = audit_runtime(rt, [bad])
        assert any(
            v.code == "E5" and "ghost" in v.message
            for v in report.violations
        ), str(report)


class TestReportApi:
    def test_raise_if_violations(self):
        report = AuditReport()
        report.add("E1", "boom")
        with pytest.raises(AuditError, match=r"\[E1\] boom"):
            report.raise_if_violations()

    def test_clean_report_is_ok(self):
        report = AuditReport()
        report.raise_if_violations()
        assert report.ok and str(report) == "OK"

    def test_run_batch_attaches_report(self):
        platform = make_platform()
        batch = generate_synthetic_batch(6, 8, 2, 2, seed=1)
        audited = run_batch(batch, platform, "minmin", audit=True)
        plain = run_batch(batch, platform, "minmin")
        assert audited.audit_report is not None and audited.audit_report.ok
        assert plain.audit_report is None
        assert audited.makespan == pytest.approx(plain.makespan)


class TestDiskLossReplay:
    """E3 holds each disk to the capacity a disk loss left."""

    SPEC = {"disk_losses": [{"node": 0, "time": 0.0, "lost_mb": 500.0}]}

    def run(self):
        # MinMin stages 748 MB on node 0 when its disk stays at 1200 MB.
        return run_batch(
            generate_image_batch(24, "high", 4, seed=0),
            osc_xio(4, 4, disk_space_mb=1200.0),
            "minmin",
            candidate_limit=25,
            faults=self.SPEC,
            audit=True,
        )

    def test_loss_logged_once(self):
        result = self.run()
        log = result.runtime.events
        losses = [e for e in log.events if isinstance(e, DiskLossEvent)]
        assert losses == [DiskLossEvent(0, 0.0, 500.0)]
        assert log.initial_capacity_mb == (1200.0,) * 4
        assert result.runtime.state.caches[0].capacity_mb == 700.0
        assert result.fault_stats.disk_losses == 1

    def test_shrink_that_frees_nothing_trips_e3(self, monkeypatch):
        def shrink(self, lost_mb, victim_order, on_evict=None):
            return []

        monkeypatch.setattr(DiskCache, "shrink", shrink)
        with pytest.raises(AuditError, match=r"\[E3\] node 0 holds"):
            self.run()
