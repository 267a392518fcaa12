"""Tests for the three-stage batch driver."""

import pytest

from repro.batch import Batch, FileInfo, Task
from repro.cluster import osc_xio
from repro.core import (
    BiPartitionScheduler,
    MinMinScheduler,
    run_batch,
)
from repro.core.plan import SubBatchPlan
from repro.workloads import generate_synthetic_batch


def shared_batch():
    files = {
        "a": FileInfo("a", 100.0, 0),
        "b": FileInfo("b", 100.0, 1),
        "c": FileInfo("c", 100.0, 0),
        "d": FileInfo("d", 100.0, 1),
    }
    tasks = [
        Task("t0", ("a", "b"), 1.0),
        Task("t1", ("a", "b"), 1.0),
        Task("t2", ("c", "d"), 1.0),
        Task("t3", ("c", "d"), 1.0),
    ]
    return Batch(tasks, files)


class TestRunBatch:
    def test_runs_by_name(self):
        res = run_batch(shared_batch(), osc_xio(2, 2), "bipartition")
        assert res.scheduler == "bipartition"
        assert res.num_tasks == 4
        assert res.makespan > 0

    def test_runs_with_instance(self):
        res = run_batch(
            shared_batch(), osc_xio(2, 2), MinMinScheduler(seed=3)
        )
        assert res.num_tasks == 4

    def test_scheduler_kwargs_forwarded(self):
        res = run_batch(
            shared_batch(),
            osc_xio(2, 2),
            "jdp",
            scheduler_kwargs={"popularity_threshold": 1},
        )
        assert res.num_tasks == 4

    def test_all_tasks_executed_exactly_once(self):
        res = run_batch(shared_batch(), osc_xio(2, 2), "bipartition")
        executed = [
            r.task_id for sb in res.sub_batches for r in sb.execution.records
        ]
        assert sorted(executed) == ["t0", "t1", "t2", "t3"]

    def test_makespan_positive_and_consistent(self):
        res = run_batch(shared_batch(), osc_xio(2, 2), "minmin")
        last = max(
            r.completion
            for sb in res.sub_batches
            for r in sb.execution.records
        )
        assert res.makespan == pytest.approx(last)

    def test_scheduling_time_measured(self):
        res = run_batch(shared_batch(), osc_xio(2, 2), "bipartition")
        assert res.scheduling_seconds > 0.0

    def test_no_replication_flag(self):
        res = run_batch(
            shared_batch(), osc_xio(2, 2), "bipartition",
            allow_replication=False,
        )
        assert res.stats.replications == 0

    def test_subbatching_under_disk_pressure(self):
        # 8 distinct 100 MB files (800 MB) vs 500 MB aggregate disk: the
        # batch cannot run in one sub-batch, but each 200 MB task fits.
        platform = osc_xio(num_compute=2, num_storage=2, disk_space_mb=250.0)
        files = {f"f{i}": FileInfo(f"f{i}", 100.0, i % 2) for i in range(8)}
        tasks = [
            Task(f"t{i}", (f"f{2 * i}", f"f{2 * i + 1}"), 1.0)
            for i in range(4)
        ]
        res = run_batch(Batch(tasks, files), platform, "bipartition")
        assert res.num_sub_batches >= 2
        assert res.num_tasks == 4

    def test_single_task_too_large_rejected(self):
        platform = osc_xio(num_compute=2, num_storage=2, disk_space_mb=150.0)
        with pytest.raises(ValueError, match="footprint"):
            run_batch(shared_batch(), platform, "bipartition")

    def test_base_scheme_single_subbatch_with_evictions(self):
        platform = osc_xio(num_compute=2, num_storage=2, disk_space_mb=250.0)
        batch = generate_synthetic_batch(
            12, 12, 2, 2, file_size_mb=100.0, seed=0
        )
        res = run_batch(batch, platform, "minmin")
        assert res.num_sub_batches == 1
        assert res.stats.evictions > 0  # 1.2 GB through 500 MB of cache

    def test_plan_naming_a_non_pending_task_raises(self):
        # Re-planning the finished first task would re-run it on every
        # pass; the driver refuses the plan instead of looping forever.
        class Replanner(MinMinScheduler):
            name = "replanner"

            def next_subbatch(self, batch, pending, platform, state):
                first = batch.tasks[0].task_id
                return SubBatchPlan([first], {first: 0})

        with pytest.raises(RuntimeError, match="replanner planned .* not pending: t0"):
            run_batch(shared_batch(), osc_xio(2, 2), Replanner())

    def test_candidate_limit_passes_through(self):
        res = run_batch(
            shared_batch(), osc_xio(2, 2), "minmin", candidate_limit=1
        )
        assert res.num_tasks == 4

    def test_results_deterministic_given_seed(self):
        a = run_batch(
            shared_batch(), osc_xio(2, 2), BiPartitionScheduler(seed=5)
        )
        b = run_batch(
            shared_batch(), osc_xio(2, 2), BiPartitionScheduler(seed=5)
        )
        assert a.makespan == pytest.approx(b.makespan)
        assert a.stats.remote_transfers == b.stats.remote_transfers


class TestDiskConstraintHonoured:
    @pytest.mark.parametrize("scheme", ["bipartition", "minmin", "jdp"])
    def test_caches_never_exceed_capacity(self, scheme):
        platform = osc_xio(num_compute=2, num_storage=2, disk_space_mb=300.0)
        batch = generate_synthetic_batch(
            16, 10, 2, 2, file_size_mb=100.0, hot_probability=0.5, seed=1
        )
        res = run_batch(batch, platform, scheme)
        assert res.num_tasks == 16
        # The run finishing is itself the proof: CacheFullError would have
        # been raised on violation. Also check final occupancy.
        # (State is internal to run_batch; re-run via makespan sanity.)
        assert res.makespan > 0

    def test_ip_two_stage_under_pressure(self):
        platform = osc_xio(num_compute=2, num_storage=2, disk_space_mb=220.0)
        batch = shared_batch()
        res = run_batch(
            batch,
            platform,
            "ip",
            scheduler_kwargs={"time_limit": 20.0},
        )
        assert res.num_tasks == 4
        assert res.num_sub_batches >= 1
