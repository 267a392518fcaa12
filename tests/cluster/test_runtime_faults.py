"""Runtime-level fault injection: crashes, retries, failover, disk loss.

Driver-level recovery (rescheduling across surviving nodes) is covered in
``tests/core/test_driver_faults.py``; here the Runtime is driven directly
so individual fault mechanics are observable through the event log.
"""

import math

import pytest

from repro.batch import Batch, FileInfo, Task
from repro.cluster import ClusterState, ComputeNode, Platform, Runtime, StorageNode
from repro.cluster.events import CrashEvent, FailedTransferEvent, TransferEvent
from repro.faults import DiskLoss, FaultModel, FaultSpec, NodeCrash
from repro.workloads import generate_image_batch


def make_platform(num_compute=2, num_storage=1, disk_space_mb=math.inf):
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


def make_runtime(platform, batch, spec=None, events=False):
    state = ClusterState.initial(platform, batch)
    faults = FaultModel(spec) if spec is not None else None
    return Runtime(platform, state, events=events, faults=faults), state


def logged(rt, kind):
    """The runtime's logged events of one type, in commit order."""
    return [e for e in rt.events.events if isinstance(e, kind)]


class TestNullModel:
    def test_null_fault_model_is_bit_identical(self):
        # Even an *instantiated* null model (not just faults=None) must
        # reproduce the fault-free trace exactly.
        batch = generate_image_batch(16, "high", 2, seed=0)
        platform = make_platform(num_compute=4, num_storage=2)
        mapping = {t.task_id: i % 4 for i, t in enumerate(batch.tasks)}

        rt_plain, _ = make_runtime(platform, batch)
        res_plain = rt_plain.execute(batch.tasks, mapping, None)

        rt_null, _ = make_runtime(platform, batch, FaultSpec())
        res_null = rt_null.execute(batch.tasks, mapping, None)

        assert res_null.makespan == res_plain.makespan
        assert res_null.failed_tasks == []
        assert [r.completion for r in res_null.records] == [
            r.completion for r in res_plain.records
        ]


class TestNodeCrash:
    def test_crash_mid_subbatch_fails_remaining_tasks(self):
        # Node 1 dies at t=5; whatever it had not finished comes back in
        # failed_tasks, and nothing on node 1 extends past the crash (E6).
        batch = generate_image_batch(12, "high", 1, seed=0)
        platform = make_platform(num_compute=2)
        mapping = {t.task_id: i % 2 for i, t in enumerate(batch.tasks)}
        spec = FaultSpec(node_crashes=(NodeCrash(1, 5.0),))
        rt, state = make_runtime(platform, batch, spec, events=True)

        res = rt.execute(batch.tasks, mapping, None)

        assert state.dead_nodes == {1}
        assert res.failed_tasks  # the crash interrupted real work
        on_node_1 = {t.task_id for t in batch.tasks if mapping[t.task_id] == 1}
        assert set(res.failed_tasks) <= on_node_1
        done = {r.task_id for r in res.records}
        assert done.isdisjoint(res.failed_tasks)
        assert done | set(res.failed_tasks) == {t.task_id for t in batch.tasks}
        for iv in rt.node_tl[1].intervals:
            assert iv.end <= 5.0 + 1e-9
        assert rt.events is not None
        crashes = logged(rt, CrashEvent)
        assert len(crashes) == 1
        assert crashes[0].node == 1 and crashes[0].time == 5.0
        assert rt.faults is not None
        assert rt.faults.stats.node_crashes == 1
        assert rt.faults.stats.files_lost == len(crashes[0].lost_files)

    def test_dead_node_rejected_on_next_execute(self):
        # After the crash, a second sub-batch mapped onto the dead node
        # immediately fails those tasks instead of scheduling them.
        batch = generate_image_batch(8, "high", 1, seed=0)
        platform = make_platform(num_compute=2)
        spec = FaultSpec(node_crashes=(NodeCrash(1, 0.5),))
        rt, state = make_runtime(platform, batch, spec)
        first, second = batch.tasks[:4], batch.tasks[4:]

        rt.execute(first, {t.task_id: i % 2 for i, t in enumerate(first)}, None)
        assert 1 in state.dead_nodes

        res2 = rt.execute(second, {t.task_id: 1 for t in second}, None)
        assert set(res2.failed_tasks) == {t.task_id for t in second}
        assert res2.records == []


class TestRetriesAndFailover:
    def flaky_spec(self, rate=0.5, seed=0, attempts=4):
        return FaultSpec(
            transfer_failure_rate=rate,
            max_transfer_attempts=attempts,
            seed=seed,
        )

    def run_flaky(self, seed=0):
        batch = generate_image_batch(16, "high", 2, seed=0)
        platform = make_platform(num_compute=4, num_storage=2)
        mapping = {t.task_id: i % 4 for i, t in enumerate(batch.tasks)}
        rt, _ = make_runtime(platform, batch, self.flaky_spec(seed=seed), events=True)
        res = rt.execute(batch.tasks, mapping, None)
        return rt, res

    def test_retry_backoff_is_deterministic(self):
        rt_a, res_a = self.run_flaky(seed=4)
        rt_b, res_b = self.run_flaky(seed=4)
        assert res_a.makespan == res_b.makespan
        assert rt_a.faults.stats.to_dict() == rt_b.faults.stats.to_dict()
        assert [
            (e.file_id, e.dest, e.attempt, e.start)
            for e in logged(rt_a, FailedTransferEvent)
        ] == [
            (e.file_id, e.dest, e.attempt, e.start)
            for e in logged(rt_b, FailedTransferEvent)
        ]

    def test_different_fault_seed_changes_outcome(self):
        _, res_a = self.run_flaky(seed=0)
        _, res_b = self.run_flaky(seed=1)
        assert res_a.makespan != res_b.makespan

    def test_failures_slow_the_batch_down(self):
        batch = generate_image_batch(16, "high", 2, seed=0)
        platform = make_platform(num_compute=4, num_storage=2)
        mapping = {t.task_id: i % 4 for i, t in enumerate(batch.tasks)}
        rt_plain, _ = make_runtime(platform, batch)
        plain = rt_plain.execute(batch.tasks, mapping, None).makespan
        rt_flaky, res_flaky = self.run_flaky(seed=4)
        assert res_flaky.makespan > plain
        stats = rt_flaky.faults.stats
        assert stats.transfer_failures > 0
        assert stats.retries == stats.transfer_failures

    def test_every_failed_transfer_eventually_recovers(self):
        # E7, asserted directly: each failed (file, dest) attempt is
        # followed (in commit order) by a successful transfer.
        rt, _ = self.run_flaky(seed=4)
        events = rt.events.events
        fails = [
            (pos, e) for pos, e in enumerate(events)
            if isinstance(e, FailedTransferEvent)
        ]
        assert fails  # the scenario actually failed things
        for pos, fail in fails:
            assert any(
                isinstance(ev, TransferEvent)
                and ev.file_id == fail.file_id
                and ev.dest == fail.dest
                for ev in events[pos + 1:]
            )

    def test_failover_picks_a_different_source(self):
        # Rate 1.0 with 3 attempts: every staging session goes
        # fail/fail/succeed. Once node 0 holds a replica of "f", node 1's
        # session has two sources (replica from node 0 is cheaper than the
        # storage cluster), so the retry rotation must alternate them.
        files = {"f": FileInfo("f", 100.0, 0)}
        batch = Batch(
            [Task("t0", ("f",), 1.0), Task("t1", ("f",), 1.0)], files
        )
        platform = make_platform(num_compute=2)
        spec = self.flaky_spec(rate=1.0, attempts=3)
        rt, _ = make_runtime(platform, batch, spec, events=True)

        rt.execute([batch.task("t0")], {"t0": 0}, None)
        rt.execute([batch.task("t1")], {"t1": 1}, None)

        fails = [e for e in logged(rt, FailedTransferEvent) if e.dest == 1]
        assert [e.attempt for e in fails] == [0, 1]
        # First (cheapest) try is the compute-side replica, the retry
        # fails over to the next-cheapest source: the storage cluster.
        assert fails[0].kind == "replica" and fails[0].source_node == 0
        assert fails[1].kind == "remote"
        assert rt.faults.stats.failovers >= 1
        success = [
            e for e in logged(rt, TransferEvent)
            if e.dest == 1 and e.file_id == "f"
        ]
        assert len(success) == 1

    def test_backoff_separates_attempts(self):
        # Consecutive attempts of one session are spaced by at least the
        # configured backoff.
        files = {"f": FileInfo("f", 100.0, 0)}
        batch = Batch([Task("t0", ("f",), 1.0)], files)
        platform = make_platform(num_compute=1)
        spec = FaultSpec(
            transfer_failure_rate=1.0,
            max_transfer_attempts=3,
            backoff_base_s=2.0,
            backoff_factor=2.0,
        )
        rt, _ = make_runtime(platform, batch, spec, events=True)
        rt.execute(batch.tasks, {"t0": 0}, None)
        fails = sorted(
            logged(rt, FailedTransferEvent), key=lambda e: e.attempt
        )
        assert len(fails) == 2
        assert fails[1].start >= fails[0].end + 2.0 - 1e-9
        success = logged(rt, TransferEvent)[0]
        assert success.start >= fails[1].end + 4.0 - 1e-9


class TestDiskLoss:
    def test_capacity_shrinks_at_event_time(self):
        batch = generate_image_batch(12, "high", 1, seed=0)
        platform = make_platform(num_compute=2, disk_space_mb=2000.0)
        mapping = {t.task_id: i % 2 for i, t in enumerate(batch.tasks)}
        spec = FaultSpec(disk_losses=(DiskLoss(0, 0.0, 500.0),))
        rt, state = make_runtime(platform, batch, spec)
        rt.execute(batch.tasks, mapping, None)
        assert state.caches[0].capacity_mb == pytest.approx(1500.0)
        assert state.caches[1].capacity_mb == pytest.approx(2000.0)
        assert rt.faults.stats.disk_losses == 1
