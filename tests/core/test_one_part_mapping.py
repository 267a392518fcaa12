"""BiPartition's one-part mapping against the K-way partitioner.

A sub-batch of one task, or a platform with one surviving node, has one
K-way partition: part 0. ``_map_subbatch`` then maps every task to the
first surviving node without building the hypergraph or calling the
partitioner. These tests pin that shortcut to what the full path gives,
including the scheduler's RNG stream, which must not move either.
"""

import math

import numpy as np
import pytest

from repro.cluster import ClusterState, osc_xio
from repro.core import BiPartitionScheduler, MinMinScheduler, run_batch
from repro.hypergraph import kway_partition
from repro.workloads import generate_synthetic_batch, make_batch

SEEDS = (0, 7)


def crashed_state(platform, batch, dead):
    state = ClusterState.initial(platform, batch)
    for node in dead:
        state.mark_dead(node)
    return state


def full_path(scheduler, batch, task_ids, platform, state, rng):
    """The K-way path for any sub-batch: hypergraph, partitioner drawing
    from ``rng``, disk repair. Returns (mapping, deferred tasks)."""
    tasks = [batch.task(t) for t in task_ids]
    nodes = state.alive_nodes()
    h = scheduler._build_hypergraph(batch, tasks, platform)
    parts = kway_partition(h, len(nodes), rng)
    mapping = {t.task_id: nodes[int(parts[v])] for v, t in enumerate(tasks)}
    deferred = scheduler._repair_disk(batch, tasks, mapping, state)
    for t in deferred:
        del mapping[t]
    return mapping, deferred


def assert_same_as_full_path(batch, task_ids, platform, state, seed):
    ref_rng = np.random.default_rng(seed)
    scheduler = BiPartitionScheduler(seed=seed)
    expected = full_path(scheduler, batch, task_ids, platform, state, ref_rng)
    assert scheduler._map_subbatch(batch, task_ids, platform, state) == expected
    # The shortcut made no draw the partitioner would have made, so the
    # scheduler's stream continues exactly where the reference's does.
    assert scheduler.rng.integers(2**32) == ref_rng.integers(2**32)


# (compute nodes, crashed nodes): 1-6 survivors, some without node 0.
ONE_TASK_PLATFORMS = [
    (1, ()),
    (2, ()),
    (2, (0,)),
    (3, (0,)),
    (4, ()),
    (4, (0, 2)),
    (5, ()),
    (6, ()),
    (7, (0,)),
]


class TestDifferential:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("num_compute,dead", ONE_TASK_PLATFORMS)
    def test_one_task(self, num_compute, dead, seed):
        platform = osc_xio(num_compute=num_compute, num_storage=2)
        batch = make_batch("image", 6, "high", 2, seed=seed)
        state = crashed_state(platform, batch, dead)
        assert 1 <= len(state.alive_nodes()) <= 6
        for task in batch.tasks:
            assert_same_as_full_path(batch, [task.task_id], platform, state, seed)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("num_tasks", range(2, 9))
    @pytest.mark.parametrize(
        "num_compute,dead,disk_mb",
        [(1, (), math.inf), (3, (0, 2), math.inf), (4, (0, 1, 3), 400.0)],
    )
    def test_one_surviving_node(self, num_tasks, num_compute, dead, disk_mb, seed):
        platform = osc_xio(
            num_compute=num_compute, num_storage=2, disk_space_mb=disk_mb
        )
        batch = make_batch("image", num_tasks, "high", 2, seed=seed)
        state = crashed_state(platform, batch, dead)
        assert len(state.alive_nodes()) == 1
        task_ids = [t.task_id for t in batch.tasks]
        assert_same_as_full_path(batch, task_ids, platform, state, seed)

    def test_small_disk_repair_still_defers(self):
        # The one-node case above with 400 MB disks exercises _repair_disk.
        platform = osc_xio(num_compute=1, num_storage=2, disk_space_mb=400.0)
        batch = make_batch("image", 8, "high", 2, seed=0)
        state = ClusterState.initial(platform, batch)
        task_ids = [t.task_id for t in batch.tasks]
        _, deferred = BiPartitionScheduler()._map_subbatch(
            batch, task_ids, platform, state
        )
        assert deferred


class TestNoPartitionerWork:
    @pytest.fixture
    def no_partitioner(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("the partitioner ran")

        monkeypatch.setattr("repro.core.bipartition.kway_partition", boom)
        monkeypatch.setattr(BiPartitionScheduler, "_build_hypergraph", boom)

    def test_one_task_window(self, no_partitioner):
        batch = generate_synthetic_batch(1, 4, 2, 2, seed=0)
        res = run_batch(batch, osc_xio(4, 2), "bipartition")
        assert res.num_tasks == 1
        assert res.sub_batches[0].plan.mapping == {batch.tasks[0].task_id: 0}

    def test_one_node_window(self, no_partitioner):
        batch = generate_synthetic_batch(6, 8, 2, 2, seed=0)
        res = run_batch(batch, osc_xio(1, 2), "bipartition")
        assert res.num_tasks == 6
        assert {n for sb in res.sub_batches for n in sb.plan.mapping.values()} == {0}


def partition_telemetry(result):
    spans = {path.rsplit("/", 1)[-1] for path in result.telemetry["spans"]}
    counters = [c for c in result.telemetry["counters"] if c.startswith("hypergraph/")]
    return spans & {"kway-partition", "bisect"}, counters


class TestTelemetry:
    def test_one_task_window_records_no_partition(self):
        batch = generate_synthetic_batch(1, 4, 2, 2, seed=0)
        res = run_batch(batch, osc_xio(4, 2), "bipartition", telemetry=True)
        assert partition_telemetry(res) == (set(), [])

    def test_two_task_window_still_records_it(self):
        batch = generate_synthetic_batch(2, 4, 2, 2, seed=0)
        res = run_batch(batch, osc_xio(4, 2), "bipartition", telemetry=True)
        spans, counters = partition_telemetry(res)
        assert spans == {"kway-partition", "bisect"}
        assert "hypergraph/bisections" in counters


class TestLazyRng:
    def test_minmin_builds_no_generator(self):
        scheduler = MinMinScheduler(seed=3)
        run_batch(generate_synthetic_batch(6, 8, 2, 2, seed=0), osc_xio(2, 2), scheduler)
        assert scheduler._rng is None

    def test_one_task_bipartition_builds_no_generator(self):
        scheduler = BiPartitionScheduler(seed=3)
        run_batch(generate_synthetic_batch(1, 4, 2, 2, seed=0), osc_xio(4, 2), scheduler)
        assert scheduler._rng is None

    def test_partitioning_builds_one(self):
        scheduler = BiPartitionScheduler(seed=3)
        run_batch(generate_synthetic_batch(4, 6, 2, 2, seed=0), osc_xio(2, 2), scheduler)
        assert scheduler._rng is not None

    def test_reset_drops_the_generator(self):
        scheduler = BiPartitionScheduler(seed=3)
        first = scheduler.rng.integers(1_000_000)
        scheduler.reset()
        assert scheduler._rng is None
        assert scheduler.rng.integers(1_000_000) == first


class FullPathBiPartition(BiPartitionScheduler):
    """BiPartition that partitions every sub-batch, one task or one node."""

    def _map_subbatch(self, batch, task_ids, platform, state):
        return full_path(self, batch, task_ids, platform, state, self.rng)


@pytest.mark.parametrize("disk_mb", [math.inf, 1200.0, 900.0, 600.0])
def test_crash_to_one_node_run_matches_full_path(disk_mb):
    """A run whose crash leaves one node gives the full path's run."""
    batch = make_batch("image", 24, "high", 2, seed=3)
    platform = osc_xio(2, 2, disk_space_mb=disk_mb)
    faults = {"node_crashes": [{"node": 1, "time": 3.0}]}

    def run(scheduler):
        res = run_batch(batch, platform, scheduler, faults=faults, audit=True)
        records = [sb.execution.records for sb in res.sub_batches]
        return records, res.makespan, res.audit_report.checked_events

    assert run(BiPartitionScheduler()) == run(FullPathBiPartition())
