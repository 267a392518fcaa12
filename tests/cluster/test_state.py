"""Unit tests for cluster-wide file placement state."""

import pytest

from repro.batch import Batch, FileInfo, Task
from repro.cluster import ClusterState, TransferStats, osc_xio


@pytest.fixture
def setup():
    platform = osc_xio(num_compute=3, num_storage=2, disk_space_mb=200.0)
    files = {
        "a": FileInfo("a", 50.0, 0),
        "b": FileInfo("b", 100.0, 1),
    }
    batch = Batch([Task("t", ("a", "b"), 1.0)], files)
    return platform, ClusterState.initial(platform, batch)


def evict_from_node_0(state):
    """Make node 0's cache evict; it reports each victim to ``note_evicted``."""
    return state.caches[0].ensure_space(
        200.0,
        victim_order=lambda cands: list(cands),
        on_evict=lambda fid: state.note_evicted(0, fid),
    )


class TestPlacement:
    def test_initially_storage_only(self, setup):
        _, state = setup
        assert state.holders("a") == frozenset()
        assert state.num_copies("a") == 0

    def test_place_and_query(self, setup):
        _, state = setup
        state.place(0, "a")
        assert state.has_file(0, "a")
        assert not state.has_file(1, "a")
        assert state.holders("a") == frozenset({0})
        assert state.num_copies("a") == 1

    def test_multiple_copies(self, setup):
        _, state = setup
        state.place(0, "a")
        state.place(2, "a")
        assert state.holders("a") == frozenset({0, 2})

    def test_drop(self, setup):
        _, state = setup
        state.place(0, "a")
        state.place(1, "a")
        assert evict_from_node_0(state) == ["a"]
        assert state.holders("a") == frozenset({1})
        assert not state.has_file(0, "a")
        state.check_consistency()

    def test_evict_records_stats(self, setup):
        _, state = setup
        state.place(0, "a")
        evict_from_node_0(state)
        assert state.stats.evictions == 1
        assert state.stats.evicted_volume_mb == 50.0

    def test_capacity_respected(self, setup):
        _, state = setup
        state.place(0, "a")
        state.place(0, "b")
        with pytest.raises(Exception):
            state.place(0, "a2")  # unknown file -> KeyError from size_of

    def test_consistency_check(self, setup):
        _, state = setup
        state.place(1, "b")
        state.check_consistency()

    def test_storage_node_lookup(self, setup):
        _, state = setup
        assert state.storage_node_of("a") == 0
        assert state.storage_node_of("b") == 1

    def test_files_on(self, setup):
        _, state = setup
        state.place(2, "a")
        state.place(2, "b")
        assert set(state.files_on(2)) == {"a", "b"}

    def test_register_files(self, setup):
        _, state = setup
        state.register_files({"c": FileInfo("c", 10.0, 0)})
        assert state.size_of("c") == 10.0


class TestTransferStats:
    def test_record_remote(self, setup):
        _, state = setup
        state.record_remote(50.0)
        assert state.stats.remote_transfers == 1
        assert state.stats.remote_volume_mb == 50.0

    def test_record_replication(self, setup):
        _, state = setup
        state.record_replication(25.0)
        assert state.stats.replications == 1
        assert state.stats.replication_volume_mb == 25.0

    def test_merge(self):
        a = TransferStats(1, 10.0, 2, 20.0, 3, 30.0)
        b = TransferStats(1, 1.0, 1, 1.0, 1, 1.0)
        m = a.merge(b)
        assert m.remote_transfers == 2
        assert m.remote_volume_mb == 11.0
        assert m.replications == 3
        assert m.evictions == 4
