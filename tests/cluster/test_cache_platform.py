"""Unit tests for disk caches and platform descriptions."""

import math

import pytest

from repro.cluster import (
    CacheFullError,
    ComputeNode,
    DiskCache,
    Platform,
    StorageNode,
    osc_osumed,
    osc_xio,
)


class TestDiskCache:
    def test_add_and_contains(self):
        c = DiskCache(0, 100.0)
        c.add("f1", 40.0)
        assert "f1" in c
        assert c.used_mb == 40.0
        assert c.free_mb == 60.0

    def test_add_same_file_idempotent(self):
        c = DiskCache(0, 100.0)
        c.add("f1", 40.0)
        c.add("f1", 40.0, now=5.0)
        assert c.used_mb == 40.0
        assert c.last_use("f1") == 5.0

    def test_overflow_rejected(self):
        c = DiskCache(0, 100.0)
        c.add("f1", 80.0)
        with pytest.raises(CacheFullError):
            c.add("f2", 30.0)

    def test_remove_returns_size(self):
        c = DiskCache(0, 100.0)
        c.add("f1", 40.0)
        assert c.remove("f1") == 40.0
        assert "f1" not in c
        assert c.used_mb == 0.0

    def test_pin_blocks_eviction(self):
        c = DiskCache(0, 100.0)
        c.add("f1", 60.0)
        c.add("f2", 40.0)
        c.pin("f1")
        victims = c.ensure_space(40.0, victim_order=lambda cands: sorted(cands))
        assert victims == ["f2"]
        assert "f1" in c

    def test_unpin_allows_eviction(self):
        c = DiskCache(0, 100.0)
        c.add("f1", 60.0)
        c.pin("f1")
        c.unpin("f1")
        victims = c.ensure_space(80.0, victim_order=lambda cands: list(cands))
        assert victims == ["f1"]

    def test_double_unpin_rejected(self):
        c = DiskCache(0, 100.0)
        c.add("f1", 10.0)
        with pytest.raises(ValueError):
            c.unpin("f1")

    def test_ensure_space_noop_when_fits(self):
        c = DiskCache(0, 100.0)
        c.add("f1", 10.0)
        assert c.ensure_space(50.0, victim_order=lambda x: list(x)) == []

    def test_ensure_space_fails_when_all_pinned(self):
        c = DiskCache(0, 100.0)
        c.add("f1", 90.0)
        c.pin("f1")
        with pytest.raises(CacheFullError):
            c.ensure_space(50.0, victim_order=lambda x: list(x))

    def test_eviction_order_followed(self):
        c = DiskCache(0, 100.0)
        for i, size in enumerate([30.0, 30.0, 30.0]):
            c.add(f"f{i}", size)
        # used 90/100 -> freeing 65 MB needs two victims, largest name first.
        victims = c.ensure_space(
            65.0, victim_order=lambda cands: sorted(cands, reverse=True)
        )
        assert victims == ["f2", "f1"]

    def test_eviction_returns_victims_and_frees_space(self):
        c = DiskCache(0, 100.0)
        c.add("f1", 60.0)
        c.add("f2", 10.0)
        assert c.ensure_space(80.0, victim_order=lambda x: list(x)) == ["f1"]
        assert c.files == ("f2",)
        assert c.used_mb == 10.0

    def test_on_evict_callback(self):
        c = DiskCache(0, 100.0)
        c.add("f1", 60.0)
        seen = []
        c.ensure_space(80.0, victim_order=lambda x: list(x), on_evict=seen.append)
        assert seen == ["f1"]

    def test_infinite_capacity(self):
        c = DiskCache(0, math.inf)
        c.add("f1", 1e9)
        assert c.free_mb == math.inf

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            DiskCache(0, 0.0)


class TestShrink:
    """Disk-loss capacity shrinking evicts like ``ensure_space``."""

    def test_victims_follow_the_policy_order(self):
        c = DiskCache(0, 100.0)
        for f in ("f0", "f1", "f2"):
            c.add(f, 30.0)
        # 90 MB in 50 MB of capacity: two files must go, largest name first.
        victims = c.shrink(
            50.0, victim_order=lambda cands: sorted(cands, reverse=True)
        )
        assert victims == ["f2", "f1"]
        assert c.files == ("f0",)
        assert (c.capacity_mb, c.used_mb) == (50.0, 30.0)

    def test_no_eviction_when_the_files_still_fit(self):
        c = DiskCache(0, 100.0)
        c.add("f0", 50.0)
        assert c.shrink(50.0, victim_order=lambda cands: list(cands)) == []
        assert "f0" in c

    def test_pinned_files_survive(self):
        c = DiskCache(0, 100.0)
        c.add("f0", 50.0)
        c.add("f1", 30.0)
        c.pin("f0")
        # f0 would be the policy's first victim if it were offered.
        victims = c.shrink(30.0, victim_order=lambda cands: sorted(cands))
        assert victims == ["f1"]
        assert "f0" in c
        assert c.used_mb == 50.0

    def test_on_evict_callback(self):
        c = DiskCache(0, 100.0)
        c.add("f0", 40.0)
        c.add("f1", 40.0)
        seen = []
        victims = c.shrink(
            70.0, victim_order=lambda cands: list(cands), on_evict=seen.append
        )
        assert seen == victims == ["f0", "f1"]

    def test_pinned_data_over_the_new_capacity_raises(self):
        c = DiskCache(0, 100.0)
        c.add("f0", 80.0)
        c.add("f1", 10.0)
        c.pin("f0")
        with pytest.raises(CacheFullError):
            c.shrink(50.0, victim_order=lambda cands: list(cands))

    def test_capacity_floors_at_zero(self):
        c = DiskCache(0, 100.0)
        c.add("f0", 40.0)
        victims = c.shrink(250.0, victim_order=lambda cands: list(cands))
        assert victims == ["f0"]
        assert (c.capacity_mb, c.used_mb) == (0.0, 0.0)


class TestPlatform:
    def test_xio_preset_bandwidths(self):
        p = osc_xio(num_compute=4, num_storage=4)
        # Remote transfers limited by the 210 MB/s storage disks.
        assert p.remote_bandwidth(0) == 210.0
        assert p.replication_bandwidth == 1000.0
        assert p.shared_link_bw is None

    def test_osumed_preset_bandwidths(self):
        p = osc_osumed(num_compute=4, num_storage=4)
        # Remote transfers limited by the shared 100 Mbps link.
        assert p.remote_bandwidth(0) == 12.5
        assert p.shared_link_bw == 12.5
        # Storage disk bandwidths span the paper's 18-25 MB/s range.
        bws = [s.disk_bw for s in p.storage_nodes]
        assert min(bws) >= 18.0
        assert max(bws) <= 25.0

    def test_aggregate_disk_space(self):
        p = osc_xio(num_compute=4, disk_space_mb=40_000.0)
        assert p.aggregate_disk_space == 160_000.0

    def test_unlimited_default(self):
        p = osc_xio()
        assert math.isinf(p.aggregate_disk_space)

    def test_transfer_times(self):
        p = osc_xio()
        assert p.remote_transfer_time(0, 210.0) == pytest.approx(1.0)
        assert p.replication_time(1000.0) == pytest.approx(1.0)
        assert p.compute_time(1000.0) == pytest.approx(1.0)

    def test_min_remote_bandwidth(self):
        p = osc_osumed(num_storage=4)
        assert p.min_remote_bandwidth == 12.5

    def test_node_counts(self):
        p = osc_xio(num_compute=8, num_storage=2)
        assert p.num_compute == 8
        assert p.num_storage == 2

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            Platform(compute_nodes=(), storage_nodes=(StorageNode(0),))
        with pytest.raises(ValueError):
            Platform(
                compute_nodes=(ComputeNode(0),),
                storage_nodes=(StorageNode(0),),
                storage_network_bw=-1.0,
            )
        with pytest.raises(ValueError):
            Platform(
                compute_nodes=(ComputeNode(1),),  # ids must start at 0
                storage_nodes=(StorageNode(0),),
            )

    def test_node_validation(self):
        with pytest.raises(ValueError):
            ComputeNode(0, disk_space_mb=-5.0)
        with pytest.raises(ValueError):
            StorageNode(0, disk_bw=0.0)

    def test_single_storage_osumed(self):
        p = osc_osumed(num_storage=1)
        assert p.storage_nodes[0].disk_bw == pytest.approx(21.5)
