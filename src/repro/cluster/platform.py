"""Coupled storage + compute cluster descriptions and paper presets.

Units: sizes in MB, bandwidths in MB/s, times in seconds.

The paper's two testbeds (Section 7):

* **OSC/XIO** — compute cluster (2.4 GHz Xeons, 8 Gbps InfiniBand) coupled to
  the XIO storage nodes (FAStT600 arrays, ~210 MB/s disk bandwidth) over
  InfiniBand.
* **OSC/OSUMED** — same compute cluster, storage on 933 MHz PIII nodes with
  18–25 MB/s local disks, reachable only through a shared 100 Mbps link.

The shared OSUMED↔OSC link is modelled as an extra serialising resource that
every remote transfer must reserve, in addition to the storage-node port.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

from ..analysis.dims import MB, MBps, Count, Dimensionless, Seconds, SecondsPerMB

__all__ = [
    "ComputeNode",
    "StorageNode",
    "Platform",
    "osc_xio",
    "osc_osumed",
    "STORAGE_PLATFORMS",
    "MBPS_100MBIT",
    "MBPS_8GBIT",
]

MBPS_100MBIT: MBps = 12.5  # 100 Mbps Ethernet in MB/s
MBPS_8GBIT: MBps = 1000.0  # 8 Gbps InfiniBand in MB/s


@dataclass(frozen=True)
class ComputeNode:
    """A compute node: local disk cache plus CPU.

    ``disk_space_mb`` of ``inf`` models the paper's *unlimited disk cache*
    case. ``local_disk_bw`` is the bandwidth for reading staged files before
    processing (the ``1/BW_l`` term of Eq. 26). ``speed`` is the relative
    CPU speed (1.0 = reference; a task's compute time is divided by it) —
    the paper's clusters are homogeneous, so this is an extension knob.
    """

    node_id: int
    disk_space_mb: MB = math.inf
    local_disk_bw: MBps = 200.0
    speed: Dimensionless = 1.0

    def __post_init__(self) -> None:
        if self.disk_space_mb <= 0:
            raise ValueError("disk_space_mb must be positive")
        if self.local_disk_bw <= 0:
            raise ValueError("local_disk_bw must be positive")
        if self.speed <= 0:
            raise ValueError("speed must be positive")


@dataclass(frozen=True)
class StorageNode:
    """A storage node with a single serialised port of ``disk_bw`` MB/s."""

    node_id: int
    disk_bw: MBps = 210.0

    def __post_init__(self) -> None:
        if self.disk_bw <= 0:
            raise ValueError("disk_bw must be positive")


@dataclass(frozen=True)
class Platform:
    """A coupled storage/compute cluster configuration.

    Attributes
    ----------
    storage_network_bw:
        Per-link bandwidth between a storage node and a compute node; a
        remote transfer runs at ``min(storage.disk_bw, storage_network_bw)``
        (and additionally reserves ``shared_link_bw`` when set).
    compute_network_bw:
        Node-to-node bandwidth inside the compute cluster (replications).
    shared_link_bw:
        Optional bandwidth of a single shared link between the clusters that
        serialises *all* remote transfers (the OSUMED configuration).
    compute_cost_per_mb:
        Task CPU seconds per MB of input (paper: 0.001 s/MB).
    """

    compute_nodes: tuple[ComputeNode, ...]
    storage_nodes: tuple[StorageNode, ...]
    storage_network_bw: MBps = MBPS_8GBIT
    compute_network_bw: MBps = MBPS_8GBIT
    shared_link_bw: MBps | None = None
    compute_cost_per_mb: SecondsPerMB = 0.001
    name: str = "custom"

    def __post_init__(self) -> None:
        if not self.compute_nodes:
            raise ValueError("at least one compute node required")
        if not self.storage_nodes:
            raise ValueError("at least one storage node required")
        if self.storage_network_bw <= 0 or self.compute_network_bw <= 0:
            raise ValueError("bandwidths must be positive")
        if self.shared_link_bw is not None and self.shared_link_bw <= 0:
            raise ValueError("shared_link_bw must be positive when set")
        ids = [n.node_id for n in self.compute_nodes]
        if ids != list(range(len(ids))):
            raise ValueError("compute node ids must be 0..C-1 in order")
        sids = [n.node_id for n in self.storage_nodes]
        if sids != list(range(len(sids))):
            raise ValueError("storage node ids must be 0..S-1 in order")

    # -- derived quantities ----------------------------------------------------
    @property
    def num_compute(self) -> Count:
        return len(self.compute_nodes)

    @property
    def num_storage(self) -> Count:
        return len(self.storage_nodes)

    @property
    def aggregate_disk_space(self) -> MB:
        """Total compute-cluster disk cache space (the BINW bound ``D``)."""
        return sum(n.disk_space_mb for n in self.compute_nodes)

    def remote_bandwidth(self, storage_id: int) -> MBps:
        """Effective bandwidth of a remote transfer from ``storage_id``."""
        bw = min(self.storage_nodes[storage_id].disk_bw, self.storage_network_bw)
        if self.shared_link_bw is not None:
            bw = min(bw, self.shared_link_bw)
        return bw

    @property
    def min_remote_bandwidth(self) -> MBps:
        """``BW_s`` of Eq. 25: the minimum storage-to-compute bandwidth."""
        return min(self.remote_bandwidth(s.node_id) for s in self.storage_nodes)

    @property
    def replication_bandwidth(self) -> MBps:
        """``BW_c`` of Eq. 25: compute-node-to-compute-node bandwidth."""
        return self.compute_network_bw

    def remote_transfer_time(self, storage_id: int, size_mb: MB) -> Seconds:
        return size_mb / self.remote_bandwidth(storage_id)

    def replication_time(self, size_mb: MB) -> Seconds:
        return size_mb / self.compute_network_bw

    def local_read_time(self, node_id: int, size_mb: MB) -> Seconds:
        return size_mb / self.compute_nodes[node_id].local_disk_bw

    def compute_time(self, size_mb: MB) -> Seconds:
        """Reference-speed CPU time for ``size_mb`` of input."""
        return size_mb * self.compute_cost_per_mb

    def task_compute_time(self, node_id: int, base_compute_time: Seconds) -> Seconds:
        """A task's CPU time on ``node_id`` given its reference-speed cost."""
        return base_compute_time / self.compute_nodes[node_id].speed

    @property
    def is_homogeneous(self) -> bool:
        speeds = {n.speed for n in self.compute_nodes}
        return len(speeds) == 1


def _compute_nodes(count: int, disk_space_mb: MB) -> tuple[ComputeNode, ...]:
    return tuple(ComputeNode(i, disk_space_mb=disk_space_mb) for i in range(count))


def osc_xio(
    num_compute: int = 4,
    num_storage: int = 4,
    disk_space_mb: MB = math.inf,
) -> Platform:
    """The OSC compute cluster coupled to the XIO storage pool.

    210 MB/s storage disks behind InfiniBand; remote transfers are limited by
    the storage disks, replication runs at full 8 Gbps.
    """
    return Platform(
        compute_nodes=_compute_nodes(num_compute, disk_space_mb),
        storage_nodes=tuple(StorageNode(i, disk_bw=210.0) for i in range(num_storage)),
        storage_network_bw=MBPS_8GBIT,
        compute_network_bw=MBPS_8GBIT,
        shared_link_bw=None,
        name="osc-xio",
    )


def osc_osumed(
    num_compute: int = 4,
    num_storage: int = 4,
    disk_space_mb: MB = math.inf,
) -> Platform:
    """The OSC compute cluster using the OSUMED cluster as storage.

    Storage disks deliver 18–25 MB/s (assigned deterministically across
    nodes) and every remote transfer crosses a single shared 100 Mbps link,
    so remote I/O is scarce and replication inside the compute cluster is
    very profitable.
    """
    disk_bws = [18.0 + 7.0 * (i % num_storage) / max(1, num_storage - 1) for i in range(num_storage)]
    if num_storage == 1:
        disk_bws = [21.5]
    return Platform(
        compute_nodes=_compute_nodes(num_compute, disk_space_mb),
        storage_nodes=tuple(
            StorageNode(i, disk_bw=disk_bws[i]) for i in range(num_storage)
        ),
        storage_network_bw=MBPS_100MBIT,
        compute_network_bw=MBPS_8GBIT,
        shared_link_bw=MBPS_100MBIT,
        name="osc-osumed",
    )


#: The paper's two testbeds, by the storage name that configs and the CLI use.
STORAGE_PLATFORMS: dict[str, Callable[..., Platform]] = {
    "xio": osc_xio,
    "osumed": osc_osumed,
}
