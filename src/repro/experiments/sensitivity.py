"""Sensitivity analysis: when does coupling scheduling and replication pay?

An added experiment beyond the paper's figures: sweep the platform's
*replication advantage* — the ratio between compute-interconnect bandwidth
and storage bandwidth — and measure the gap between the affinity-aware
BiPartition scheduler and the greedy MinMin baseline.

The paper's two testbeds are two points of this curve (XIO: replication
~4.8x faster than remote; OSUMED: ~80x). Measured shape: with *no*
replication advantage greedy MinMin is competitive — its completion-time
estimates are essentially exact when a copy costs the same as a re-read —
but as replication gets cheap, MinMin's implicit copies spread sharers
across nodes whose ports then congest, and the affinity-aware BiPartition
mapping pulls ahead. That crossover is the regime the paper's proposed
schemes are designed for.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..cluster.platform import ComputeNode, Platform, StorageNode
from ..core.driver import run_batch
from ..workloads import generate_image_batch
from .report import Record, Table

__all__ = ["replication_advantage_sweep"]


def _platform(storage_bw: float, compute_bw: float, num_compute: int = 4,
              num_storage: int = 4) -> Platform:
    return Platform(
        compute_nodes=tuple(ComputeNode(i) for i in range(num_compute)),
        storage_nodes=tuple(
            StorageNode(s, disk_bw=storage_bw) for s in range(num_storage)
        ),
        storage_network_bw=max(storage_bw, compute_bw),
        compute_network_bw=compute_bw,
        name=f"sweep-{compute_bw / storage_bw:g}x",
    )


def replication_advantage_sweep(
    ratios: Sequence[float] = (1.0, 2.0, 5.0, 10.0, 20.0),
    storage_bw: float = 100.0,
    num_tasks: int = 60,
    schemes: Sequence[str] = ("bipartition", "minmin", "jdp"),
    seed: int = 0,
) -> Table:
    """Sweep compute-interconnect bandwidth as a multiple of storage bw.

    Returns one record per (ratio, scheme); ``x`` is the ratio.
    """
    table = Table(
        f"sensitivity: replication advantage sweep "
        f"(IMAGE high overlap, n={num_tasks}, storage {storage_bw:.0f} MB/s)"
    )
    for ratio in ratios:
        platform = _platform(storage_bw, storage_bw * ratio)
        batch = generate_image_batch(
            num_tasks, "high", platform.num_storage, seed=seed
        )
        for scheme in schemes:
            table.add(
                Record.from_result(
                    run_batch(batch, platform, scheme),
                    experiment="sensitivity-replication",
                    workload="image",
                    scheme=scheme,
                    x=ratio,
                )
            )
    return table
