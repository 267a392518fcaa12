"""Partition quality metrics: cut, connectivity-1, balance, incident weight."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .hypergraph import Hypergraph, PartitionStats

__all__ = [
    "net_connectivity",
    "cut_weight",
    "connectivity_1",
    "part_weights",
    "imbalance",
    "incident_net_weights",
    "partition_stats",
    "validate_partition",
]


def validate_partition(h: Hypergraph, parts: Sequence[int]) -> np.ndarray:
    """Check ``parts`` maps every vertex to a non-negative part id."""
    arr = np.asarray(parts, dtype=int)
    if arr.shape != (h.num_vertices,):
        raise ValueError(
            f"partition must assign all {h.num_vertices} vertices, got {arr.shape}"
        )
    if h.num_vertices and arr.min() < 0:
        raise ValueError("part ids must be non-negative")
    return arr


def net_connectivity(h: Hypergraph, parts: Sequence[int], net: int) -> int:
    """Number of distinct parts spanned by ``net`` (lambda_j)."""
    arr = np.asarray(parts, dtype=int)
    return len({int(arr[v]) for v in h.pins(net)})


def cut_weight(h: Hypergraph, parts: Sequence[int]) -> float:
    """Total weight of nets spanning more than one part (cut-net metric)."""
    side = validate_partition(h, parts).tolist()
    total = 0.0
    for ps, w in zip(h._pins, h._nw):
        first = side[ps[0]]
        for v in ps:
            if side[v] != first:
                total += w
                break
    return total


def connectivity_1(h: Hypergraph, parts: Sequence[int]) -> float:
    """The connectivity-1 cost ``sum_j c_j (lambda_j - 1)`` (Eq. 23).

    For the first-level (sub-batch) partitioning this equals the extra I/O
    volume caused by files shared across sub-batches: a file spanning
    ``lambda`` sub-batches is re-staged ``lambda - 1`` extra times.
    """
    arr = validate_partition(h, parts)
    total = 0.0
    for j in range(h.num_nets):
        lam = len({int(arr[v]) for v in h.pins(j)})
        if lam > 1:
            total += float(h.net_weights[j]) * (lam - 1)
    return total


def part_weights(
    h: Hypergraph, parts: Sequence[int], num_parts: int | None = None
) -> np.ndarray:
    """Sum of vertex weights per part."""
    arr = validate_partition(h, parts)
    k = num_parts if num_parts is not None else (int(arr.max()) + 1 if len(arr) else 0)
    w = np.zeros(k)
    np.add.at(w, arr, h.vertex_weights)
    return w


def imbalance(
    h: Hypergraph, parts: Sequence[int], num_parts: int | None = None
) -> float:
    """Relative imbalance ``max_p W_p / W_avg - 1`` (0 = perfectly balanced)."""
    w = part_weights(h, parts, num_parts)
    if len(w) == 0 or w.sum() == 0:
        return 0.0
    return float(w.max() / (w.sum() / len(w)) - 1.0)


def incident_net_weights(
    h: Hypergraph, parts: Sequence[int], num_parts: int | None = None
) -> np.ndarray:
    """Per-part incident net weight (Eq. 24 left-hand side).

    A net incident to several parts counts fully toward each of them, and
    anchored (degenerated size-1 net) weights count toward their pin's part.
    """
    arr = validate_partition(h, parts)
    k = num_parts if num_parts is not None else (int(arr.max()) + 1 if len(arr) else 0)
    out = np.zeros(k)
    for j in range(h.num_nets):
        for p in {int(arr[v]) for v in h.pins(j)}:
            out[p] += float(h.net_weights[j])
    np.add.at(out, arr, h.anchored_weights)
    return out


def partition_stats(
    h: Hypergraph, parts: Sequence[int], num_parts: int | None = None
) -> PartitionStats:
    """Bundle all quality metrics for reporting and tests."""
    w = part_weights(h, parts, num_parts)
    return PartitionStats(
        num_parts=len(w),
        cut_weight=cut_weight(h, parts),
        connectivity_1=connectivity_1(h, parts),
        part_weights=tuple(float(x) for x in w),
        imbalance=imbalance(h, parts, num_parts),
        incident_net_weights=tuple(
            float(x) for x in incident_net_weights(h, parts, num_parts)
        ),
    )
