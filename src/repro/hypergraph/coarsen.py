"""Multilevel coarsening via heavy-connectivity matching.

Following PaToH's HCM scheme: visit vertices in random order; an unmatched
vertex is paired with the unmatched neighbour to which it is most strongly
connected, where the connectivity contributed by a shared net ``n_j`` is
``c_j / (|n_j| - 1)`` (so small, heavy nets attract most). Matched pairs are
contracted; the process repeats until the hypergraph is small enough for
initial partitioning or stops shrinking.
"""

from __future__ import annotations

import numpy as np

from .hypergraph import Hypergraph

__all__ = ["heavy_connectivity_matching", "coarsen"]

# Nets larger than this contribute negligible per-pin connectivity and cost
# O(size^2) pair updates; skip them during matching (PaToH does the same).
_MATCHING_NET_SIZE_LIMIT = 64

# A level is kept only if it has fewer than this share of the previous
# level's vertices; otherwise matching has stalled and coarsening stops.
_SHRINK_THRESHOLD = 0.95


def heavy_connectivity_matching(
    h: Hypergraph,
    rng: np.random.Generator,
    max_cluster_weight: float | None = None,
) -> np.ndarray:
    """Compute a matching-based clustering; returns ``cluster_of`` array.

    ``max_cluster_weight`` prevents merging two vertices whose combined
    weight exceeds the bound (keeps coarse graphs balanceable).
    """
    n = h.num_vertices
    cluster_of = [-1] * n
    matched = [False] * n
    next_cluster = 0
    vw, nw, sizes, pins, vnets = h._vw, h._nw, h._sizes, h._pins, h._vnets

    order = rng.permutation(n).tolist()
    scores: dict[int, float] = {}
    for v in order:
        if matched[v]:
            continue
        scores.clear()
        for j in vnets[v]:
            size = sizes[j]
            if size < 2 or size > _MATCHING_NET_SIZE_LIMIT:
                continue
            contrib = nw[j] / (size - 1)
            for u in pins[j]:
                if u != v and not matched[u]:
                    scores[u] = scores.get(u, 0.0) + contrib

        best_u = -1
        best_score = 0.0
        wv = vw[v]
        for u, s in scores.items():
            if max_cluster_weight is not None and wv + vw[u] > max_cluster_weight:
                continue
            if s > best_score or (s == best_score and best_u == -1):
                best_u, best_score = u, s

        matched[v] = True
        cluster_of[v] = next_cluster
        if best_u >= 0:
            matched[best_u] = True
            cluster_of[best_u] = next_cluster
        next_cluster += 1

    return np.array(cluster_of, dtype=int)


def coarsen(
    h: Hypergraph,
    rng: np.random.Generator,
    target_vertices: int = 64,
) -> tuple[Hypergraph, list[np.ndarray]]:
    """Coarsen until ``target_vertices`` is reached or shrinking stalls.

    Returns the coarsest hypergraph and each level's ``cluster_of`` (fine
    vertex -> coarse vertex), finest level first: indexing a partition of
    the coarsest graph by them in reverse projects it back onto ``h``.
    The max-cluster-weight bound is set so no coarse vertex outgrows what a
    balanced bipartition could host. The loop ends by construction: each
    level it keeps has fewer vertices than the one before.
    """
    levels: list[np.ndarray] = []
    current = h
    # A cluster heavier than half the total weight can never be balanced.
    weight_cap = max(current.total_vertex_weight / 2.0, 1e-12)
    while current.num_vertices > target_vertices:
        cluster_of = heavy_connectivity_matching(current, rng, weight_cap)
        nc = int(cluster_of.max()) + 1 if len(cluster_of) else 0
        if nc >= current.num_vertices * _SHRINK_THRESHOLD:
            break  # stalled: nearly nothing matched
        levels.append(cluster_of)
        current = current.contract(cluster_of)
    return current, levels
