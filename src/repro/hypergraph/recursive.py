"""K-way hypergraph partitioning via recursive multilevel bisection.

The second-level partitioner of the BiPartition scheduler (Section 5.3) maps
a sub-batch onto the ``K`` compute nodes by K-way partitioning under the
connectivity-1 metric. Like PaToH, K-way partitions are produced by recursive
bisection with *net splitting* (handled by
:meth:`repro.hypergraph.Hypergraph.sub_hypergraph`), which makes the sum of
bisection cut weights equal the final connectivity-1 cost.
"""

from __future__ import annotations

import numpy as np

from ..obs.core import telemetry
from .bisect import split
from .hypergraph import Hypergraph
from .metrics import cut_weight

__all__ = ["kway_partition"]


def kway_partition(
    h: Hypergraph,
    k: int,
    rng: np.random.Generator,
    epsilon: float = 0.10,
    coarsen_to: int = 64,
    initial_tries: int = 4,
) -> np.ndarray:
    """Partition ``h`` into ``k`` parts balanced within ``1 + epsilon``.

    Returns an array mapping each vertex to a part in ``0..k-1``. For
    non-power-of-two ``k`` the bisection targets are split proportionally
    (``ceil(k/2) : floor(k/2)``), with the tolerance divided across the
    remaining bisection depth so the final parts respect ``epsilon``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    parts = np.zeros(h.num_vertices, dtype=int)
    if k == 1 or h.num_vertices == 0:
        return parts

    # Tolerance per bisection level: (1 + eps_level)^depth ≈ 1 + epsilon.
    depth = int(np.ceil(np.log2(k)))
    eps_level = (1.0 + epsilon) ** (1.0 / depth) - 1.0

    def _recurse(
        sub: Hypergraph, global_ids: np.ndarray, k_sub: int, base: int, level: int
    ) -> None:
        if k_sub == 1 or sub.num_vertices == 0:
            parts[global_ids] = base
            return
        k0 = (k_sub + 1) // 2
        (sub0, ids0), (sub1, ids1) = split(
            sub, rng, k0, k_sub, eps_level, coarsen_to, initial_tries
        )
        if telemetry.enabled:
            # With net splitting, summing per-bisection cut weights over the
            # recursion gives the final connectivity-1 cost, so these
            # counters decompose the K-way cut by recursion level.
            sides = np.zeros(sub.num_vertices, dtype=int)
            sides[ids1] = 1
            cut = cut_weight(sub, sides)
            telemetry.count("hypergraph/bisections")
            telemetry.count("hypergraph/cut_weight", cut)
            telemetry.count(f"hypergraph/level{level}/cut_weight", cut)
        _recurse(sub0, global_ids[ids0], k0, base, level + 1)
        _recurse(sub1, global_ids[ids1], k_sub - k0, base + k0, level + 1)

    with telemetry.span("kway-partition"):
        _recurse(h, np.arange(h.num_vertices), k, 0, 0)
    return parts
