"""Initial bipartitioning of the coarsest hypergraph.

Two strategies, both run multiple times with the best kept:

* *Greedy hypergraph growing* (GHG, PaToH's default): grow part 0 from a
  random seed by repeatedly absorbing the unassigned vertex with the highest
  move gain until part 0 reaches its target weight.
* *Random balanced*: shuffle vertices, fill part 0 to target. Used as a
  diversity fallback when GHG stalls on disconnected graphs.
"""

from __future__ import annotations

import numpy as np

from .hypergraph import Hypergraph
from .metrics import cut_weight

__all__ = ["greedy_growing_bipartition", "random_bipartition", "initial_bipartition"]


def random_bipartition(
    h: Hypergraph, rng: np.random.Generator, target0: float
) -> np.ndarray:
    """Shuffle vertices and fill part 0 up to ``target0`` total weight."""
    parts = [1] * h.num_vertices
    vw = h._vw
    acc = 0.0
    for v in rng.permutation(h.num_vertices).tolist():
        if acc < target0:
            parts[v] = 0
            acc += vw[v]
    return np.array(parts, dtype=int)


def greedy_growing_bipartition(
    h: Hypergraph, rng: np.random.Generator, target0: float
) -> np.ndarray:
    """Grow part 0 from a random seed by best-gain absorption.

    The gain of absorbing vertex ``v`` is the weight of its nets that would
    stop being cut minus the weight of nets that would become newly cut —
    approximated incrementally with per-net counts of already-absorbed pins.
    """
    n = h.num_vertices
    if n == 0:
        return np.ones(0, dtype=int)
    parts = [1] * n
    in0 = [False] * n
    pins_in0 = [0] * h.num_nets
    vw, nw, sizes, pins, vnets = h._vw, h._nw, h._sizes, h._pins, h._vnets

    def absorb_gain(v: int) -> float:
        g = 0.0
        for j in vnets[v]:
            size = sizes[j]
            cnt = pins_in0[j]
            if cnt == size - 1:
                g += nw[j]  # net becomes internal to part 0
            elif cnt == 0 and size > 1:
                g -= nw[j]  # net becomes cut
        return g

    seed = int(rng.integers(n))
    frontier: set[int] = {seed}
    acc = 0.0
    while acc < target0:
        if not frontier:
            remaining = [v for v in range(n) if not in0[v]]
            if not remaining:
                break
            frontier.add(int(rng.choice(remaining)))
        best_v = max(frontier, key=lambda v: (absorb_gain(v), -vw[v]))
        frontier.discard(best_v)
        in0[best_v] = True
        parts[best_v] = 0
        acc += vw[best_v]
        for j in vnets[best_v]:
            pins_in0[j] += 1
            for u in pins[j]:
                if not in0[u]:
                    frontier.add(u)
    return np.array(parts, dtype=int)


def initial_bipartition(
    h: Hypergraph,
    rng: np.random.Generator,
    target0_fraction: float = 0.5,
    tries: int = 4,
) -> np.ndarray:
    """Run several initial strategies; return the lowest-cut bipartition."""
    target0 = h.total_vertex_weight * target0_fraction
    best: np.ndarray | None = None
    best_cut = np.inf
    for t in range(max(1, tries)):
        maker = greedy_growing_bipartition if t % 2 == 0 else random_bipartition
        parts = maker(h, rng, target0)
        c = cut_weight(h, parts)
        if c < best_cut:
            best, best_cut = parts, c
    assert best is not None
    return best
