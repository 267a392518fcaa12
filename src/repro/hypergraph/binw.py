"""Bounded Incident Net Weight (BINW) partitioning — Section 5.1/5.2.

BINW partitioning divides a hypergraph into a *variable* number of parts such
that each part's incident net weight (total weight of distinct nets touching
the part, plus anchored size-1 net weight) stays below a bound ``D``, while
minimizing the connectivity-1 cost. For the scheduler, parts are sub-batches
and ``D`` is the aggregate disk space of the compute cluster: every
sub-batch's files are then guaranteed to fit on the cluster at once.

Implementation: recursive multilevel bisection. A piece whose incident net
weight already satisfies ``D`` becomes a final part; otherwise it is bisected
(with net splitting and size-1-net weight anchoring, so incident weights stay
exact across levels) and both halves recurse. Minimizing the cut at every
bisection greedily minimizes both connectivity-1 and, indirectly, the number
of parts, matching the paper's observation that the two goals align.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.dims import MB
from ..obs.core import telemetry
from .bisect import split
from .hypergraph import Hypergraph

__all__ = ["BinwResult", "binw_partition"]


@dataclass
class BinwResult:
    """Outcome of BINW partitioning.

    ``parts[v]`` is the part id of vertex ``v``; ids are assigned in the
    order parts are finalised. ``oversized_parts`` lists parts consisting of
    a single vertex whose own incident net weight exceeds ``D`` (impossible
    to split further — the driver must handle them, e.g. a single task whose
    files exceed aggregate disk space).
    """

    parts: np.ndarray
    num_parts: int
    oversized_parts: tuple[int, ...]


@telemetry.timed("binw-partition")
def binw_partition(
    h: Hypergraph,
    bound: MB,
    rng: np.random.Generator,
    epsilon: float = 0.20,
    coarsen_to: int = 64,
    initial_tries: int = 4,
) -> BinwResult:
    """Partition ``h`` so every part has incident net weight <= ``bound``.

    ``epsilon`` is the bisection balance tolerance (vertex weights); looser
    values than classic K-way partitioning are appropriate because balance
    between sub-batches is not itself an objective.
    """
    if bound <= 0:
        raise ValueError("bound must be positive")
    n = h.num_vertices
    parts = np.full(n, -1, dtype=int)
    oversized: list[int] = []
    next_part = 0

    # Work stack of (sub-hypergraph, global vertex ids). The loop ends by
    # construction: each popped piece either becomes a final part or is
    # split into two non-empty halves (``split`` forces a degenerate
    # bisection apart), so the pieces form a binary tree whose leaves are the
    # final parts. With n >= 1 vertices that is at most n parts from at most
    # 2n - 1 pieces.
    stack: list[tuple[Hypergraph, np.ndarray]] = [(h, np.arange(n))]
    while stack:
        sub, ids = stack.pop()
        if sub.num_vertices == 0:
            continue
        inw = sub.incident_net_weight(range(sub.num_vertices))
        if inw <= bound or sub.num_vertices == 1:
            if inw > bound:
                oversized.append(next_part)
            parts[ids] = next_part
            next_part += 1
            continue

        (sub0, ids0), (sub1, ids1) = split(
            sub, rng, 1, 2, epsilon, coarsen_to, initial_tries
        )
        stack.append((sub0, ids[ids0]))
        stack.append((sub1, ids[ids1]))

    return BinwResult(
        parts=parts, num_parts=next_part, oversized_parts=tuple(oversized)
    )
