"""Fiduccia–Mattheyses (FM) bipartition refinement.

Classic FM with lazy max-heaps: repeatedly move the highest-gain unlocked
vertex whose move keeps the destination part within its weight bound, lock
it, update neighbour gains, and finally roll back to the best prefix of the
move sequence. Passes repeat until a pass yields no improvement.

The gain of moving ``v`` from part ``a`` to part ``b`` under the cut-net
metric is::

    gain(v) = sum(c_j for nets j of v with all other pins in b)   # uncut
            - sum(c_j for nets j of v with all pins in a)         # newly cut

tracked incrementally with per-net pin counts per side.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from ..obs.core import telemetry
from .hypergraph import Hypergraph

__all__ = ["fm_refine", "compute_gains"]


def compute_gains(h: Hypergraph, parts: np.ndarray) -> np.ndarray:
    """Move gains for every vertex under the cut-net metric."""
    parts = np.asarray(parts, dtype=int).tolist()
    counts = _side_counts(h, parts)
    return np.array([_gain_of(h, counts, parts, v) for v in range(h.num_vertices)])


def _side_counts(h: Hypergraph, parts: list[int]) -> list[list[int]]:
    """``counts[s][j]`` = number of pins of net ``j`` in side ``s``."""
    counts = [[0] * h.num_nets, [0] * h.num_nets]
    for j, ps in enumerate(h._pins):
        for v in ps:
            counts[parts[v]][j] += 1
    return counts


def _gain_of(h: Hypergraph, counts: list[list[int]], parts: list[int], v: int) -> float:
    a = parts[v]
    in_a, in_b = counts[a], counts[1 - a]
    nw = h._nw
    g = 0.0
    for j in h._vnets[v]:
        if in_b[j] == 0:
            g -= nw[j]
        if in_a[j] == 1:
            g += nw[j]
    return g


def fm_refine(
    h: Hypergraph,
    parts: np.ndarray,
    max_part_weights: tuple[float, float],
    max_passes: int = 8,
) -> np.ndarray:
    """Refine a bipartition in place-semantics (returns a new array).

    ``max_part_weights`` bounds each side's total vertex weight; a move is
    admissible only if the destination stays within its bound. If the input
    violates a bound, rebalancing moves (negative gain allowed) are used
    until feasible, mirroring PaToH's feasibility-restoring passes.
    """
    n = h.num_vertices
    if n == 0:
        return np.asarray(parts, dtype=int).copy()
    parts = np.asarray(parts, dtype=int).tolist()
    vw, nw, pins, vnets = h._vw, h._nw, h._pins, h._vnets

    def _feasible_weights(w) -> bool:
        return w[0] <= max_part_weights[0] and w[1] <= max_part_weights[1]

    best_parts = parts[:]
    best_cut: float | None = None  # the input's cut, set by the first pass
    for _ in range(max_passes):
        counts = _side_counts(h, parts)
        # Each pass sums its side weights afresh, in vertex order.
        side_w = [0.0, 0.0]
        for v in range(n):
            side_w[parts[v]] += vw[v]
        gains = [_gain_of(h, counts, parts, v) for v in range(n)]
        heap: list[tuple[float, int]] = [(-g, v) for v, g in enumerate(gains)]
        heapq.heapify(heap)
        locked = [False] * n

        moves: list[int] = []
        # The cut nets are those with pins on both sides.
        in0, in1 = counts
        cur_cut = 0.0
        for j in range(h.num_nets):
            if in0[j] and in1[j]:
                cur_cut += nw[j]
        feasible = _feasible_weights(side_w)
        pass_best_cut = cur_cut if feasible else math.inf
        pass_best_prefix = 0
        if best_cut is None:
            best_cut = pass_best_cut

        while heap:
            neg_g, v = heapq.heappop(heap)
            if locked[v] or gains[v] != -neg_g:
                continue  # stale heap entry
            a = parts[v]
            b = 1 - a
            if side_w[b] + vw[v] > max_part_weights[b]:
                # Inadmissible; if currently infeasible on side a, allow the
                # move anyway when it improves balance.
                if not (not feasible and side_w[a] > max_part_weights[a]):
                    continue

            # Commit the move.
            locked[v] = True
            parts[v] = b
            side_w[a] -= vw[v]
            side_w[b] += vw[v]
            cur_cut -= gains[v]
            moves.append(v)
            feasible = _feasible_weights(side_w)
            # Update net counts and neighbour gains.
            leave, enter = counts[a], counts[b]
            dirty: set[int] = set()
            for j in vnets[v]:
                leave[j] -= 1
                enter[j] += 1
                for u in pins[j]:
                    if not locked[u]:
                        dirty.add(u)
            for u in dirty:
                g = _gain_of(h, counts, parts, u)
                if g != gains[u]:
                    gains[u] = g
                    heapq.heappush(heap, (-g, u))

            if feasible and cur_cut < pass_best_cut - 1e-12:
                pass_best_cut = cur_cut
                pass_best_prefix = len(moves)

        # Roll back to the best feasible prefix of this pass.
        for v in moves[pass_best_prefix:]:
            parts[v] = 1 - parts[v]

        if telemetry.enabled:
            telemetry.count("hypergraph/fm/passes")
            telemetry.count("hypergraph/fm/moves", pass_best_prefix)
            if math.isfinite(pass_best_cut) and math.isfinite(best_cut):
                telemetry.count(
                    "hypergraph/fm/gain", max(best_cut - pass_best_cut, 0.0)
                )

        if pass_best_cut < best_cut - 1e-12:
            best_cut = pass_best_cut
            best_parts = parts[:]
        else:
            break  # no improvement this pass

    return np.array(best_parts, dtype=int)
