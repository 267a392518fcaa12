"""Multilevel bisection: coarsen -> initial partition -> refine at the
coarsest and the finest level."""

from __future__ import annotations

import numpy as np

from ..obs.core import telemetry
from .coarsen import coarsen
from .hypergraph import Hypergraph
from .initial import initial_bipartition
from .refine import fm_refine

__all__ = ["multilevel_bisect", "split"]


def multilevel_bisect(
    h: Hypergraph,
    rng: np.random.Generator,
    target0_fraction: float = 0.5,
    epsilon: float = 0.05,
    coarsen_to: int = 64,
    initial_tries: int = 4,
) -> np.ndarray:
    """Bisect ``h`` into parts {0, 1} with weight targets and tolerance.

    ``target0_fraction`` is part 0's share of the total vertex weight (used
    for uneven splits in recursive bisection of non-power-of-two K); each
    side may exceed its target by at most ``epsilon`` relatively.

    The coarsest level's initial partition is refined, projected through
    every level onto ``h`` and refined once more there.
    """
    n = h.num_vertices
    if n == 0:
        return np.zeros(0, dtype=int)
    if n == 1:
        return np.zeros(1, dtype=int)

    total = h.total_vertex_weight
    # Allow at least the heaviest single vertex so a feasible split exists.
    heaviest = float(h.vertex_weights.max())
    max0 = max(total * target0_fraction * (1 + epsilon), heaviest)
    max1 = max(total * (1 - target0_fraction) * (1 + epsilon), heaviest)

    coarsest, levels = coarsen(h, rng, target_vertices=coarsen_to)
    parts = initial_bipartition(coarsest, rng, target0_fraction, tries=initial_tries)
    parts = fm_refine(coarsest, parts, (max0, max1))
    if not levels:
        return parts
    for cluster_of in reversed(levels):
        parts = parts[cluster_of]
    return fm_refine(h, parts, (max0, max1))


def split(
    h: Hypergraph, rng: np.random.Generator, k0: int, k: int,
    epsilon: float, coarsen_to: int, initial_tries: int,
) -> tuple[tuple[Hypergraph, np.ndarray], tuple[Hypergraph, np.ndarray]]:
    """One step of recursive bisection, side 0 taking ``k0 / k`` of the
    weight: the two sides as ``Hypergraph.sub_hypergraph`` pairs.

    A degenerate bisection (every vertex on one side) is replaced by the
    ``n * k0 // k`` heaviest vertices against the rest, so every step makes
    progress.
    """
    with telemetry.span("bisect"):
        bis = multilevel_bisect(h, rng, k0 / k, epsilon, coarsen_to, initial_tries)
    side0 = np.flatnonzero(bis == 0)
    side1 = np.flatnonzero(bis == 1)
    if len(side0) == 0 or len(side1) == 0:
        order = np.argsort(-h.vertex_weights)
        half = max(1, h.num_vertices * k0 // k)
        side0, side1 = order[:half], order[half:]
    return h.sub_hypergraph(side0), h.sub_hypergraph(side1)
