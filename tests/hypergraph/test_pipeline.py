"""Tests for the multilevel pipeline: coarsening, initial, FM, bisection."""

import numpy as np
import pytest

from repro.hypergraph import (
    Hypergraph,
    coarsen,
    compute_gains,
    cut_weight,
    fm_refine,
    greedy_growing_bipartition,
    heavy_connectivity_matching,
    initial_bipartition,
    multilevel_bisect,
    random_bipartition,
)


def two_cliques(k: int = 8, bridge_weight: float = 1.0) -> Hypergraph:
    """Two densely-shared vertex groups joined by one light net.

    Any decent bisector must cut only the bridge.
    """
    nets = []
    weights = []
    for base in (0, k):
        for i in range(base, base + k):
            for j in range(i + 1, base + k):
                nets.append([i, j])
                weights.append(5.0)
    nets.append([0, k])
    weights.append(bridge_weight)
    return Hypergraph(2 * k, nets, net_weights=weights)


class TestMatching:
    def test_cluster_ids_contiguous(self):
        h = two_cliques(4)
        rng = np.random.default_rng(0)
        c = heavy_connectivity_matching(h, rng)
        assert set(c.tolist()) == set(range(int(c.max()) + 1))

    def test_pairs_only(self):
        h = two_cliques(4)
        rng = np.random.default_rng(0)
        c = heavy_connectivity_matching(h, rng)
        _, counts = np.unique(c, return_counts=True)
        assert counts.max() <= 2

    def test_respects_weight_cap(self):
        h = Hypergraph(2, [[0, 1]], vertex_weights=[5.0, 5.0])
        rng = np.random.default_rng(0)
        c = heavy_connectivity_matching(h, rng, max_cluster_weight=6.0)
        assert c[0] != c[1]

    def test_matches_heavily_connected(self):
        # Vertices 0-1 share a heavy net; 2 is lightly attached.
        h = Hypergraph(3, [[0, 1], [1, 2]], net_weights=[100.0, 1.0])
        rng = np.random.default_rng(1)
        c = heavy_connectivity_matching(h, rng)
        assert c[0] == c[1]
        assert c[2] != c[0]


class TestCoarsen:
    def test_reaches_target(self):
        h = two_cliques(16)
        coarsest, levels = coarsen(h, np.random.default_rng(0), target_vertices=8)
        assert coarsest.num_vertices <= max(8, h.num_vertices)
        assert coarsest.num_vertices < h.num_vertices
        assert levels  # at least one level

    def test_weight_conserved(self):
        h = two_cliques(8)
        coarsest, _ = coarsen(h, np.random.default_rng(0), target_vertices=4)
        assert coarsest.total_vertex_weight == pytest.approx(h.total_vertex_weight)


class TestInitial:
    def test_random_hits_target(self):
        h = two_cliques(8)
        rng = np.random.default_rng(0)
        parts = random_bipartition(h, rng, h.total_vertex_weight / 2)
        w0 = h.vertex_weights[parts == 0].sum()
        assert w0 >= h.total_vertex_weight / 2  # filled up to the target
        assert set(parts.tolist()) <= {0, 1}

    def test_greedy_growing_prefers_clique(self):
        h = two_cliques(8)
        rng = np.random.default_rng(2)
        parts = greedy_growing_bipartition(h, rng, h.total_vertex_weight / 2)
        # The grown part should be one whole clique (cut == bridge weight).
        assert cut_weight(h, parts) == pytest.approx(1.0)

    def test_initial_returns_best(self):
        h = two_cliques(6)
        parts = initial_bipartition(h, np.random.default_rng(3), tries=4)
        assert cut_weight(h, parts) <= 5.0


class TestFM:
    def test_gains_computation(self):
        h = Hypergraph(2, [[0, 1]], net_weights=[3.0])
        gains = compute_gains(h, np.array([0, 1]))
        # Moving either vertex uncuts the net.
        assert gains.tolist() == [3.0, 3.0]

    def test_gains_negative_for_internal(self):
        h = Hypergraph(2, [[0, 1]], net_weights=[3.0])
        gains = compute_gains(h, np.array([0, 0]))
        assert gains.tolist() == [-3.0, -3.0]

    def test_improves_bad_partition(self):
        h = two_cliques(6)
        # Interleaved (bad) partition.
        bad = np.array([i % 2 for i in range(h.num_vertices)])
        cap = h.total_vertex_weight * 0.6
        refined = fm_refine(h, bad, (cap, cap))
        assert cut_weight(h, refined) < cut_weight(h, bad)

    def test_never_worsens(self):
        rng = np.random.default_rng(7)
        h = two_cliques(5)
        for _ in range(5):
            parts = rng.integers(0, 2, size=h.num_vertices)
            cap = h.total_vertex_weight  # no balance pressure
            refined = fm_refine(h, parts, (cap, cap))
            assert cut_weight(h, refined) <= cut_weight(h, parts) + 1e-9

    def test_respects_balance_bound(self):
        h = two_cliques(6)
        bad = np.array([i % 2 for i in range(h.num_vertices)])
        cap = h.total_vertex_weight * 0.55
        refined = fm_refine(h, bad, (cap, cap))
        w = np.zeros(2)
        np.add.at(w, refined, h.vertex_weights)
        assert w[0] <= cap + 1e-9
        assert w[1] <= cap + 1e-9

    def test_restores_feasibility(self):
        h = Hypergraph(4, [[0, 1], [2, 3]], vertex_weights=[1, 1, 1, 1])
        # Everything on side 0; bound forces a 2/2 split.
        parts = np.zeros(4, dtype=int)
        refined = fm_refine(h, parts, (2.0, 2.0))
        w = np.zeros(2)
        np.add.at(w, refined, h.vertex_weights)
        assert w.max() <= 2.0 + 1e-9


class TestMultilevelBisect:
    def test_finds_bridge_cut(self):
        h = two_cliques(12)
        parts = multilevel_bisect(h, np.random.default_rng(0))
        assert cut_weight(h, parts) == pytest.approx(1.0)

    def test_balance(self):
        h = two_cliques(12)
        parts = multilevel_bisect(h, np.random.default_rng(0), epsilon=0.05)
        w = np.zeros(2)
        np.add.at(w, parts, h.vertex_weights)
        assert w.max() <= h.total_vertex_weight * 0.5 * 1.05 + 1e-9

    def test_uneven_targets(self):
        h = Hypergraph(10, [[i, (i + 1) % 10] for i in range(10)])
        parts = multilevel_bisect(
            h, np.random.default_rng(1), target0_fraction=0.3, epsilon=0.34
        )
        w0 = h.vertex_weights[parts == 0].sum()
        assert 1 <= w0 <= 5  # roughly 30% of 10

    def test_refines_at_the_coarsest_and_finest_level_only(self, monkeypatch):
        # The coarsest level's refinement is projected through the levels
        # in between without refining them, and refined once more on h.
        h = two_cliques(16)
        _, levels = coarsen(h, np.random.default_rng(0), target_vertices=4)
        assert len(levels) >= 2
        refined = []

        def spy(g, *args, **kwargs):
            refined.append(g.num_vertices)
            return fm_refine(g, *args, **kwargs)

        monkeypatch.setattr("repro.hypergraph.bisect.fm_refine", spy)
        multilevel_bisect(h, np.random.default_rng(0), coarsen_to=4)
        assert len(refined) == 2
        assert refined[1] == h.num_vertices

    def test_trivial_sizes(self):
        assert multilevel_bisect(
            Hypergraph(0, []), np.random.default_rng(0)
        ).tolist() == []
        assert multilevel_bisect(
            Hypergraph(1, [[0]]), np.random.default_rng(0)
        ).tolist() == [0]
