"""Tests for K-way recursive bisection and BINW partitioning."""

import numpy as np
import pytest

from repro.hypergraph import (
    Hypergraph,
    binw_partition,
    connectivity_1,
    imbalance,
    incident_net_weights,
    kway_partition,
    part_weights,
)
from repro.obs.core import telemetry


def clustered_graph(groups: int, size: int, seed: int = 0) -> Hypergraph:
    """``groups`` clusters of ``size`` vertices with intra-cluster nets plus
    a few weak inter-cluster nets."""
    rng = np.random.default_rng(seed)
    nets, weights = [], []
    n = groups * size
    for g in range(groups):
        base = g * size
        for i in range(base, base + size):
            for j in range(i + 1, base + size):
                nets.append([i, j])
                weights.append(4.0)
    for _ in range(groups):
        a, b = rng.choice(n, size=2, replace=False)
        if a != b:
            nets.append([int(a), int(b)])
            weights.append(0.5)
    return Hypergraph(n, nets, net_weights=weights)


def grid_graph(side: int) -> Hypergraph:
    """A ``side`` x ``side`` grid with one unit net per run of three
    vertices along a row or a column."""
    nets = []
    for r in range(side):
        for c in range(side - 2):
            nets.append([r * side + c + d for d in range(3)])
            nets.append([(c + d) * side + r for d in range(3)])
    return Hypergraph(side * side, nets)


class TestKWay:
    def test_produces_k_parts(self):
        h = clustered_graph(4, 6)
        parts = kway_partition(h, 4, np.random.default_rng(0))
        assert set(parts.tolist()) == {0, 1, 2, 3}

    def test_respects_epsilon(self):
        h = clustered_graph(4, 6)
        parts = kway_partition(h, 4, np.random.default_rng(0), epsilon=0.15)
        assert imbalance(h, parts, 4) <= 0.15 + 1e-9

    def test_recovers_clusters(self):
        h = clustered_graph(4, 8, seed=1)
        parts = kway_partition(h, 4, np.random.default_rng(1))
        # Each natural cluster should land in a single part: connectivity
        # cost is then only the weak bridges.
        assert connectivity_1(h, parts) <= 4 * 0.5 + 1e-9

    def test_beats_random(self):
        rng = np.random.default_rng(5)
        h = clustered_graph(4, 8, seed=2)
        parts = kway_partition(h, 4, rng)
        random_parts = rng.integers(0, 4, size=h.num_vertices)
        assert connectivity_1(h, parts) < connectivity_1(h, random_parts)

    def test_k1_trivial(self):
        h = clustered_graph(2, 4)
        parts = kway_partition(h, 1, np.random.default_rng(0))
        assert set(parts.tolist()) == {0}

    def test_non_power_of_two(self):
        h = clustered_graph(3, 6)
        parts = kway_partition(h, 3, np.random.default_rng(0), epsilon=0.2)
        assert set(parts.tolist()) == {0, 1, 2}
        assert imbalance(h, parts, 3) <= 0.2 + 1e-6

    def test_k_larger_than_vertices(self):
        h = Hypergraph(3, [[0, 1, 2]])
        parts = kway_partition(h, 8, np.random.default_rng(0))
        # Every vertex assigned to a valid part id; no crash.
        assert parts.min() >= 0
        assert parts.max() < 8

    def test_k_invalid(self):
        h = Hypergraph(2, [[0, 1]])
        with pytest.raises(ValueError):
            kway_partition(h, 0, np.random.default_rng(0))

    def test_all_vertices_assigned(self):
        h = clustered_graph(4, 5)
        parts = kway_partition(h, 4, np.random.default_rng(0))
        assert len(parts) == h.num_vertices
        assert (parts >= 0).all()


class TestBinw:
    def test_bound_respected(self):
        h = clustered_graph(4, 6)
        bound = h.total_net_weight / 3
        res = binw_partition(h, bound, np.random.default_rng(0))
        inw = incident_net_weights(h, res.parts, res.num_parts)
        assert (inw <= bound + 1e-9).all()
        assert res.oversized_parts == ()

    def test_single_part_when_bound_large(self):
        h = clustered_graph(2, 4)
        res = binw_partition(
            h, h.total_net_weight * 2, np.random.default_rng(0)
        )
        assert res.num_parts == 1

    def test_all_vertices_assigned(self):
        h = clustered_graph(3, 6)
        res = binw_partition(h, h.total_net_weight / 2, np.random.default_rng(0))
        assert (res.parts >= 0).all()
        assert len(res.parts) == h.num_vertices

    def test_oversized_singleton_flagged(self):
        # One vertex with an incident net weight exceeding any bound.
        h = Hypergraph(2, [[0, 1]], net_weights=[100.0])
        res = binw_partition(h, 10.0, np.random.default_rng(0))
        assert res.num_parts == 2
        assert len(res.oversized_parts) == 2  # both singletons over the bound

    def test_tight_bound_gives_more_parts(self):
        h = clustered_graph(4, 6, seed=3)
        rng = np.random.default_rng(0)
        loose = binw_partition(h, h.total_net_weight / 2, rng)
        tight = binw_partition(h, h.total_net_weight / 5, np.random.default_rng(0))
        assert tight.num_parts >= loose.num_parts

    def test_invalid_bound(self):
        h = Hypergraph(2, [[0, 1]])
        with pytest.raises(ValueError):
            binw_partition(h, 0.0, np.random.default_rng(0))

    def test_cluster_structure_exploited(self):
        # Bound sized for exactly one cluster: BINW should cut few nets.
        h = clustered_graph(4, 6, seed=4)
        per_cluster = h.total_net_weight / 4
        res = binw_partition(
            h, per_cluster * 1.2, np.random.default_rng(2)
        )
        # 4 natural clusters -> close to 4 parts and low connectivity cost.
        assert 3 <= res.num_parts <= 8
        assert connectivity_1(h, res.parts) <= h.total_net_weight * 0.1


@pytest.fixture
def collecting():
    telemetry.reset()
    telemetry.enable()
    yield telemetry
    telemetry.disable()
    telemetry.reset()


class TestKWayCounters:
    def test_pinned_values_on_fixed_case(self, collecting):
        # Exact values: the partitioner is deterministic. Four parts take
        # three bisections: the 256-vertex grid, which coarsens through
        # three levels, and each half. Each bisection refines twice, at its
        # coarsest level and at its own graph, and FM repeats a pass only
        # while the last one improved the cut: 6 refinements, 10 passes.
        parts = kway_partition(grid_graph(16), 4, np.random.default_rng(0))
        counters = collecting.snapshot()["counters"]
        assert counters["hypergraph/bisections"] == 3.0
        assert counters["hypergraph/fm/passes"] == 10.0
        assert counters["hypergraph/fm/moves"] == 13.0
        assert counters["hypergraph/cut_weight"] == 70.0
        assert np.bincount(parts).tolist() == [66, 68, 59, 63]


class TestBinwTelemetry:
    """BINW selection records a ``binw-partition`` span with one ``bisect``
    span under it per bisection; the span takes no part in any decision."""

    def test_span_holds_every_bisection(self, collecting):
        h = clustered_graph(4, 6, seed=4)
        res = binw_partition(h, h.total_net_weight / 3, np.random.default_rng(2))
        spans = collecting.snapshot()["spans"]
        assert set(spans) == {"binw-partition", "binw-partition/bisect"}
        assert spans["binw-partition"]["count"] == 1
        # A binary tree with num_parts leaves has num_parts - 1 inner nodes.
        assert spans["binw-partition/bisect"]["count"] == res.num_parts - 1 > 0

    def test_a_graph_that_fits_is_not_bisected(self, collecting):
        h = clustered_graph(2, 3)
        assert binw_partition(h, h.total_net_weight, np.random.default_rng(0)).num_parts == 1
        assert set(collecting.snapshot()["spans"]) == {"binw-partition"}

    def test_span_is_decision_neutral(self):
        h = clustered_graph(4, 6, seed=4)
        bound = h.total_net_weight / 3
        quiet, traced = np.random.default_rng(5), np.random.default_rng(5)
        assert not telemetry.enabled
        telemetry.reset()
        plain = binw_partition(h, bound, quiet)
        assert telemetry.snapshot()["spans"] == {}
        telemetry.enable()
        try:
            timed = binw_partition(h, bound, traced)
        finally:
            telemetry.disable()
            telemetry.reset()
        assert plain.parts.tolist() == timed.parts.tolist()
        assert quiet.bit_generator.state == traced.bit_generator.state

    def test_bipartition_run_splits_selection_from_mapping(self):
        from repro.cluster.platform import osc_xio
        from repro.core.driver import run_batch
        from repro.workloads import make_batch

        batch = make_batch("image", 40, "high", 2, seed=3)
        platform = osc_xio(num_compute=2, num_storage=2, disk_space_mb=1200.0)
        res = run_batch(batch, platform, "bipartition", telemetry=True)
        spans = res.telemetry["spans"]
        assert spans["driver/schedule/binw-partition"]["count"] == 1
        assert spans["driver/schedule/binw-partition/bisect"]["count"] == 1
        assert spans["driver/schedule/kway-partition"]["count"] == res.num_sub_batches
