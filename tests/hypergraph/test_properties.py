"""Property-based tests for the hypergraph partitioner invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hypergraph import (
    Hypergraph,
    binw_partition,
    connectivity_1,
    cut_weight,
    fm_refine,
    imbalance,
    incident_net_weights,
    kway_partition,
    multilevel_bisect,
)


@st.composite
def random_hypergraph(draw):
    n = draw(st.integers(min_value=2, max_value=24))
    num_nets = draw(st.integers(min_value=1, max_value=30))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    nets = []
    for _ in range(num_nets):
        size = int(rng.integers(2, min(6, n) + 1))
        nets.append(rng.choice(n, size=size, replace=False).tolist())
    vweights = rng.uniform(0.5, 4.0, size=n)
    nweights = rng.uniform(0.5, 10.0, size=num_nets)
    return Hypergraph(n, nets, vertex_weights=vweights, net_weights=nweights)


@settings(max_examples=40, deadline=None)
@given(random_hypergraph(), st.integers(0, 1000))
def test_bisect_produces_valid_two_way(h, seed):
    parts = multilevel_bisect(h, np.random.default_rng(seed))
    assert len(parts) == h.num_vertices
    assert set(parts.tolist()) <= {0, 1}


@settings(max_examples=40, deadline=None)
@given(random_hypergraph(), st.integers(2, 5), st.integers(0, 1000))
def test_kway_assigns_every_vertex_in_range(h, k, seed):
    parts = kway_partition(h, k, np.random.default_rng(seed), epsilon=0.5)
    assert len(parts) == h.num_vertices
    assert parts.min() >= 0
    assert parts.max() < k


@settings(max_examples=30, deadline=None)
@given(random_hypergraph(), st.integers(0, 1000))
def test_connectivity_lower_bound(h, seed):
    """connectivity-1 >= cut weight for any partition, and both are 0 for
    the trivial partition."""
    parts = kway_partition(h, 3, np.random.default_rng(seed), epsilon=0.5)
    assert connectivity_1(h, parts) >= cut_weight(h, parts) - 1e-9
    trivial = np.zeros(h.num_vertices, dtype=int)
    assert connectivity_1(h, trivial) == 0.0


@settings(max_examples=30, deadline=None)
@given(random_hypergraph(), st.integers(0, 1000))
def test_fm_never_increases_cut_from_feasible(h, seed):
    rng = np.random.default_rng(seed)
    parts = rng.integers(0, 2, size=h.num_vertices)
    cap = h.total_vertex_weight  # always feasible
    refined = fm_refine(h, parts, (cap, cap))
    assert cut_weight(h, refined) <= cut_weight(h, parts) + 1e-9


@settings(max_examples=30, deadline=None)
@given(random_hypergraph(), st.integers(0, 1000))
def test_binw_bound_holds(h, seed):
    bound = max(h.total_net_weight / 2, h.net_weights.max() * 1.5)
    res = binw_partition(h, bound, np.random.default_rng(seed))
    inw = incident_net_weights(h, res.parts, res.num_parts)
    for p in range(res.num_parts):
        if p not in res.oversized_parts:
            assert inw[p] <= bound + 1e-6


@settings(max_examples=30, deadline=None)
@given(random_hypergraph(), st.integers(0, 1000))
def test_contract_preserves_totals(h, seed):
    rng = np.random.default_rng(seed)
    nc = max(1, h.num_vertices // 2)
    cluster_of = rng.integers(0, nc, size=h.num_vertices)
    # make contiguous
    uniq = np.unique(cluster_of)
    remap = {int(u): i for i, u in enumerate(uniq)}
    cluster_of = np.array([remap[int(c)] for c in cluster_of])
    coarse = h.contract(cluster_of)
    assert coarse.total_vertex_weight == pytest.approx(h.total_vertex_weight)
    # Net weight is conserved between surviving nets and anchors.
    total = coarse.total_net_weight + coarse.anchored_weights.sum()
    assert total == pytest.approx(h.total_net_weight + h.anchored_weights.sum())


@settings(max_examples=30, deadline=None)
@given(random_hypergraph(), st.integers(0, 1000))
def test_sub_hypergraph_incident_weight_invariant(h, seed):
    """Net splitting must preserve each subset's incident net weight."""
    rng = np.random.default_rng(seed)
    size = rng.integers(1, h.num_vertices + 1)
    subset = rng.choice(h.num_vertices, size=size, replace=False)
    sub, ids = h.sub_hypergraph(subset)
    assert sub.incident_net_weight(range(sub.num_vertices)) == pytest.approx(
        h.incident_net_weight(ids)
    )


@settings(max_examples=20, deadline=None)
@given(random_hypergraph(), st.integers(0, 1000))
def test_recursive_bisection_cut_accounting(h, seed):
    """Sum of bisection cuts equals the k-way connectivity-1 cost.

    This is the net-splitting invariant the partitioner relies on; verify it
    by re-deriving connectivity-1 from the final partition.
    """
    parts = kway_partition(h, 4, np.random.default_rng(seed), epsilon=0.5)
    # Recompute connectivity from scratch.
    total = 0.0
    for j in range(h.num_nets):
        lam = len({int(parts[v]) for v in h.pins(j)})
        total += h.net_weights[j] * (lam - 1)
    assert total == pytest.approx(connectivity_1(h, parts))
