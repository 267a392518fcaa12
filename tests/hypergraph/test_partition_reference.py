"""The partitioner's list kernels against the numpy kernels they replaced.

Every kernel must give bit-identical results: the same partitions, the same
coarse and split hypergraphs down to the last bit of every weight, and the
same random draws (the generator's state afterwards). The drawn hypergraphs
have either fractional weights from a small pool, so that many sums are
equal in exact arithmetic but not in floating point and a sum taken in
another order shows up as a different tie break, or unit weights, so that
ties are everywhere and the order in which a set or dict yields its
members decides them. They also have duplicate pins, size-1 nets, zero
weights, disconnected pieces and up to 150 vertices, so that coarsening
runs.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.hypergraph import (
    Hypergraph,
    binw_partition,
    compute_gains,
    cut_weight,
    fm_refine,
    greedy_growing_bipartition,
    heavy_connectivity_matching,
    kway_partition,
    multilevel_bisect,
    random_bipartition,
)
from repro.obs.core import telemetry

from . import partition_reference as ref

#: Weights in the drawn hypergraphs; sums of these are rarely exact.
_WEIGHTS = (0.1, 0.2, 0.3, 0.7, 1.1, 2.9, 0.01, 12.345)


@st.composite
def hypergraphs(draw, max_vertices=150):
    """Arguments for ``Hypergraph`` and ``RefHypergraph``."""
    n = draw(st.integers(1, max_vertices))
    pieces = draw(st.integers(1, 4))
    zero_share = draw(st.sampled_from([0.0, 0.2]))
    unit = draw(st.booleans())
    anchored = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    piece_of = rng.integers(pieces, size=n)
    nets = []
    for _ in range(int(rng.integers(1, 2 * n + 2))):
        members = np.flatnonzero(piece_of == rng.integers(pieces))
        if len(members) == 0:
            members = np.arange(n)
        size = int(rng.choice([1, 2, 2, 3, 3, 4, 6, 9, 70]))
        # Drawn with replacement, so nets may repeat a pin.
        nets.append(rng.choice(members, size=size).tolist())

    def weights(count):
        if unit:
            w = np.ones(count)
        else:
            w = rng.choice(_WEIGHTS, size=count) * rng.choice([1.0, 3.0, 0.5], size=count)
        w[rng.random(count) < zero_share] = 0.0
        return w.tolist()

    vertex_weights = weights(n)
    net_weights = weights(len(nets))
    anchored_weights = weights(n) if anchored else None
    return n, nets, vertex_weights, net_weights, anchored_weights


def both(args):
    return Hypergraph(*args), ref.RefHypergraph(*args)


def same_bits(x, y):
    assert float(x).hex() == float(y).hex()


def same_array(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def same_graph(new, old):
    assert new.num_vertices == old.num_vertices
    assert [new.pins(j) for j in range(new.num_nets)] == [
        old.pins(j) for j in range(old.num_nets)
    ]
    for name in ("vertex_weights", "net_weights", "anchored_weights"):
        same_array(getattr(new, name), getattr(old, name))


def rngs(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def same_rng(a, b):
    assert a.bit_generator.state == b.bit_generator.state


@settings(max_examples=40, deadline=None)
@given(hypergraphs(), st.integers(0, 2**32 - 1))
def test_sums_cuts_and_gains(args, seed):
    new, old = both(args)
    n = new.num_vertices
    same_bits(new.total_vertex_weight, old.total_vertex_weight)
    pick = np.random.default_rng(seed)
    subset = pick.choice(n, size=int(pick.integers(n + 1)), replace=False)
    same_bits(new.incident_net_weight(subset), old.incident_net_weight(subset))
    same_bits(
        new.incident_net_weight(range(n)), old.incident_net_weight(range(n))
    )
    two = pick.integers(2, size=n)
    same_bits(cut_weight(new, two), ref.cut_weight(old, two))
    same_array(compute_gains(new, two), ref.compute_gains(old, two))
    four = pick.integers(4, size=n)
    same_bits(cut_weight(new, four), ref.cut_weight(old, four))


@settings(max_examples=40, deadline=None)
@given(hypergraphs(), st.integers(0, 2**32 - 1), st.sampled_from([None, 0.5, 0.1]))
def test_matching_and_contraction(args, seed, cap_share):
    new, old = both(args)
    n = new.num_vertices
    cap = None if cap_share is None else new.total_vertex_weight * cap_share
    a, b = rngs(seed)
    clusters = heavy_connectivity_matching(new, a, cap)
    same_array(clusters, ref.heavy_connectivity_matching(old, b, cap))
    same_rng(a, b)
    same_graph(new.contract(clusters), old.contract(clusters))
    # Clusters of any size, so that weights are summed three or more at a
    # time and their order shows.
    labels = np.random.default_rng(seed).integers(max(1, n // 5), size=n)
    dense = np.unique(labels, return_inverse=True)[1]
    same_graph(new.contract(dense), old.contract(dense))


@settings(max_examples=40, deadline=None)
@given(hypergraphs(), st.integers(0, 2**32 - 1))
def test_sub_hypergraph(args, seed):
    new, old = both(args)
    n = new.num_vertices
    pick = np.random.default_rng(seed)
    vertices = pick.choice(n, size=int(pick.integers(n + 1)))  # repeats too
    sub, ids = new.sub_hypergraph(vertices)
    old_sub, old_ids = old.sub_hypergraph(vertices)
    same_graph(sub, old_sub)
    same_array(ids, old_ids)


@settings(max_examples=40, deadline=None)
@given(hypergraphs(), st.integers(0, 2**32 - 1), st.sampled_from([0.5, 0.3, 1.0]))
def test_initial_bipartitions(args, seed, share):
    new, old = both(args)
    target0 = new.total_vertex_weight * share
    for kernel, old_kernel in (
        (greedy_growing_bipartition, ref.greedy_growing_bipartition),
        (random_bipartition, ref.random_bipartition),
    ):
        a, b = rngs(seed)
        same_array(kernel(new, a, target0), old_kernel(old, b, target0))
        same_rng(a, b)


@settings(max_examples=40, deadline=None)
@given(
    hypergraphs(),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.4, 0.5, 0.55, 1.0]),
    st.sampled_from([1, 8]),
)
def test_fm_refine(args, seed, share, passes):
    """From a random start, feasible or not, with tight and loose bounds.
    The ``hypergraph/fm/gain`` counter is the input's cut less the best cut
    each pass reached, so it shows the cut FM tracks down to the last bit."""
    new, old = both(args)
    total = new.total_vertex_weight
    parts = np.random.default_rng(seed).integers(2, size=new.num_vertices)
    bounds = (total * share, total * (1.0 - share) * 1.05)

    def counted(fm, h):
        telemetry.reset()
        telemetry.enable()
        try:
            refined = fm(h, parts, bounds, max_passes=passes)
        finally:
            telemetry.disable()
        counters = {k: float(v).hex() for k, v in telemetry.snapshot()["counters"].items()}
        telemetry.reset()
        return refined, counters

    refined, counters = counted(fm_refine, new)
    old_refined, old_counters = counted(ref.fm_refine, old)
    same_array(refined, old_refined)
    assert counters == old_counters


@settings(max_examples=25, deadline=None)
@given(hypergraphs(), st.integers(0, 2**32 - 1), st.sampled_from([4, 16, 64]))
def test_multilevel_bisect(args, seed, coarsen_to):
    new, old = both(args)
    a, b = rngs(seed)
    same_array(
        multilevel_bisect(new, a, 0.6, coarsen_to=coarsen_to),
        ref.multilevel_bisect(old, b, 0.6, coarsen_to=coarsen_to),
    )
    same_rng(a, b)


@settings(max_examples=12, deadline=None)
@given(
    hypergraphs(),
    st.integers(0, 2**32 - 1),
    st.integers(2, 7),
    st.sampled_from([8, 64]),
)
def test_kway_partition(args, seed, k, coarsen_to):
    new, old = both(args)
    a, b = rngs(seed)
    same_array(
        kway_partition(new, k, a, coarsen_to=coarsen_to),
        ref.kway_partition(old, k, b, coarsen_to=coarsen_to),
    )
    same_rng(a, b)


@settings(max_examples=20, deadline=None)
@given(
    hypergraphs(),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1.0, 0.5, 0.2]),
    st.sampled_from([8, 64]),
)
def test_binw_partition(args, seed, share, coarsen_to):
    """Bounds at a share of the whole footprint; a share of 1 puts the bound
    exactly on the whole graph's incident net weight, as numpy sums it."""
    new, old = both(args)
    bound = old.incident_net_weight(range(old.num_vertices)) * share
    if bound <= 0:
        bound = 1.0
    a, b = rngs(seed)
    got = binw_partition(new, bound, a, coarsen_to=coarsen_to)
    parts, num_parts, oversized = ref.binw_partition(
        old, bound, b, coarsen_to=coarsen_to
    )
    same_array(got.parts, parts)
    assert (got.num_parts, got.oversized_parts) == (num_parts, oversized)
    same_rng(a, b)
