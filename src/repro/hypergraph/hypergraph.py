"""Hypergraph data structure used by the BiPartition scheduler.

A hypergraph ``H = (V, N)`` has weighted vertices (tasks: expected execution
time) and weighted nets (files: file size); each net connects the vertices
that share the corresponding file (Section 5.1 of the paper).

The structure is immutable after construction. Coarsening (:meth:`contract`)
and recursive bisection (:meth:`sub_hypergraph`) build *new* hypergraphs, the
latter implementing PaToH-style *net splitting* so the connectivity-1 metric
is accounted correctly across bisection levels.

``anchored_weights`` carries the BINW bookkeeping from Section 5.1: when a
net degenerates to a single pin (during contraction or net splitting) it can
no longer be cut, but its weight still counts toward its part's *incident net
weight*. The paper modified PaToH to accumulate such weights in "a separate
weight variable for each vertex"; that variable is ``anchored_weights``.

The weights are public numpy arrays. Each hypergraph also keeps plain-list
copies of them, made once at construction, which the partitioner's inner
loops read one element at a time: indexing a list is several times cheaper
than indexing a numpy array, and the floats are the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Sequence

import numpy as np

from ..analysis.dims import MB

__all__ = ["Hypergraph", "PartitionStats"]


class Hypergraph:
    """An immutable weighted hypergraph.

    Parameters
    ----------
    num_vertices:
        Number of vertices, identified by ``0..num_vertices-1``.
    nets:
        One pin list per net. Pins must be valid vertex ids; duplicates are
        removed. Empty nets are rejected.
    vertex_weights / net_weights:
        Balance weights for vertices and cost weights for nets. Default 1.0.
    anchored_weights:
        Per-vertex accumulated weight of degenerated (size-1) nets; used only
        for BINW incident-net-weight accounting.
    """

    def __init__(
        self,
        num_vertices: int,
        nets: Sequence[Iterable[int]],
        vertex_weights: Sequence[float] | None = None,
        net_weights: Sequence[float] | None = None,
        anchored_weights: Sequence[float] | None = None,
    ):
        if num_vertices < 0:
            raise ValueError("num_vertices must be non-negative")
        self._n = int(num_vertices)

        pins: list[tuple[int, ...]] = []
        for j, raw in enumerate(nets):
            uniq = sorted(set(map(int, raw)))
            if not uniq:
                raise ValueError(f"net {j} is empty")
            if uniq[0] < 0 or uniq[-1] >= self._n:
                raise ValueError(f"net {j} has out-of-range pins: {uniq}")
            pins.append(tuple(uniq))
        self._pins = pins

        self.vertex_weights = self._weights(vertex_weights, self._n, "vertex_weights")
        self.net_weights = self._weights(net_weights, len(pins), "net_weights")
        if anchored_weights is None:
            self.anchored_weights = np.zeros(self._n)
        else:
            self.anchored_weights = self._weights(
                anchored_weights, self._n, "anchored_weights", allow_zero=True
            )

        # vertex -> incident nets (list of net ids)
        vnets: list[list[int]] = [[] for _ in range(self._n)]
        for j, ps in enumerate(pins):
            for v in ps:
                vnets[v].append(j)
        self._vnets = [tuple(ns) for ns in vnets]

        # What the partitioner's loops read: the weights as lists, and each
        # net's pin count.
        self._vw: list[float] = self.vertex_weights.tolist()
        self._nw: list[float] = self.net_weights.tolist()
        self._aw: list[float] = self.anchored_weights.tolist()
        self._sizes = [len(ps) for ps in pins]

    @staticmethod
    def _weights(values, expected, label, allow_zero: bool = True) -> np.ndarray:
        if values is None:
            return np.ones(expected)
        arr = np.asarray(values, dtype=float)
        if arr.shape != (expected,):
            raise ValueError(f"{label} must have length {expected}, got {arr.shape}")
        if (arr < 0).any():
            raise ValueError(f"{label} must be non-negative")
        return arr.copy()

    # -- basic accessors -------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self._n

    @property
    def num_nets(self) -> int:
        return len(self._pins)

    @property
    def num_pins(self) -> int:
        return sum(len(p) for p in self._pins)

    def pins(self, net: int) -> tuple[int, ...]:
        """Vertices connected by ``net``."""
        return self._pins[net]

    def nets_of(self, vertex: int) -> tuple[int, ...]:
        """Nets incident to ``vertex``."""
        return self._vnets[vertex]

    def net_size(self, net: int) -> int:
        return len(self._pins[net])

    @property
    def total_vertex_weight(self) -> float:
        return float(self.vertex_weights.sum())

    @property
    def total_net_weight(self) -> float:
        return float(self.net_weights.sum())

    def degree(self, vertex: int) -> int:
        return len(self._vnets[vertex])

    # -- incident net weight (BINW) ---------------------------------------------
    def incident_net_weight(self, vertices: Iterable[int]) -> MB:
        """Total weight of nets incident to ``vertices`` plus anchored weight.

        This is the quantity bounded by ``D`` in BINW partitioning (Eq. 24):
        for a sub-batch it equals the total size of the distinct files the
        sub-batch's tasks touch.
        """
        vs = list(vertices)
        seen: set[int] = set()
        for v in vs:
            seen.update(self._vnets[v])
        w = float(self.net_weights[list(seen)].sum()) if seen else 0.0
        if len(vs):
            w += float(self.anchored_weights[vs].sum())
        return w

    # -- coarsening -----------------------------------------------------------
    def contract(self, cluster_of: Sequence[int]) -> Hypergraph:
        """Contract vertices into clusters, returning the coarse hypergraph.

        ``cluster_of[v]`` gives the coarse vertex id of ``v``; cluster ids
        must form a contiguous range ``0..nc-1``. Vertex (and anchored)
        weights are summed per cluster. Net pins are mapped and deduplicated;
        nets that degenerate to a single pin have their weight folded into
        the pin's anchored weight. Identical surviving nets are merged with
        summed weights (PaToH's identical-net collapse).
        """
        cluster_of = np.asarray(cluster_of, dtype=int)
        if cluster_of.shape != (self._n,):
            raise ValueError("cluster_of must map every vertex")
        nc = int(cluster_of.max()) + 1 if self._n else 0
        present = np.zeros(nc, dtype=bool)
        present[cluster_of] = True
        if not present.all():
            raise ValueError("cluster ids must be contiguous 0..nc-1")

        # Each cluster's weights are added in vertex order: the order
        # fixes the last bits of the sums.
        co = cluster_of.tolist()
        vweights = [0.0] * nc
        anchored = [0.0] * nc
        for v, c in enumerate(co):
            vweights[c] += self._vw[v]
            anchored[c] += self._aw[v]

        nets = (
            (tuple(sorted({co[v] for v in ps})), w)
            for ps, w in zip(self._pins, self._nw)
        )
        return _collapsed(nc, nets, vweights, anchored)

    # -- sub-hypergraph with net splitting -----------------------------------------
    def sub_hypergraph(
        self, vertices: Sequence[int]
    ) -> tuple["Hypergraph", np.ndarray]:
        """Restrict to ``vertices`` (net splitting for recursive bisection).

        Returns ``(sub, index_map)`` where ``index_map[local] = global``.
        Each net keeps only the pins inside the subset; nets reduced to a
        single pin are anchored onto that pin; empty restrictions vanish.
        With this accounting, summing the cut weight of every bisection in a
        recursive-bisection tree equals the connectivity-1 cost of the final
        partition (Section 5.1).
        """
        ids = sorted(set(map(int, vertices)))
        if ids and (ids[0] < 0 or ids[-1] >= self._n):
            raise ValueError("vertex ids out of range")
        local_of = {g: i for i, g in enumerate(ids)}

        vweights = [self._vw[g] for g in ids]
        anchored = [self._aw[g] for g in ids]

        seen_nets: set[int] = set()
        for g in ids:
            seen_nets.update(self._vnets[g])
        # Pins are sorted and ``local_of`` keeps their order.
        nets = (
            (tuple(local_of[v] for v in self._pins[j] if v in local_of), self._nw[j])
            for j in sorted(seen_nets)
        )
        sub = _collapsed(len(ids), nets, vweights, anchored)
        return sub, np.array(ids, dtype=int)

    def __repr__(self):
        return (
            f"Hypergraph({self._n} vertices, {self.num_nets} nets, "
            f"{self.num_pins} pins)"
        )


def _collapsed(
    num_vertices: int,
    nets: Iterable[tuple[tuple[int, ...], float]],
    vertex_weights: list[float],
    anchored: list[float],
) -> Hypergraph:
    """The hypergraph of ``(pins, weight)`` nets whose pins were mapped onto
    fewer vertices: a net left with one pin adds its weight to that pin's
    ``anchored`` weight, and identical nets merge with summed weights."""
    merged: dict[tuple[int, ...], float] = {}
    for pins, w in nets:
        if len(pins) == 1:
            anchored[pins[0]] += w
        else:
            merged[pins] = merged.get(pins, 0.0) + w
    return Hypergraph(
        num_vertices, list(merged), vertex_weights, list(merged.values()), anchored
    )


@dataclass(frozen=True)
class PartitionStats:
    """Summary of a partition's quality (see :mod:`repro.hypergraph.metrics`)."""

    num_parts: int
    cut_weight: float
    connectivity_1: float
    part_weights: tuple[float, ...]
    imbalance: float
    incident_net_weights: tuple[float, ...]
