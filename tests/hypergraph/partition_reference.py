"""Reference partitioner: the numpy kernels that ``repro.hypergraph`` replaced.

Before the partitioner's inner loops moved onto plain Python lists they
indexed numpy arrays one element at a time. This module keeps that
version, frozen, so ``test_partition_reference.py`` can check that the
list kernels compute the same partitions bit for bit and make the same
random draws. It shares no kernel code with ``repro.hypergraph``: it has
its own hypergraph class (:class:`RefHypergraph`), and every function
here is the old one with its telemetry removed, since telemetry does not
take part in any decision. FM keeps its ``hypergraph/fm/*`` counters: the
gain counter is the only outside view of the cut FM tracks.

The floats it produces come from ``np.add.at``, numpy scalar arithmetic
and numpy's pairwise ``.sum()``, exactly as before.
"""

import heapq

import numpy as np

from repro.batch import reader_counts
from repro.obs.core import telemetry

_MATCHING_NET_SIZE_LIMIT = 64


class RefHypergraph:
    """The old ``Hypergraph``: numpy weights, indexed element by element."""

    def __init__(self, num_vertices, nets, vertex_weights=None,
                 net_weights=None, anchored_weights=None):
        if num_vertices < 0:
            raise ValueError("num_vertices must be non-negative")
        self._n = int(num_vertices)
        pins = []
        for j, raw in enumerate(nets):
            uniq = sorted(set(int(v) for v in raw))
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
                anchored_weights, self._n, "anchored_weights"
            )
        vnets = [[] for _ in range(self._n)]
        for j, ps in enumerate(pins):
            for v in ps:
                vnets[v].append(j)
        self._vnets = [tuple(ns) for ns in vnets]

    @staticmethod
    def _weights(values, expected, label):
        if values is None:
            return np.ones(expected)
        arr = np.asarray(values, dtype=float)
        if arr.shape != (expected,):
            raise ValueError(f"{label} must have length {expected}, got {arr.shape}")
        if (arr < 0).any():
            raise ValueError(f"{label} must be non-negative")
        return arr.copy()

    @property
    def num_vertices(self):
        return self._n

    @property
    def num_nets(self):
        return len(self._pins)

    def pins(self, net):
        return self._pins[net]

    def nets_of(self, vertex):
        return self._vnets[vertex]

    def net_size(self, net):
        return len(self._pins[net])

    @property
    def total_vertex_weight(self):
        return float(self.vertex_weights.sum())

    def incident_net_weight(self, vertices):
        vs = list(vertices)
        seen = set()
        for v in vs:
            seen.update(self._vnets[v])
        w = float(self.net_weights[list(seen)].sum()) if seen else 0.0
        if len(vs):
            w += float(self.anchored_weights[vs].sum())
        return w

    def contract(self, cluster_of):
        cluster_of = np.asarray(cluster_of, dtype=int)
        if cluster_of.shape != (self._n,):
            raise ValueError("cluster_of must map every vertex")
        nc = int(cluster_of.max()) + 1 if self._n else 0
        present = np.zeros(nc, dtype=bool)
        present[cluster_of] = True
        if not present.all():
            raise ValueError("cluster ids must be contiguous 0..nc-1")
        vweights = np.zeros(nc)
        anchored = np.zeros(nc)
        np.add.at(vweights, cluster_of, self.vertex_weights)
        np.add.at(anchored, cluster_of, self.anchored_weights)
        merged = {}
        for j, ps in enumerate(self._pins):
            coarse = tuple(sorted(set(int(cluster_of[v]) for v in ps)))
            w = float(self.net_weights[j])
            if len(coarse) == 1:
                anchored[coarse[0]] += w
            else:
                merged[coarse] = merged.get(coarse, 0.0) + w
        nets = list(merged.keys())
        weights = [merged[p] for p in nets]
        return RefHypergraph(nc, nets, vweights, weights, anchored)

    def sub_hypergraph(self, vertices):
        idx = np.asarray(sorted(set(int(v) for v in vertices)), dtype=int)
        if len(idx) and (idx[0] < 0 or idx[-1] >= self._n):
            raise ValueError("vertex ids out of range")
        local_of = {int(g): i for i, g in enumerate(idx)}
        vweights = self.vertex_weights[idx] if len(idx) else np.zeros(0)
        anchored = self.anchored_weights[idx].copy() if len(idx) else np.zeros(0)
        merged = {}
        seen_nets = set()
        for g in idx:
            seen_nets.update(self._vnets[g])
        for j in sorted(seen_nets):
            local = tuple(
                sorted(local_of[v] for v in self._pins[j] if v in local_of)
            )
            if not local:
                continue
            w = float(self.net_weights[j])
            if len(local) == 1:
                anchored[local[0]] += w
            else:
                merged[local] = merged.get(local, 0.0) + w
        nets = list(merged.keys())
        weights = [merged[p] for p in nets]
        return RefHypergraph(len(idx), nets, vweights, weights, anchored), idx


def cut_weight(h, parts):
    arr = np.asarray(parts, dtype=int)
    if arr.shape != (h.num_vertices,):
        raise ValueError("partition must assign all vertices")
    total = 0.0
    for j in range(h.num_nets):
        ps = h.pins(j)
        first = arr[ps[0]]
        if any(arr[v] != first for v in ps[1:]):
            total += float(h.net_weights[j])
    return total


# -- FM refinement ---------------------------------------------------------------
def _side_counts(h, parts):
    counts = np.zeros((h.num_nets, 2), dtype=int)
    for j in range(h.num_nets):
        for v in h.pins(j):
            counts[j, parts[v]] += 1
    return counts


def _gain_of(h, counts, parts, v):
    a = parts[v]
    b = 1 - a
    g = 0.0
    for j in h.nets_of(v):
        if counts[j, b] == 0:
            g -= float(h.net_weights[j])
        if counts[j, a] == 1:
            g += float(h.net_weights[j])
    return g


def compute_gains(h, parts):
    counts = _side_counts(h, parts)
    gains = np.zeros(h.num_vertices)
    for v in range(h.num_vertices):
        gains[v] = _gain_of(h, counts, parts, v)
    return gains


def fm_refine(h, parts, max_part_weights, max_passes=8, rng=None):
    parts = np.asarray(parts, dtype=int).copy()
    if h.num_vertices == 0:
        return parts

    def _feasible_weights(w):
        return w[0] <= max_part_weights[0] and w[1] <= max_part_weights[1]

    init_w = np.zeros(2)
    np.add.at(init_w, parts, h.vertex_weights)
    best_parts = parts.copy()
    best_cut = cut_weight(h, parts) if _feasible_weights(init_w) else np.inf

    for _ in range(max_passes):
        counts = _side_counts(h, parts)
        side_w = np.zeros(2)
        np.add.at(side_w, parts, h.vertex_weights)
        gains = {v: _gain_of(h, counts, parts, v) for v in range(h.num_vertices)}
        heap = [(-g, v) for v, g in gains.items()]
        heapq.heapify(heap)
        locked = np.zeros(h.num_vertices, dtype=bool)

        moves = []
        cur_cut = cut_weight(h, parts)
        feasible = _feasible_weights(side_w)
        pass_best_cut = cur_cut if feasible else np.inf
        pass_best_prefix = 0

        while heap:
            neg_g, v = heapq.heappop(heap)
            if locked[v] or gains[v] != -neg_g:
                continue
            a = parts[v]
            b = 1 - a
            if side_w[b] + h.vertex_weights[v] > max_part_weights[b]:
                if not (not feasible and side_w[a] > max_part_weights[a]):
                    continue
            locked[v] = True
            parts[v] = b
            side_w[a] -= h.vertex_weights[v]
            side_w[b] += h.vertex_weights[v]
            cur_cut -= gains[v]
            moves.append(v)
            feasible = _feasible_weights(side_w)
            dirty = set()
            for j in h.nets_of(v):
                counts[j, a] -= 1
                counts[j, b] += 1
                for u in h.pins(j):
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

        for v in moves[pass_best_prefix:]:
            parts[v] = 1 - parts[v]

        if telemetry.enabled:
            telemetry.count("hypergraph/fm/passes")
            telemetry.count("hypergraph/fm/moves", pass_best_prefix)
            if np.isfinite(pass_best_cut) and np.isfinite(best_cut):
                telemetry.count(
                    "hypergraph/fm/gain", max(best_cut - pass_best_cut, 0.0)
                )

        if pass_best_cut < best_cut - 1e-12:
            best_cut = pass_best_cut
            best_parts = parts.copy()
        else:
            break

    return best_parts


# -- initial bipartitioning ------------------------------------------------------
def random_bipartition(h, rng, target0):
    parts = np.ones(h.num_vertices, dtype=int)
    acc = 0.0
    for v in rng.permutation(h.num_vertices):
        if acc < target0:
            parts[v] = 0
            acc += h.vertex_weights[v]
    return parts


def greedy_growing_bipartition(h, rng, target0):
    n = h.num_vertices
    parts = np.ones(n, dtype=int)
    if n == 0:
        return parts
    in0 = np.zeros(n, dtype=bool)
    pins_in0 = np.zeros(h.num_nets, dtype=int)

    def absorb_gain(v):
        g = 0.0
        for j in h.nets_of(v):
            size = h.net_size(j)
            cnt = pins_in0[j]
            if cnt == size - 1:
                g += float(h.net_weights[j])
            elif cnt == 0 and size > 1:
                g -= float(h.net_weights[j])
        return g

    seed = int(rng.integers(n))
    frontier = {seed}
    acc = 0.0
    while acc < target0:
        if not frontier:
            remaining = [v for v in range(n) if not in0[v]]
            if not remaining:
                break
            frontier.add(int(rng.choice(remaining)))
        best_v = max(frontier, key=lambda v: (absorb_gain(v), -h.vertex_weights[v]))
        frontier.discard(best_v)
        in0[best_v] = True
        parts[best_v] = 0
        acc += h.vertex_weights[best_v]
        for j in h.nets_of(best_v):
            pins_in0[j] += 1
            for u in h.pins(j):
                if not in0[u]:
                    frontier.add(u)
    return parts


def initial_bipartition(h, rng, target0_fraction=0.5, tries=4):
    target0 = h.total_vertex_weight * target0_fraction
    best = None
    best_cut = np.inf
    for t in range(max(1, tries)):
        maker = greedy_growing_bipartition if t % 2 == 0 else random_bipartition
        parts = maker(h, rng, target0)
        c = cut_weight(h, parts)
        if c < best_cut:
            best, best_cut = parts, c
    return best


# -- coarsening ------------------------------------------------------------------
def heavy_connectivity_matching(h, rng, max_cluster_weight=None):
    n = h.num_vertices
    cluster_of = np.full(n, -1, dtype=int)
    matched = np.zeros(n, dtype=bool)
    next_cluster = 0

    order = rng.permutation(n)
    scores = {}
    for v in order:
        if matched[v]:
            continue
        scores.clear()
        for j in h.nets_of(v):
            size = h.net_size(j)
            if size < 2 or size > _MATCHING_NET_SIZE_LIMIT:
                continue
            contrib = float(h.net_weights[j]) / (size - 1)
            for u in h.pins(j):
                if u != v and not matched[u]:
                    scores[u] = scores.get(u, 0.0) + contrib

        best_u = -1
        best_score = 0.0
        wv = h.vertex_weights[v]
        for u, s in scores.items():
            if max_cluster_weight is not None and wv + h.vertex_weights[u] > max_cluster_weight:
                continue
            if s > best_score or (s == best_score and best_u == -1):
                best_u, best_score = u, s

        matched[v] = True
        cluster_of[v] = next_cluster
        if best_u >= 0:
            matched[best_u] = True
            cluster_of[best_u] = next_cluster
        next_cluster += 1

    return cluster_of


def coarsen(h, rng, target_vertices=64, max_levels=30, shrink_threshold=0.95):
    levels = []
    current = h
    weight_cap = max(current.total_vertex_weight / 2.0, 1e-12)
    for _ in range(max_levels):
        if current.num_vertices <= target_vertices:
            break
        cluster_of = heavy_connectivity_matching(current, rng, weight_cap)
        nc = int(cluster_of.max()) + 1 if len(cluster_of) else 0
        if nc >= current.num_vertices * shrink_threshold:
            break
        coarse = current.contract(cluster_of)
        levels.append((current, cluster_of))
        current = coarse
    return current, levels


# -- multilevel bisection, K-way and BINW --------------------------------------------
def multilevel_bisect(h, rng, target0_fraction=0.5, epsilon=0.05, coarsen_to=64,
                      initial_tries=4):
    n = h.num_vertices
    if n == 0:
        return np.zeros(0, dtype=int)
    if n == 1:
        return np.zeros(1, dtype=int)
    total = h.total_vertex_weight
    heaviest = float(h.vertex_weights.max())
    max0 = max(total * target0_fraction * (1 + epsilon), heaviest)
    max1 = max(total * (1 - target0_fraction) * (1 + epsilon), heaviest)

    coarsest, levels = coarsen(h, rng, target_vertices=coarsen_to)
    parts = initial_bipartition(coarsest, rng, target0_fraction, tries=initial_tries)
    parts = fm_refine(coarsest, parts, (max0, max1), rng=rng)
    # Each level refines the projection of the coarsest refined partition,
    # not the previous level's result (``project_partition`` keeps its own
    # copy of the parts).
    projected = parts
    for fine, cluster_of in reversed(levels):
        projected = projected[cluster_of]
        parts = fm_refine(fine, projected, (max0, max1), rng=rng)
    return parts


def kway_partition(h, k, rng, epsilon=0.10, coarsen_to=64, initial_tries=4):
    if k < 1:
        raise ValueError("k must be >= 1")
    parts = np.zeros(h.num_vertices, dtype=int)
    if k == 1 or h.num_vertices == 0:
        return parts
    depth = int(np.ceil(np.log2(k)))
    eps_level = (1.0 + epsilon) ** (1.0 / depth) - 1.0

    def _recurse(sub, global_ids, k_sub, base):
        if k_sub == 1 or sub.num_vertices == 0:
            parts[global_ids] = base
            return
        k0 = (k_sub + 1) // 2
        bis = multilevel_bisect(
            sub, rng, target0_fraction=k0 / k_sub, epsilon=eps_level,
            coarsen_to=coarsen_to, initial_tries=initial_tries,
        )
        side0 = np.flatnonzero(bis == 0)
        side1 = np.flatnonzero(bis == 1)
        if len(side0) == 0 or len(side1) == 0:
            order = np.argsort(-sub.vertex_weights)
            half = max(1, len(order) * k0 // k_sub)
            side0, side1 = order[:half], order[half:]
        sub0, ids0 = sub.sub_hypergraph(side0)
        sub1, ids1 = sub.sub_hypergraph(side1)
        _recurse(sub0, global_ids[ids0], k0, base)
        _recurse(sub1, global_ids[ids1], k_sub - k0, base + k0)

    _recurse(h, np.arange(h.num_vertices), k, 0)
    return parts


def binw_partition(h, bound, rng, epsilon=0.20, coarsen_to=64, initial_tries=4):
    """Returns ``(parts, num_parts, oversized_parts)``."""
    if bound <= 0:
        raise ValueError("bound must be positive")
    n = h.num_vertices
    parts = np.full(n, -1, dtype=int)
    oversized = []
    next_part = 0
    stack = [(h, np.arange(n))]
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
        bis = multilevel_bisect(
            sub, rng, target0_fraction=0.5, epsilon=epsilon,
            coarsen_to=coarsen_to, initial_tries=initial_tries,
        )
        side0 = np.flatnonzero(bis == 0)
        side1 = np.flatnonzero(bis == 1)
        if len(side0) == 0 or len(side1) == 0:
            order = np.argsort(-sub.vertex_weights)
            half = max(1, sub.num_vertices // 2)
            side0, side1 = order[:half], order[half:]
        sub0, ids0 = sub.sub_hypergraph(side0)
        sub1, ids1 = sub.sub_hypergraph(side1)
        stack.append((sub0, ids[ids0]))
        stack.append((sub1, ids[ids1]))
    return parts, next_part, tuple(oversized)


# -- BiPartition's vertex weights (Eqs. 25/26) -------------------------------------
def estimated_exec_times(batch, tasks, platform):
    bw_s = platform.min_remote_bandwidth
    bw_c = platform.replication_bandwidth
    bw_mix = min(bw_s, bw_c)
    k = platform.num_compute
    t_count = max(1, len(tasks))
    sharers = reader_counts(tasks)
    mean_speed = float(np.mean([n.speed for n in platform.compute_nodes]))
    mean_local = float(np.mean([n.local_disk_bw for n in platform.compute_nodes]))
    out = np.zeros(len(tasks))
    for idx, t in enumerate(tasks):
        total = 0.0
        for f in t.files:
            size = batch.file_size(f)
            s_j = sharers[f]
            p_fne = 1.0 / s_j
            p_fe = (s_j / t_count) * (1.0 / k)
            tr = p_fne / bw_s + (1.0 - p_fne) * (1.0 - p_fe) / bw_mix
            local = 1.0 / mean_local
            comp = platform.compute_cost_per_mb / mean_speed
            total += size * (tr + local + comp)
        out[idx] = total
    return out
