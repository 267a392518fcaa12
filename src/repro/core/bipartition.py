"""BiPartition: bi-level hypergraph partitioning scheduler (Section 5).

Tasks are vertices, files are nets (net weight = file size). Two levels:

1. **Sub-batch selection** — BINW partitioning with bound ``D`` = aggregate
   compute-cluster disk space: every resulting sub-batch's file footprint
   fits on the cluster, and minimising connectivity-1 minimises the volume
   of files re-staged because they are shared across sub-batches.
2. **Task mapping** — K-way partitioning of each sub-batch over the compute
   nodes, with vertex weights set to the probabilistic execution-time
   estimate of Eqs. 25/26 (transfer + local read + compute), minimising
   connectivity-1 (files needed on several nodes) under load balance.

A post-pass (Section 5.3) repairs per-node disk violations: files staged to
an over-full node are removed in increasing sharing order and the tasks that
needed them are deferred to later sub-batches.

Scheduling and replication are *decoupled*: the mapping is static, but every
staging decision (remote vs replica, and from which node) is made
dynamically by the Section 6 runtime.
"""

from __future__ import annotations

import math

import numpy as np

from ..batch import Batch, Task, reader_counts
from ..cluster.platform import Platform
from ..cluster.state import ClusterState
from ..hypergraph import Hypergraph, binw_partition, kway_partition
from .base import Scheduler, register_scheduler
from .plan import SubBatchPlan

__all__ = ["BiPartitionScheduler", "estimated_exec_times"]


def estimated_exec_times(
    batch: Batch, tasks: list[Task], platform: Platform
) -> np.ndarray:
    """Probabilistic task execution-time estimates (Eqs. 25 and 26).

    ``Tr_j`` blends the expected remote-transfer and replica-access cost of
    one byte of file ``f_j`` using two probabilities under a uniform model:
    ``Prob_FNE = 1/s_j`` that this task is the first in its group to need
    the file (and so pays the remote transfer), and ``Prob_FE = s_j/(T K)``
    that the file is already on the task's node (no cost at all).
    """
    bw_s = platform.min_remote_bandwidth
    bw_c = platform.replication_bandwidth
    bw_mix = min(bw_s, bw_c)
    k = platform.num_compute
    t_count = max(1, len(tasks))

    sharers = reader_counts(tasks)

    mean_speed = float(
        np.mean([n.speed for n in platform.compute_nodes])
    )
    mean_local = float(
        np.mean([n.local_disk_bw for n in platform.compute_nodes])
    )
    local = 1.0 / mean_local
    comp = platform.compute_cost_per_mb / mean_speed
    # A file's term depends on the file alone: work it out once per file.
    term: dict[str, float] = {}
    for f, s_j in sharers.items():
        p_fne = 1.0 / s_j
        p_fe = (s_j / t_count) * (1.0 / k)
        tr = p_fne / bw_s + (1.0 - p_fne) * (1.0 - p_fe) / bw_mix
        term[f] = batch.file_size(f) * (tr + local + comp)
    out: list[float] = []
    for t in tasks:
        total = 0.0
        for f in t.files:
            total += term[f]
        out.append(total)
    return np.array(out, dtype=float)


@register_scheduler("bipartition")
class BiPartitionScheduler(Scheduler):
    """Bi-level hypergraph partitioning scheduler.

    The K-way mapping balances loads within ``kway_partition``'s 10% and
    BINW selection bisects within ``binw_partition``'s 20%. Sub-batches run
    in chain order (:meth:`_chain_order`): the paper does not specify one.

    Parameters
    ----------
    vertex_weight_mode:
        ``"estimated"`` uses the probabilistic Eq. 25/26 execution-time
        estimates as vertex weights (the paper's method); ``"compute"``
        uses the pure CPU time only (ablation of the I/O-aware weighting).
    """

    def __init__(
        self,
        seed: int = 0,
        vertex_weight_mode: str = "estimated",
    ) -> None:
        super().__init__(seed)
        if vertex_weight_mode not in ("estimated", "compute"):
            raise ValueError(
                "vertex_weight_mode must be 'estimated' or 'compute'"
            )
        self.vertex_weight_mode = vertex_weight_mode
        self._queue: list[list[str]] | None = None
        self._queue_dead = 0

    def reset(self) -> None:
        super().reset()
        self._queue = None
        self._queue_dead = 0

    # -- level one: BINW sub-batch selection ---------------------------------------
    def _build_hypergraph(
        self, batch: Batch, tasks: list[Task], platform: Platform
    ) -> Hypergraph:
        fidx: dict[str, int] = {}
        nets: list[list[int]] = []
        weights: list[float] = []
        for v, t in enumerate(tasks):
            for f in t.files:
                j = fidx.get(f)
                if j is None:
                    j = fidx[f] = len(nets)
                    nets.append([])
                    weights.append(batch.file_size(f))
                nets[j].append(v)
        if self.vertex_weight_mode == "estimated":
            vweights = estimated_exec_times(batch, tasks, platform)
        else:
            vweights = np.array([max(t.compute_time, 1e-9) for t in tasks])
        return Hypergraph(
            len(tasks), nets, vertex_weights=vweights, net_weights=weights
        )

    def _select_subbatches(
        self,
        batch: Batch,
        pending: list[str],
        platform: Platform,
        state: ClusterState,
    ) -> list[list[str]]:
        tasks = [batch.task(t) for t in pending]
        # The BINW bound is the surviving disks' current capacity: crashed
        # disks are gone and disk losses shrink the rest (fault injection).
        bound = float(sum(state.caches[n].capacity_mb for n in state.alive_nodes()))
        if math.isinf(bound):
            return [list(pending)]
        # The pending tasks' distinct files, summed in the order
        # ``Batch.distinct_file_mb`` sums them, so the float is the same.
        distinct_mb = sum(
            batch.file_size(f) for f in {f for t in tasks for f in t.files}
        )
        if distinct_mb <= bound:
            return [list(pending)]
        h = self._build_hypergraph(batch, tasks, platform)
        res = binw_partition(h, bound, self.rng)
        parts: dict[int, list[str]] = {}
        for v, p in enumerate(res.parts):
            parts.setdefault(int(p), []).append(tasks[v].task_id)
        return self._chain_order(batch, [parts[p] for p in sorted(parts)])

    @staticmethod
    def _chain_order(batch: Batch, subbatches: list[list[str]]) -> list[list[str]]:
        """Greedy chain: each next sub-batch shares the most file volume
        with the previous one, so files cached by one sub-batch are most
        likely still cached (not yet evicted) when the next one needs them."""
        if len(subbatches) <= 2:
            return subbatches
        file_sets = [
            {f for t in sb for f in batch.task(t).files} for sb in subbatches
        ]

        def shared_mb(a: set[str], b: set[str]) -> float:
            return sum(batch.file_size(f) for f in a & b)

        remaining = list(range(len(subbatches)))
        # Start from the largest-footprint sub-batch.
        current = max(
            remaining,
            key=lambda i: sum(batch.file_size(f) for f in file_sets[i]),
        )
        order = [current]
        remaining.remove(current)
        while remaining:
            nxt = max(
                remaining, key=lambda i: shared_mb(file_sets[current], file_sets[i])
            )
            order.append(nxt)
            remaining.remove(nxt)
            current = nxt
        return [subbatches[i] for i in order]

    # -- level two: K-way task mapping ------------------------------------------------
    def _map_subbatch(
        self,
        batch: Batch,
        task_ids: list[str],
        platform: Platform,
        state: ClusterState,
    ) -> tuple[dict[str, int], list[str]]:
        """Map a sub-batch onto the nodes; returns (mapping, deferred tasks)."""
        tasks = [batch.task(t) for t in task_ids]
        # K-way over surviving nodes only; identical to num_compute parts
        # when no node has crashed.
        nodes = state.alive_nodes()
        if not nodes:
            raise RuntimeError("no surviving compute nodes to schedule on")
        if len(tasks) <= 1 or len(nodes) == 1:
            # The partition has one answer, part 0: kway_partition returns
            # zeros for k == 1, and a one-vertex bisection keeps its vertex
            # on side 0 before drawing from the RNG. So skip the hypergraph;
            # the mapping and the RNG stream are what the partitioner gives.
            mapping = {t.task_id: nodes[0] for t in tasks}
        else:
            h = self._build_hypergraph(batch, tasks, platform)
            parts = kway_partition(h, len(nodes), self.rng)
            mapping = {t.task_id: nodes[int(parts[v])] for v, t in enumerate(tasks)}
        deferred = self._repair_disk(batch, tasks, mapping, state)
        for t in deferred:
            del mapping[t]
        return mapping, deferred

    def _repair_disk(
        self,
        batch: Batch,
        tasks: list[Task],
        mapping: dict[str, int],
        state: ClusterState,
    ) -> list[str]:
        """Section 5.3 heuristic: fix per-node disk-space violations.

        For an over-full node, files are removed from its staging list in
        increasing order of the number of sub-batch tasks sharing them
        (``s_j``), until the remaining files fit the node's current disk;
        tasks that lose a file are deferred to a later sub-batch.
        """
        sharers = reader_counts(tasks)

        deferred: list[str] = []
        by_node: dict[int, list[Task]] = {}
        for t in tasks:
            by_node.setdefault(mapping[t.task_id], []).append(t)
        for node, node_tasks in by_node.items():
            cap = state.caches[node].capacity_mb
            if math.isinf(cap):
                continue
            needed = {f for t in node_tasks for f in t.files}
            total = sum(batch.file_size(f) for f in needed)
            if total <= cap:
                continue
            removed: set[str] = set()
            for f in sorted(needed, key=lambda f: (sharers[f], -batch.file_size(f))):
                if total <= cap:
                    break
                removed.add(f)
                total -= batch.file_size(f)
            for t in node_tasks:
                if any(f in removed for f in t.files):
                    deferred.append(t.task_id)
        return deferred

    # -- scheduler interface ------------------------------------------------------------
    def next_subbatch(
        self,
        batch: Batch,
        pending: list[str],
        platform: Platform,
        state: ClusterState,
    ) -> SubBatchPlan:
        pending_set = set(pending)
        if self._queue and len(state.dead_nodes) != self._queue_dead:
            # A node crashed since the queue was planned: the BINW bound it
            # was partitioned against no longer holds — re-partition.
            self._queue = None
        self._queue_dead = len(state.dead_nodes)
        if not self._queue:
            # First call, or the planned queue drained (tasks deferred by
            # disk repair remain pending): (re-)partition what is pending.
            self._queue = self._select_subbatches(batch, pending, platform, state)
        ids: list[str] = []
        while self._queue and not ids:
            ids = [t for t in self._queue.pop(0) if t in pending_set]
        if not ids:
            self._queue = self._select_subbatches(batch, pending, platform, state)
            ids = self._queue.pop(0)
        mapping, deferred = self._map_subbatch(batch, ids, platform, state)
        deferred_ids = set(deferred)
        kept = [t for t in ids if t not in deferred_ids]
        if not kept:
            # Repair deferred every task (pathological): force one through —
            # the paper assumes any single task's files fit on a node.
            forced = ids[0]
            target = max(
                state.alive_nodes(), key=lambda i: state.caches[i].capacity_mb
            )
            kept = [forced]
            mapping = {forced: target}
        return SubBatchPlan(task_ids=kept, mapping=mapping, staging=None)
