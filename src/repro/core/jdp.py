"""Job Data Present + Data Least Loaded baseline (Ranganathan & Foster).

The decoupled computation/data scheduling approach of [13], adapted to the
batch setting as described in Section 3 of the paper:

* **Job Data Present** (task placement): a task goes to the node where its
  expected data transfer time is smallest — i.e. the node already holding
  the largest (volume-weighted) share of its inputs; ties go to the least
  loaded node. Because all tasks arrive at once, a FIFO queue is
  meaningless; tasks are ordered by their *least expected completion time*
  over all nodes, as the paper's batch-mode variant prescribes.
* **Data Least Loaded** (decoupled replication): file popularity is tracked
  independently of placement; any file whose pending access count reaches a
  threshold is proactively replicated onto the least loaded node. These
  pushes are emitted in the staging plan and realised by the runtime before
  the tasks run.
* Eviction is LRU, as in the original work.
"""

from __future__ import annotations

import numpy as np

from ..batch import Batch, Task, reader_counts
from ..cluster.platform import Platform
from ..cluster.runtime import StagingPlan
from ..cluster.state import ClusterState
from .base import Scheduler, register_scheduler
from .eviction import EvictionPolicy, LRUPolicy
from .plan import SubBatchPlan

__all__ = ["JobDataPresentScheduler"]


@register_scheduler("jdp")
class JobDataPresentScheduler(Scheduler):
    """Batch-mode Job Data Present with Data Least Loaded replication.

    Parameters
    ----------
    popularity_threshold:
        Minimum number of pending accesses for a file to be replicated by
        Data Least Loaded. ``None`` derives ``max(2, T / (4 C))`` from the
        batch, which replicates only genuinely hot files.
    """

    uses_subbatches = False

    def __init__(self, seed: int = 0, popularity_threshold: int | None = None) -> None:
        super().__init__(seed)
        self.popularity_threshold = popularity_threshold

    def eviction_policy(self, batch: Batch) -> EvictionPolicy:
        return LRUPolicy()

    def next_subbatch(
        self,
        batch: Batch,
        pending: list[str],
        platform: Platform,
        state: ClusterState,
    ) -> SubBatchPlan:
        tasks = [batch.task(t) for t in pending]
        # Only surviving nodes are placement targets (fault injection);
        # without faults this is every compute node, unchanged.
        nodes = state.alive_nodes()
        if not nodes:
            raise RuntimeError("no surviving compute nodes to schedule on")
        c = len(nodes)

        # --- Data Least Loaded: pick replication pushes up front -------------
        counts = reader_counts(tasks)
        threshold = self.popularity_threshold
        if threshold is None:
            threshold = max(2, round(len(tasks) / (4 * c)))
        load = np.zeros(c)  # projected seconds of work per node
        plan = StagingPlan()
        hot = sorted(
            (f for f, n in counts.items() if n >= threshold),
            key=lambda f: -counts[f],
        )
        for f in hot:
            holders = state.holders(f)
            pos = int(np.argmin(load))
            target = nodes[pos]
            if target in holders:
                continue
            plan.pushes.append((f, target))
            load[pos] += batch.file_size(f) / platform.min_remote_bandwidth

        # Projected placement including the pushes.
        placed: dict[str, set[int]] = {f: set(state.holders(f)) for f in counts}
        for f, node in plan.pushes:
            placed[f].add(node)

        # --- Job Data Present: assign tasks in least-ECT order ----------------
        def transfer_estimate(task: Task, node: int) -> float:
            est = 0.0
            for f in task.files:
                if node in placed[f]:
                    continue
                size = batch.file_size(f)
                if placed[f]:
                    est += size / platform.replication_bandwidth
                else:
                    est += size / platform.remote_bandwidth(
                        batch.file(f).storage_node
                    )
            return est

        def exec_estimate(task: Task, node: int) -> float:
            read = sum(
                platform.local_read_time(node, batch.file_size(f))
                for f in task.files
            )
            return (
                transfer_estimate(task, node)
                + read
                + platform.task_compute_time(node, task.compute_time)
            )

        # Order tasks by their best-case completion time across nodes.
        order = sorted(
            tasks,
            key=lambda t: min(exec_estimate(t, i) for i in nodes),
        )
        mapping: dict[str, int] = {}
        for t in order:
            # Eligible = nodes minimising expected data transfer time; pick
            # the least loaded among them.
            costs = [transfer_estimate(t, i) for i in nodes]
            best = min(costs)
            eligible = [p for p in range(c) if costs[p] <= best + 1e-9]
            pos = min(eligible, key=lambda p: load[p])
            node = nodes[pos]
            mapping[t.task_id] = node
            load[pos] += exec_estimate(t, node)
            for f in t.files:
                placed[f].add(node)

        return SubBatchPlan(task_ids=list(pending), mapping=mapping, staging=plan)
