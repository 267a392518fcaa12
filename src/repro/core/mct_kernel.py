"""The MCT-family mapping loop shared by MinMin, MaxMin and Sufferage.

The MinMin / MaxMin / Sufferage heuristics (Sections 3 and related work
[Casanova et al.]) all iterate the same inner loop: build the minimum-
completion-time matrix ``mct[t, i] = stage[t, i] + ready[i] + fixed[t, i]``
over the pending tasks and surviving nodes, commit one (task, node) pair
per round, apply implicit replication, and refresh the staging estimates of
tasks sharing files with the committed one. The paper's Fig. 6(b) charges
this loop as O(T² · C) scheduling overhead, and :func:`mct_map` is that
loop: it rebuilds the full matrix every round and hands it to the scheme's
``_pick`` rule. ``build_mct_setup`` precomputes its inputs;
:class:`KernelStats` counts its work.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from ..analysis.dims import Count, Seconds
from ..batch import Batch, Task
from ..cluster.platform import Platform
from ..cluster.state import ClusterState
from ..obs.core import telemetry

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.decisions import DecisionLog

__all__ = [
    "MCTSetup",
    "KernelStats",
    "build_mct_setup",
    "stage_row",
    "mct_map",
]

#: Candidates within this absolute MCT distance of the winner count as ties.
_TIE_TOL: Seconds = 1e-9


@dataclass
class MCTSetup:
    """Precomputed inputs of one MCT mapping call.

    All arrays follow the conventions of :mod:`repro.core.minmin`: sizes in
    MB, bandwidth-derived times in simulated seconds. ``on_node`` and
    ``any_copy`` are mutated by :func:`mct_map` as implicit replication
    proceeds; a setup therefore serves exactly one mapping call.
    """

    tasks: list[Task]
    nodes: list[int]
    n: int
    c: int
    task_files: list[np.ndarray]
    rep_t: np.ndarray
    remote_t: np.ndarray
    on_node: np.ndarray
    any_copy: np.ndarray
    fixed: np.ndarray
    #: file index -> task rows reading it.
    readers: list[list[int]]


@dataclass
class KernelStats:
    """Work performed by one :func:`mct_map` call.

    ``pair_evaluations`` counts the (task, node) values computed: the full
    ``n * c`` matrix every round, plus ``c`` per staging row computed.
    ``stage_rows_refreshed`` counts those staging rows: every task once up
    front, then each pending task sharing a file with a commit.
    """

    rounds: Count = 0
    stage_rows_refreshed: Count = 0
    pair_evaluations: Count = 0

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


def build_mct_setup(
    batch: Batch,
    pending: list[str],
    platform: Platform,
    state: ClusterState,
) -> MCTSetup:
    """Build the shared MCT inputs for one mapping call.

    ``remote_t`` is vectorised through a per-storage-node bandwidth array
    (one ``remote_bandwidth`` call per storage node instead of one per
    file); each element is the same two-float division the per-file loop
    performed, so the values are bit-identical.
    """
    tasks = [batch.task(t) for t in pending]
    # Matrix columns cover only surviving nodes (fault injection may have
    # crashed some); without faults this is every compute node and the
    # arithmetic below is unchanged.
    nodes = state.alive_nodes()
    if not nodes:
        raise RuntimeError("no surviving compute nodes to schedule on")
    n, c = len(tasks), len(nodes)
    # Tasks sharing a patient share the exact same file tuple (the common
    # case under overlap); walking distinct tuples once replaces most of
    # the per-task set/dict traffic.
    files_map = batch.files
    distinct_tuples = {t.files for t in tasks}
    fs_union: set[str] = set()
    for tup in distinct_tuples:
        fs_union.update(tup)
    file_ids = sorted(fs_union)
    fidx = {f: i for i, f in enumerate(file_ids)}
    finfo = [files_map[f] for f in file_ids]
    sizes = np.array([fi.size_mb for fi in finfo])
    storage_bw = np.array(
        [platform.remote_bandwidth(s) for s in range(platform.num_storage)]
    )
    storage_of = np.array([fi.storage_node for fi in finfo], dtype=np.intp)
    remote_t = (
        sizes / storage_bw[storage_of] if file_ids else np.zeros(0)
    )
    rep_t = sizes / platform.replication_bandwidth

    # on_node[f, i]: file (planned to be) on the i-th surviving node.
    on_node = np.zeros((len(file_ids), c), dtype=bool)
    for i, node in enumerate(nodes):
        for f in state.files_on(node):
            if f in fidx:
                on_node[fidx[f], i] = True
    any_copy = on_node.any(axis=1)

    # Per-tuple memoisation: tasks of one patient share a file tuple, so its
    # index array and input volume are computed once and reused (identical
    # array and Python float). The inverted readers index (file -> task
    # rows) rides along on the same pass.
    cache: dict[tuple[str, ...], tuple[np.ndarray, float]] = {}
    task_files: list[np.ndarray] = []
    total_mb_list: list[float] = []
    readers: list[list[int]] = [[] for _ in range(len(file_ids))]
    for k, t in enumerate(tasks):
        entry = cache.get(t.files)
        if entry is None:
            # Same left-to-right sum as ``Batch.task_input_mb``.
            entry = (
                np.array([fidx[f] for f in t.files], dtype=np.intp),
                sum(files_map[f].size_mb for f in t.files),
            )
            cache[t.files] = entry
        fs_arr, mb = entry
        task_files.append(fs_arr)
        total_mb_list.append(mb)
        for f in t.files:
            readers[fidx[f]].append(k)
    # Execution part per (task, node): local read at the node's disk
    # bandwidth plus CPU time at the node's speed.
    total_mb = np.array(total_mb_list)
    compute = np.array([t.compute_time for t in tasks])
    local_bw = np.array(
        [platform.compute_nodes[node].local_disk_bw for node in nodes]
    )
    speeds = np.array([platform.compute_nodes[node].speed for node in nodes])
    fixed = total_mb[:, None] / local_bw[None, :] + compute[:, None] / speeds[None, :]

    return MCTSetup(
        tasks=tasks,
        nodes=nodes,
        n=n,
        c=c,
        task_files=task_files,
        rep_t=rep_t,
        remote_t=remote_t,
        on_node=on_node,
        any_copy=any_copy,
        fixed=fixed,
        readers=readers,
    )


def stage_row(setup: MCTSetup, k: int) -> np.ndarray:
    """Estimated staging time of task ``k`` on every node."""
    fs = setup.task_files[k]
    # Per-file cost on node i: 0 if present; else replica time if any copy
    # exists; else remote time.
    best_absent = np.where(setup.any_copy[fs], setup.rep_t[fs], setup.remote_t[fs])
    per_file = np.where(setup.on_node[fs, :].T, 0.0, best_absent)  # (c, |fs|)
    return per_file.sum(axis=1)


def mct_map(
    setup: MCTSetup,
    pick: Callable[[np.ndarray], tuple[int, int]],
    pick_rule: str,
    log: DecisionLog | None,
) -> tuple[dict[str, int], KernelStats]:
    """Map every task of ``setup`` with the O(T²·C) full-rescan loop.

    Each round rebuilds the whole MCT matrix, masks committed rows to
    ``inf`` and lets ``pick`` choose one (task, node) pair. Committing it
    advances the node's ready time, places the task's files on the node
    (implicit replication) and recomputes the staging row of every pending
    task that reads one of those files.
    """
    n, c = setup.n, setup.c
    tasks, nodes = setup.tasks, setup.nodes
    task_files, readers = setup.task_files, setup.readers
    on_node, any_copy, fixed = setup.on_node, setup.any_copy, setup.fixed

    stage = (
        np.vstack([stage_row(setup, k) for k in range(n)])
        if n
        else np.zeros((0, c))
    )
    ready = np.zeros(c)
    unscheduled = np.ones(n, dtype=bool)
    mapping: dict[str, int] = {}
    rows_refreshed = n

    for _ in range(n):
        mct = stage + ready + fixed  # (n, c)
        mct[~unscheduled, :] = np.inf
        k, i = pick(mct)
        k, i = int(k), int(i)
        mapping[tasks[k].task_id] = nodes[i]
        if log is not None:
            finite = np.isfinite(mct)
            evaluated = int(finite.sum())
            ties = int((np.abs(mct[finite] - mct[k, i]) <= _TIE_TOL).sum()) - 1
            log.record(
                tasks[k].task_id,
                nodes[i],
                reason=pick_rule,
                estimated_completion=float(mct[k, i]),
                evaluated=evaluated,
                ties=max(ties, 0),
            )
            telemetry.count("scheduler/evaluations", evaluated)
            telemetry.count("scheduler/decisions")
        ready[i] = mct[k, i]
        unscheduled[k] = False

        # Implicit replication: task k's files are now (planned) on i.
        fs = task_files[k]
        on_node[fs, i] = True
        any_copy[fs] = True
        # Refresh the staging estimate of every pending task that shares
        # a file with the newly placed set.
        dirty: set[int] = set()
        for f in fs.tolist():
            dirty.update(readers[f])
        for t in dirty:
            if unscheduled[t]:
                stage[t] = stage_row(setup, t)
                rows_refreshed += 1
    return mapping, KernelStats(
        rounds=n,
        stage_rows_refreshed=rows_refreshed,
        pair_evaluations=n * n * c + rows_refreshed * c,
    )
