"""Shared MCT-family scheduling kernel and its reference oracle.

The MinMin / MaxMin / Sufferage heuristics (Sections 3 and related work
[Casanova et al.]) all iterate the same inner loop: build the minimum-
completion-time matrix ``mct[t, i] = stage[t, i] + ready[i] + fixed[t, i]``
over the pending tasks and surviving nodes, commit one (task, node) pair
per round, apply implicit replication, and refresh the staging estimates of
tasks sharing files with the committed one. The paper's Fig. 6(b) charges
this loop as O(T² · C) scheduling overhead.

This module holds two decision-identical implementations of that loop:

``reference_mct_map``
    The original per-round full-matrix scan, kept verbatim as the ground
    truth. Schedulers never run it; the differential tests
    (``tests/core/test_differential_kernels.py``) and the benchmark
    baseline (``repro bench``) call it directly on a fresh setup:
    ``reference_mct_map(build_mct_setup(...), sched._pick,
    sched.pick_rule, log)``.

``incremental_mct_map``
    The kernel every MCT-family scheduler runs. It never rebuilds the
    matrix after round one: a persistent value buffer ``vals`` is kept
    equal — element for element — to what the reference would have built
    this round, by rewriting only the entries a commit
    can change: the committed node's column (its ``ready`` term moved),
    the rows sharing a file with the committed task (their ``stage`` row
    moved; refreshed in one batched NumPy operation), and the committed
    row itself (masked to ``inf``). Selection then applies the scheme's
    own vectorised ``_pick`` to the buffer, so MinMin, MaxMin and
    Sufferage flow through one kernel unchanged.

    Why value maintenance instead of a lazy per-row best heap: on the
    paper's homogeneous platforms huge groups of rows tie on the same
    best column (identical node speeds and disk bandwidths), so the
    committed column invalidates O(T) cached row-minima *every round* and
    per-row laziness degenerates to the full rescan plus heap overhead —
    measured 10x slower than the reference. Rewriting one column is O(T),
    allocation-free, and exact.

Bit-identity is engineered, not hoped for: every buffer write uses the
reference's exact expression shape ``(stage + ready) + fixed`` so IEEE-754
rounding matches; the dirty-row ``stage`` refresh is batched as one
reduction per distinct per-task file count so NumPy's pairwise-summation
tree matches the reference's per-row ``sum(axis=1)``; and selection runs
the same ``_pick`` on an identical matrix. Mappings, DecisionLogs
(including ``evaluated`` and ``ties`` counts) and therefore downstream
makespans are identical on both — see ``docs/performance.md`` for
the argument and the differential tests for the proof-by-execution.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass
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
    "refresh_stage_rows",
    "reference_mct_map",
    "incremental_mct_map",
]

#: Candidates within this absolute MCT distance of the winner count as ties.
_TIE_TOL: Seconds = 1e-9

#: Dirty-row sets at or below this size are refreshed row by row with the
#: reference's own single-row expressions; larger sets go through the
#: batched per-file-count group refresh. Both produce bit-identical floats
#: (identical length-L summation lanes) — the threshold is purely a
#: constant-factor trade. A sweep on the Fig. 6b headline cell (n=1000,
#: c=32) measured 1 fastest (26.6 ms vs 29.2 ms at 8): the group path's
#: sorting/bucketing setup only amortises once at least two rows share it,
#: so batch everything beyond the singleton case.
_ROWWISE_MAX = 1

#: Shared empty dirty-row set (read-only; only ever measured/iterated).
_NO_ROWS = np.zeros(0, dtype=np.intp)


@dataclass
class MCTSetup:
    """Precomputed inputs of one MCT mapping call (both kernels share it).

    All arrays follow the conventions of :mod:`repro.core.minmin`: sizes in
    MB, bandwidth-derived times in simulated seconds. ``on_node`` and
    ``any_copy`` are mutated by the kernels as implicit replication
    proceeds; a setup therefore serves exactly one mapping call.
    """

    tasks: list[Task]
    nodes: list[int]
    n: int
    c: int
    task_files: list[np.ndarray]
    #: Same content as ``task_files`` but as plain Python int lists
    #: (shared per distinct tuple) — cheaper for the kernel's per-round
    #: set membership tests than ndarray round-trips.
    task_file_lists: list[list[int]]
    rep_t: np.ndarray
    remote_t: np.ndarray
    on_node: np.ndarray
    any_copy: np.ndarray
    fixed: np.ndarray
    #: file index -> task rows reading it.
    readers: list[list[int]]
    #: Per-task file count, and rows pre-grouped by it so the batched
    #: staging refresh gathers a rectangular (m, L) file-index block
    #: without Python list building.
    file_count: np.ndarray
    pos_in_len: np.ndarray
    files_by_len: dict[int, np.ndarray]
    #: Per-task index of its distinct file tuple (tasks of one patient
    #: share a tuple), and the number of distinct tuples — lets the
    #: incremental kernel memoise per-tuple state by integer index
    #: instead of hashing the tuple every round.
    tuple_id: list[int]
    n_tuples: int


@dataclass
class KernelStats:
    """Real work performed by one incremental mapping call.

    ``logical_evaluations`` is what the reference full-rescan loop charges
    (the ``scheduler/evaluations`` telemetry counter and the Decision
    ``evaluated`` field keep reporting this logical count on both paths so
    DecisionLogs and the golden run manifest stay byte-identical);
    ``pair_evaluations`` is the number of (task, node) values the
    incremental kernel actually computed. The gap is the saved work,
    surfaced per cell by ``repro bench``.
    """

    tasks: Count = 0
    nodes: Count = 0
    rounds: Count = 0
    stage_rows_refreshed: Count = 0
    value_rows_refreshed: Count = 0
    col_refreshes: Count = 0
    pair_evaluations: Count = 0
    logical_evaluations: Count = 0
    # Co-reader rows touched but *not* fully rewritten (column-only
    # updates): the row-skip half of the incremental win.
    value_rows_skipped: Count = 0
    # Live-row compactions of the value/staging buffers (the
    # remaining*2 <= cap shrink).
    compactions: Count = 0
    # Commits whose tuple-flip scan was skipped because the tuple's first
    # commit had already placed every one of its files.
    flip_shortcut_hits: Count = 0

    @property
    def evaluations_saved(self) -> Count:
        return max(self.logical_evaluations - self.pair_evaluations, 0)

    def to_dict(self) -> dict[str, Any]:
        return {
            "tasks": self.tasks,
            "nodes": self.nodes,
            "rounds": self.rounds,
            "stage_rows_refreshed": self.stage_rows_refreshed,
            "value_rows_refreshed": self.value_rows_refreshed,
            "col_refreshes": self.col_refreshes,
            "pair_evaluations": self.pair_evaluations,
            "logical_evaluations": self.logical_evaluations,
            "evaluations_saved": self.evaluations_saved,
            "value_rows_skipped": self.value_rows_skipped,
            "compactions": self.compactions,
            "flip_shortcut_hits": self.flip_shortcut_hits,
        }


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

    # Per-tuple memoisation: index array, index list and input volume are
    # computed once per distinct tuple; cache hits reuse the identical
    # Python float / index array, so values are unchanged.  The inverted
    # readers index (file -> task rows) rides along on the same pass.
    cache: dict[tuple[str, ...], tuple[np.ndarray, list[int], float, int]] = {}
    task_files: list[np.ndarray] = []
    task_file_lists: list[list[int]] = []
    total_mb_list: list[float] = []
    tuple_id: list[int] = []
    readers: list[list[int]] = [[] for _ in range(len(file_ids))]
    for k, t in enumerate(tasks):
        entry = cache.get(t.files)
        if entry is None:
            fs_list = [fidx[f] for f in t.files]
            # Same left-to-right sum as ``Batch.task_input_mb``.
            entry = (
                np.array(fs_list, dtype=np.intp),
                fs_list,
                sum(files_map[f].size_mb for f in t.files),
                len(cache),
            )
            cache[t.files] = entry
        fs_arr, fs_list, mb, tid = entry
        task_files.append(fs_arr)
        task_file_lists.append(fs_list)
        total_mb_list.append(mb)
        tuple_id.append(tid)
        for f in fs_list:
            readers[f].append(k)
    # Execution part per (task, node): local read at the node's disk
    # bandwidth plus CPU time at the node's speed.
    total_mb = np.array(total_mb_list)
    compute = np.array([t.compute_time for t in tasks])
    local_bw = np.array(
        [platform.compute_nodes[node].local_disk_bw for node in nodes]
    )
    speeds = np.array([platform.compute_nodes[node].speed for node in nodes])
    fixed = total_mb[:, None] / local_bw[None, :] + compute[:, None] / speeds[None, :]

    # Group task rows by file count for the rectangular batched refresh.
    # Blocks are stacked once per *distinct* tuple and expanded to rows by
    # a C-level gather instead of stacking one small array per task.
    tid_np = np.array(tuple_id, dtype=np.intp)
    tuple_arrs: list[np.ndarray] = [np.zeros(0, dtype=np.intp)] * len(cache)
    tuple_len = np.zeros(len(cache), dtype=np.intp)
    for fs_arr_u, _fl, _mb, tid_u in cache.values():
        tuple_arrs[tid_u] = fs_arr_u
        tuple_len[tid_u] = len(fs_arr_u)
    file_count = tuple_len[tid_np]
    pos_in_len = np.zeros(n, dtype=np.intp)
    tpos = np.zeros(len(cache), dtype=np.intp)
    files_by_len: dict[int, np.ndarray] = {}
    for length in np.unique(file_count).tolist():
        tids_l = np.flatnonzero(tuple_len == length)
        tpos[tids_l] = np.arange(len(tids_l))
        block = np.array([tuple_arrs[t] for t in tids_l.tolist()], dtype=np.intp)
        rows_l = np.flatnonzero(file_count == length)
        pos_in_len[rows_l] = np.arange(len(rows_l))
        files_by_len[length] = block[tpos[tid_np[rows_l]]]

    return MCTSetup(
        tasks=tasks,
        nodes=nodes,
        n=n,
        c=c,
        task_files=task_files,
        task_file_lists=task_file_lists,
        rep_t=rep_t,
        remote_t=remote_t,
        on_node=on_node,
        any_copy=any_copy,
        fixed=fixed,
        readers=readers,
        file_count=file_count,
        pos_in_len=pos_in_len,
        files_by_len=files_by_len,
        tuple_id=tuple_id,
        n_tuples=len(cache),
    )


def stage_row(setup: MCTSetup, k: int) -> np.ndarray:
    """Estimated staging time of task ``k`` on every node (reference form)."""
    fs = setup.task_files[k]
    # Per-file cost on node i: 0 if present; else replica time if any copy
    # exists; else remote time.
    best_absent = np.where(setup.any_copy[fs], setup.rep_t[fs], setup.remote_t[fs])
    per_file = np.where(setup.on_node[fs, :].T, 0.0, best_absent)  # (c, |fs|)
    return per_file.sum(axis=1)


def refresh_stage_rows(
    stage: np.ndarray, setup: MCTSetup, rows: Iterable[int] | np.ndarray
) -> None:
    """Recompute ``stage[r]`` for every row in ``rows``, batched.

    Rows are grouped by per-task file count (via the precomputed
    ``files_by_len`` blocks) so each group reduces an ``(m, c, L)`` block
    over its last axis — the same contiguous length-L lanes NumPy's
    pairwise summation reduces in the per-row reference
    (``per_file.sum(axis=1)`` on a ``(c, L)`` block), keeping every
    resulting float bit-identical to :func:`stage_row`.
    """
    rows_arr = np.asarray(
        rows if isinstance(rows, np.ndarray) else list(rows), dtype=np.intp
    )
    lens = setup.file_count[rows_arr]
    for length in np.unique(lens).tolist():
        rs = rows_arr[lens == length]
        fs = setup.files_by_len[length][setup.pos_in_len[rs]]  # (m, L)
        best_absent = np.where(
            setup.any_copy[fs], setup.rep_t[fs], setup.remote_t[fs]
        )  # (m, L)
        present = setup.on_node[fs].transpose(0, 2, 1)  # (m, c, L)
        per_file = np.where(present, 0.0, best_absent[:, None, :])
        stage[rs] = per_file.sum(axis=2)


def reference_mct_map(
    setup: MCTSetup,
    pick: Callable[[np.ndarray], tuple[int, int]],
    pick_rule: str,
    log: DecisionLog | None,
) -> dict[str, int]:
    """The original O(T²·C) full-rescan loop (ground truth, unchanged)."""
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
    return mapping


def incremental_mct_map(
    setup: MCTSetup,
    pick: Callable[[np.ndarray], tuple[int, int]],
    pick_rule: str,
    log: DecisionLog | None,
) -> tuple[dict[str, int], KernelStats]:
    """Incrementally-maintained MCT loop: rewrite only what a commit moved.

    ``vals`` is kept equal, element for element, to the matrix the
    reference loop would rebuild this round. A commit of task ``k`` to
    node ``i`` can change exactly three things:

    * column ``i`` — its ``ready`` term moved; rewritten with the
      reference's expression shape ``(stage[:, i] + ready[i]) + fixed[:, i]``
      in place (two allocation-free column ops);
    * rows sharing a file with ``k`` — their ``stage`` row moved under
      implicit replication; staging is refreshed batched
      (:func:`refresh_stage_rows`) and those value rows rewritten as
      ``(stage[rows] + ready) + fixed[rows]``;
    * row ``k`` itself — poisoned: both its value row and its transposed
      staging column are set to ``inf``, so every later column rewrite
      reproduces the mask for free (``(inf + ready) + fixed == inf``
      exactly under IEEE-754) with no separate re-masking pass.

    Every other entry is untouched: its last write used the same formula
    on inputs that have not changed since, so the buffer is bit-identical
    to a fresh rebuild by induction. Selection simply applies the scheme's
    own ``_pick`` to the buffer — MinMin's flat ``argmin``, MaxMin's
    max-of-row-mins, Sufferage's partition — so all three schemes flow
    through this kernel unchanged and tie-breaking is literally the
    reference's.

    Two further constant-factor devices, both decision-neutral:

    * *live-row compaction* — once committed (``inf``) rows outnumber live
      ones the matrices are compacted to the live rows, preserving their
      relative order. All three ``_pick`` rules are order-preserving
      filters over finite rows, so first-occurrence tie-breaking — and the
      DecisionLog's ``evaluated``/``ties`` counts, which never included
      committed rows — are unchanged; selection scans then shrink with the
      frontier instead of staying O(T).
    * *flip-path shortcuts* — a tuple's first commit places every one of
      its files, so later commits of the same tuple can never flip a file
      to replica-copy mode; a per-tuple flag skips the scan. When a commit
      flips *all* of its files, the flip-reader set is exactly the
      co-reader set and the partition is skipped.

    Per round this costs O(T + D·C) maintenance plus the scheme's O(T·C)
    selection scan, versus the reference's full O(T·C) matrix rebuild
    (three temporaries) plus masking plus the same selection — the rebuild
    constant dominates in practice. A lazy per-row best heap was tried
    first and rejected: on the paper's homogeneous platforms O(T) rows tie
    on the committed column every round, so per-row invalidation
    degenerates to a full rescan with heap overhead on top (measured 10x
    slower than the reference).
    """
    n, c = setup.n, setup.c
    tasks, nodes = setup.tasks, setup.nodes
    task_files, readers = setup.task_files, setup.readers
    on_node, any_copy, fixed = setup.on_node, setup.any_copy, setup.fixed

    stats = KernelStats(tasks=n, nodes=c)
    stats.logical_evaluations = c * n * (n + 1) // 2
    mapping: dict[str, int] = {}
    if n == 0:
        return mapping, stats

    stage = np.empty((n, c))
    refresh_stage_rows(stage, setup, np.arange(n))
    stats.stage_rows_refreshed += n

    ready = np.zeros(c)
    # (stage + ready) + fixed in place: matches the reference's round-1
    # matrix (same rounding order) without the two throwaway temporaries.
    vals = np.empty((n, c))
    np.add(stage, ready, out=vals)
    np.add(vals, fixed, out=vals)
    unscheduled = np.ones(n, dtype=bool)
    # The loop reads staging by *column* (the committed node's) and the
    # ``fixed`` term likewise, so both live transposed and C-contiguous;
    # the per-round column rewrite then runs on contiguous memory into a
    # reused buffer instead of strided views.
    stage_t = np.ascontiguousarray(stage.T)  # (c, n)
    fixed_t = np.ascontiguousarray(fixed.T)  # (c, n)
    colbuf = np.empty(n)
    # Committed rows stay in the matrix as inf until the live count drops
    # to half the matrix height, then the live rows are compacted — a
    # *relative-order-preserving* gather, so every scheme's first-
    # occurrence tie-breaking over the finite rows is untouched (the
    # reference's committed rows are inf / filtered out and can never
    # win). ``orig_of`` maps matrix rows back to batch rows; ``newpos``
    # maps batch rows of still-live tasks into the matrix. The n-scaled
    # per-round costs (selection scan, column rewrite) then track the live
    # count geometrically instead of paying full height every round.
    cap = n
    orig_of = np.arange(n, dtype=np.intp)
    newpos = np.arange(n, dtype=np.intp)

    # Hot-loop working state. ``ba_cur[f]`` is the staging cost of file f
    # on a node that lacks it (replica time once any copy exists, remote
    # time before) — the same value ``stage_row`` selects per file, kept
    # current so the dirty-row refresh is a single gather. ``co_cache``
    # memoises the union of reader rows per file *tuple* (tasks of one
    # patient share the tuple, so the union is computed once per patient).
    ba_cur = np.where(any_copy, setup.rep_t, setup.remote_t)
    # Files still lacking any copy, as a Python set: first-copy detection
    # is then pure small-list membership instead of ndarray round-trips.
    nocopy: set[int] = set(np.flatnonzero(~any_copy).tolist())
    rep_t = setup.rep_t
    task_file_lists = setup.task_file_lists
    lens_keys = sorted(setup.files_by_len)
    single_len = len(lens_keys) == 1
    files_by_len = setup.files_by_len
    pos_in_len = setup.pos_in_len
    file_count = setup.file_count
    tuple_id = setup.tuple_id
    co_arrs: list[np.ndarray | None] = [None] * setup.n_tuples
    # Tuples whose first commit already happened (no further flips).
    tuple_flipped = bytearray(setup.n_tuples)
    rows_refreshed = 0
    value_rows = 0
    rows_skipped = 0
    compactions = 0
    flip_hits = 0
    pair_evals = n * c
    inf = np.inf
    np_add, np_where = np.add, np.where

    remaining = n
    for _ in range(n):
        kc, i = pick(vals)
        kc, i = int(kc), int(i)
        k = int(orig_of[kc])
        won = vals[kc, i]
        t_k = tasks[k]
        mapping[t_k.task_id] = nodes[i]
        if log is not None:
            finite = np.isfinite(vals)
            evaluated = int(finite.sum())
            ties = int((np.abs(vals[finite] - won) <= _TIE_TOL).sum()) - 1
            log.record(
                t_k.task_id,
                nodes[i],
                reason=pick_rule,
                estimated_completion=float(won),
                evaluated=evaluated,
                ties=max(ties, 0),
            )
            telemetry.count("scheduler/evaluations", evaluated)
            telemetry.count("scheduler/decisions")
        ready[i] = won
        unscheduled[k] = False
        vals[kc] = inf
        # Poison the committed row's staging so the end-of-round column
        # rewrite yields inf for it with no separate masking pass:
        # (inf + ready) + fixed == inf exactly. Refresh paths only ever
        # write live rows, so the poison sticks.
        stage_t[:, kc] = inf
        remaining -= 1
        if remaining == 0:
            break
        if remaining * 2 <= cap and cap >= 64:
            compactions += 1
            # Compact to the live rows, preserving their relative order.
            live_rows = np.flatnonzero(unscheduled[orig_of])
            orig_of = orig_of[live_rows]
            newpos[orig_of] = np.arange(remaining, dtype=np.intp)
            vals = vals[live_rows]
            stage_t = np.ascontiguousarray(stage_t[:, live_rows])
            fixed_t = np.ascontiguousarray(fixed_t[:, live_rows])
            colbuf = np.empty(remaining)
            cap = remaining

        # Implicit replication: task k's files are now (planned) on i.
        fs = task_files[k]
        tid = tuple_id[k]
        did_flip = False
        all_flipped = False
        # A tuple's first commit places every one of its files, so later
        # commits of the same tuple can never flip — skip the scan.
        if nocopy and tuple_flipped[tid]:
            flip_hits += 1
        elif nocopy:
            tuple_flipped[tid] = 1
            fl_k = task_file_lists[k]
            flip = [f for f in fl_k if f in nocopy]
            if flip:
                # A first copy moves the absent-file cost of every reader
                # on every node, not just column i.
                any_copy[flip] = True
                ba_cur[flip] = rep_t[flip]
                nocopy.difference_update(flip)
                did_flip = True
                all_flipped = len(flip) == len(fl_k)
        on_node[fs, i] = True
        # Rows sharing a file with the commit, batched per file-count
        # group with the reference's length-L summation lanes. On rounds
        # with a first-copy flip their whole stage row moved; otherwise
        # only ``on_node[:, i]`` flipped, so only ``stage[rs, i]`` needs
        # recomputing and the end-of-round column rewrite propagates it
        # into ``vals``.
        arr = co_arrs[tid]
        if arr is None:
            merged: set[int] = set()
            for f in task_file_lists[k]:
                merged.update(readers[f])
            arr = np.fromiter(merged, np.intp, len(merged))
        live = arr[unscheduled[arr]]
        # Scheduled rows never come back, so keep the shrunken array:
        # later commits of the same file tuple gather ever-smaller sets.
        co_arrs[tid] = live
        m = len(live)
        if m:
            if did_flip:
                # Only readers of the files that just gained their first
                # copy saw ``ba_cur`` move — their whole stage row is
                # recomputed.  Every other co-reader only saw
                # ``on_node[:, i]`` flip and needs just ``stage[., i]``.
                if all_flipped:
                    # Every file of k flipped, so the flip readers are
                    # exactly the co-reader set: skip the partition.
                    flipr = live
                    nf = m
                    col_rows = _NO_ROWS
                else:
                    fset: set[int] = set()
                    for f in flip:
                        fset.update(readers[f])
                    flipr = np.fromiter(fset, np.intp, len(fset))
                    flipr = flipr[unscheduled[flipr]]
                    nf = len(flipr)
                    col_rows = (
                        np.array(
                            [r for r in live.tolist() if r not in fset],
                            dtype=np.intp,
                        )
                        if nf
                        else live
                    )
                rows_skipped += m - nf
                if nf:
                    if nf <= _ROWWISE_MAX:
                        # Few dirty rows (the steady state under high
                        # overlap): the reference ``stage_row`` expression
                        # verbatim per row, skipping group machinery.
                        for r in flipr.tolist():
                            fs_r = task_files[r]
                            row = np_where(
                                on_node[fs_r].T, 0.0, ba_cur[fs_r]
                            ).sum(axis=1)
                            rc = newpos[r]
                            stage_t[:, rc] = row
                            # In-place ``(row + ready) + fixed`` — same
                            # rounding order, one temporary fewer; the
                            # staging write above must precede it.
                            np_add(row, ready, out=row)
                            np_add(row, fixed[r], out=row)
                            vals[rc] = row
                    else:
                        if single_len:
                            fgroups = [(int(file_count[flipr[0]]), flipr)]
                        else:
                            lv = file_count[flipr]
                            fgroups = [(ln, flipr[lv == ln]) for ln in lens_keys]
                        for length, rs in fgroups:
                            if not len(rs):
                                continue
                            fs2 = files_by_len[length][pos_in_len[rs]]  # (mg, L)
                            ba = ba_cur[fs2]
                            present = on_node[fs2].transpose(0, 2, 1)  # (mg, c, L)
                            srows = np_where(present, 0.0, ba[:, None, :]).sum(axis=2)
                            rcs = newpos[rs]
                            stage_t[:, rcs] = srows.T
                            vals[rcs] = (srows + ready) + fixed[rs]
                    pair_evals += nf * c
                    value_rows += nf
            else:
                col_rows = live
                rows_skipped += m
            mc = len(col_rows)
            if mc and mc <= _ROWWISE_MAX:
                # Few dirty rows: column-i lane of ``stage_row``, per row.
                for r in col_rows.tolist():
                    fs_r = task_files[r]
                    stage_t[i, newpos[r]] = np_where(
                        on_node[fs_r, i], 0.0, ba_cur[fs_r]
                    ).sum()
                pair_evals += mc
            elif mc:
                if single_len:
                    groups = [(int(file_count[col_rows[0]]), col_rows)]
                else:
                    lv = file_count[col_rows]
                    groups = [(ln, col_rows[lv == ln]) for ln in lens_keys]
                for length, rs in groups:
                    if not len(rs):
                        continue
                    fs2 = files_by_len[length][pos_in_len[rs]]  # (mg, L)
                    present_i = on_node[fs2, i]  # (mg, L)
                    stage_t[i, newpos[rs]] = np_where(
                        present_i, 0.0, ba_cur[fs2]
                    ).sum(axis=1)
                    pair_evals += len(rs)
            rows_refreshed += m
        # Column i: its ready term moved (and dirty stage entries above).
        # Rewrite with the reference's rounding order into the contiguous
        # buffer, copy back (committed rows come out inf via the poison).
        np_add(stage_t[i], ready[i], out=colbuf)
        np_add(colbuf, fixed_t[i], out=colbuf)
        vals[:, i] = colbuf
        pair_evals += cap

    stats.rounds = n
    stats.col_refreshes = max(n - 1, 0)
    stats.stage_rows_refreshed += rows_refreshed
    stats.value_rows_refreshed = value_rows
    stats.pair_evaluations = pair_evals
    stats.value_rows_skipped = rows_skipped
    stats.compactions = compactions
    stats.flip_shortcut_hits = flip_hits
    return mapping, stats
