"""Dynamic task ordering and file staging — Section 6 of the paper.

Given a mapping of tasks onto compute nodes (from any scheduler), this engine
decides *when* tasks run and *where* each file transfer comes from, by
maintaining Gantt charts for every storage node, compute node and the shared
inter-cluster link (when present):

* Tasks assigned to a node form a *group*; within each group the next task is
  the one with the least *earliest completion time* (ECT), evaluated against
  the current Gantt charts.
* A task's ECT is found by tentatively scheduling its missing file transfers
  one by one, always picking the file with the minimum transfer completion
  time (TCT) over all its possible sources (the storage node holding it, or
  any compute node that has a replica), then placing its execution (local
  read + CPU) after the last transfer.
* Initially the globally best task is committed first, then the best task of
  every other group (re-evaluated after each commit); afterwards, whenever a
  task completes, the next-best task from its group is committed — exactly
  the policy described in the paper.
* The least-ECT search evaluates candidates in order of a cheap lower bound
  on their ECT (:meth:`Runtime.ect_bound`) and stops once no remaining
  candidate can beat the best found, so it picks exactly the task an
  evaluation of every candidate would. Candidates that differ only in the
  task id (same node, same ordered inputs, same compute time) are bounded
  and evaluated once; so are copies of a task on *blank* nodes (nothing
  reserved, nothing cached) of one speed and local disk. A candidate tied
  on its bound with an earlier one of the same *shape* (inputs that differ
  only in name) is not evaluated. Within one min-TCT round of an
  evaluation, identical slot queries share one search, and a source whose
  transfer cannot end before the round's best so far is not searched. The
  destination port's walk for a transfer resumes from the last one made
  for the same duration and earliest start, in an earlier round or, from
  committed reservations only, in an earlier evaluation on the node.

Single-port model: a transfer occupies both endpoints' timelines; a compute
node's timeline also carries task execution, so no file is staged on a node
while a task executes there (the paper's non-overlap assumption, Eq. 12).

When an IP transfer plan is supplied, source selection follows the plan
instead of the dynamic minimum-TCT rule (with a dynamic fallback if the
planned source no longer holds the file), mirroring the paper's "minor
modification" for realising the IP solution at run time.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable, Iterable, Mapping, Sequence
from collections.abc import Set as AbstractSet
from dataclasses import dataclass, field

from ..analysis.dims import MB, Seconds
from ..batch import Task
from ..faults import FaultModel
from ..obs.core import telemetry
from .cache import CacheFullError
from .events import (
    CacheHitEvent,
    CrashEvent,
    DiskLossEvent,
    EventLog,
    EvictionEvent,
    ExecEvent,
    FailedTransferEvent,
    SubBatchEvent,
    TransferEvent,
)
from .gantt import _EPS, Interval, Timeline, earliest_common_slot
from .platform import Platform
from .state import ClusterState
from .stats import ExecutionResult, TaskRecord

__all__ = ["PlannedSource", "StagingPlan", "Runtime"]


@dataclass(frozen=True)
class PlannedSource:
    """A transfer source fixed by the IP solution.

    ``kind`` is ``"remote"`` (from the storage cluster) or ``"replica"``
    (from compute node ``source_node``).
    """

    kind: str
    source_node: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("remote", "replica"):
            raise ValueError(f"bad source kind {self.kind!r}")
        if self.kind == "replica" and self.source_node is None:
            raise ValueError("replica source requires source_node")


@dataclass
class StagingPlan:
    """Static staging decisions attached to a sub-batch mapping.

    ``sources`` fixes the source for (file, destination-node) pairs (IP
    scheduler). ``pushes`` are proactive transfers executed before the tasks
    start (the Data-Least-Loaded replications of the JDP baseline).
    """

    sources: dict[tuple[str, int], PlannedSource] = field(default_factory=dict)
    pushes: list[tuple[str, int]] = field(default_factory=list)


#: One place a file can come from, costed for one staging floor: (kind,
#: source_node, timelines the transfer occupies, duration, earliest start).
_Source = tuple[str, int | None, tuple[Timeline, ...], float, float]
#: One costed transfer attempt: (tct, kind, source_node, start, duration,
#: timelines it occupies).
_Attempt = tuple[float, str, int | None, float, float, tuple[Timeline, ...]]
#: One common-slot query: (timelines, duration, not_before).
_SlotQuery = tuple[tuple[Timeline, ...], float, float]
#: A transfer as the destination port's walk reads it: (duration,
#: not_before). The port's earliest slot for it is the transfer's *head*.
_HeadKey = tuple[float, float]
#: A reservation placed on a timeline.
_Reservation = tuple[Timeline, Interval]
#: A staged input: (file_id, kind, source_node, start, duration).
_Transfer = tuple[str, str, int | None, float, float]
#: An injected transfer failure: (file_id, size, kind, source_node, start,
#: end, attempt).
_FailedAttempt = tuple[str, float, str, int | None, float, float, int]
#: A node as the least-ECT search tells nodes apart: its id, or
#: ``("blank", speed, local_disk_bw)`` for a blank one (:meth:`Runtime._node_key`).
_NodeKey = int | tuple[str, float, float]
#: What evaluating a task reads of one input: ``(size, availability time)``
#: when it is on the node, else ``(size, storage node, ((holder, ready
#: time), ...))``.
_InputShape = tuple[float, float] | tuple[float, int, tuple[tuple[int, float], ...]]
#: A pair's shape (:meth:`Runtime._shape_key`): (node key, compute time,
#: each input's shape in order).
_Shape = tuple[_NodeKey, float, tuple[_InputShape, ...]]

#: Relative slack of :meth:`Runtime.ect_bound` that absorbs the rounding of
#: its gap walk and of ``is_free``'s ``_EPS`` comparisons.
_BOUND_REL_SLACK = 1e-9

#: The least-ECT search's work counters: ``Runtime`` attributes, reported
#: per :meth:`Runtime.execute` call as ``runtime/<name>`` telemetry counters.
_WORK_COUNTERS = (
    "candidates", "duplicates", "shape_skips", "evaluations",
    "first_evaluations", "slot_searches", "slot_reuses", "slot_skips",
    "head_walks", "head_resumes",
)

#: Every transfer and execution must last longer than this. Then
#: ``Timeline.earliest_slot`` returns the first candidate start that no
#: reservation overlaps by more than ``_EPS``, whichever of them are
#: tentative, so evaluating on the real timelines is exact, and a port walk
#: may resume from an earlier head (docs/performance.md, "Tentative staging
#: on the real timelines" and "Port walks resume where the last one
#: stopped"). Both need durations over ``2 * _EPS`` by more than a rounding;
#: the floor keeps a margin of ``_EPS``.
_MIN_DURATION: Seconds = 3 * _EPS


@dataclass
class _Tentative:
    """A tentatively scheduled task: its transfers and execution slot."""

    task: Task
    node: int
    # Every reservation of the schedule, in the order it was made; the
    # evaluation has released them and :meth:`Runtime._commit` replays them.
    reservations: list[_Reservation]
    transfers: list[_Transfer]
    transfers_done: Seconds
    exec_start: Seconds
    ect: Seconds
    # Injected transfer failures preceding the successful attempts
    # (fault model only).
    failed_attempts: list[_FailedAttempt] = field(default_factory=list)


class Runtime:
    """The Section 6 execution engine over one persistent set of Gantt charts.

    One ``Runtime`` lives for a whole batch run; sub-batches are executed
    sequentially through :meth:`execute`, each starting at the previous
    makespan (the driver applies eviction between them).
    """

    def __init__(
        self,
        platform: Platform,
        state: ClusterState,
        allow_replication: bool = True,
        candidate_limit: int | None = None,
        ordering: str = "ect",
        overlap_io_compute: bool = False,
        events: bool = False,
        faults: FaultModel | None = None,
    ) -> None:
        if ordering not in ("ect", "fifo"):
            raise ValueError(f"ordering must be 'ect' or 'fifo', got {ordering!r}")
        self.platform = platform
        self.state = state
        self.allow_replication = allow_replication
        self.candidate_limit = candidate_limit
        self.ordering = ordering
        self.overlap_io_compute = overlap_io_compute
        self.clock: Seconds = 0.0
        self.node_tl = [Timeline(f"compute{i}") for i in range(platform.num_compute)]
        # The timeline each node executes on. The paper assumes no file is
        # staged on a node while a task runs there (Eq. 12): port and CPU
        # share one timeline, so this is ``node_tl`` itself. Setting
        # ``overlap_io_compute`` relaxes that (a future-work ablation):
        # execution moves to a dedicated per-node CPU timeline so staging
        # for the next task can proceed during computation.
        self.exec_tl = (
            [Timeline(f"cpu{i}") for i in range(platform.num_compute)]
            if overlap_io_compute
            else self.node_tl
        )
        self.storage_tl = [
            Timeline(f"storage{s}") for s in range(platform.num_storage)
        ]
        self.link_tl = (
            Timeline("shared-link") if platform.shared_link_bw is not None else None
        )
        # (node, file) -> absolute time the copy becomes usable
        self._avail: dict[tuple[int, str], float] = {}
        # Fault injection (None = the null model: staging skips every
        # slowdown, crash and failure check, so traces are bit-identical to
        # a faultless build).
        self.faults = faults
        # Commit-ordered event log, read by the schedule auditor
        # (repro.analysis.audit) and the time series (repro.obs.timeseries);
        # None keeps the hot path allocation-free.
        self.events: EventLog | None = EventLog.of(state) if events else None
        # Per compute node, the heads its port's walks found while the port
        # held committed reservations only, by (duration, not_before).
        # Committed reservations are never released, so each stays a valid
        # start for the port's next walk for the same transfer; dropped at
        # each :meth:`execute`.
        self._heads: dict[int, dict[_HeadKey, Seconds]] = {}
        # Work of the least-ECT search over this runtime's life: (task,
        # node) pairs it was given; pairs skipped as copies of an earlier
        # pair of the same search (same ordered inputs and compute time on
        # the same node, or on two blank nodes of one speed and local
        # disk); candidates skipped for having the bound and shape of an
        # earlier one; pairs it evaluated, and how many of those the first
        # commits of a sub-batch made; the common-slot searches that costed
        # their transfers, the slot queries answered by an identical query
        # earlier in the same round, and the sources not searched because
        # their transfer could not end before the best so far; the port walks
        # made for heads, and how many of them started from an earlier head.
        self.candidates = 0
        self.duplicates = 0
        self.shape_skips = 0
        self.evaluations = 0
        self.first_evaluations = 0
        self.slot_searches = 0
        self.slot_reuses = 0
        self.slot_skips = 0
        self.head_walks = 0
        self.head_resumes = 0

    # -- resource helpers -------------------------------------------------------
    def timelines(self) -> list[Timeline]:
        """Every resource timeline once, in trace order.

        Compute ports, the dedicated CPUs (overlap mode only), storage
        nodes, then the shared link (when the platform has one).
        """
        cpus = self.exec_tl if self.exec_tl is not self.node_tl else []
        link = [self.link_tl] if self.link_tl is not None else []
        return [*self.node_tl, *cpus, *self.storage_tl, *link]

    def _avail_time(self, node: int, file_id: str) -> Seconds:
        return self._avail.get((node, file_id), self.clock)

    # -- source enumeration --------------------------------------------------------
    def _sources_for(
        self, file_id: str, dest: int, plan: StagingPlan | None
    ) -> list[tuple[str, int | None]]:
        """Where ``file_id`` can come from onto ``dest``: ``(kind,
        source_node)`` pairs.

        The plan's source when the plan names one for the pair (a planned
        replica only while its node still holds the file); otherwise the
        storage node, then every other holder when replication is allowed.
        """
        if plan is not None:
            planned = plan.sources.get((file_id, dest))
            if planned is not None:
                if planned.kind == "remote":
                    return [("remote", None)]
                src = planned.source_node
                assert src is not None
                if self.state.has_file(src, file_id):
                    return [("replica", src)]
                # Planned replica source lost (evicted): dynamic fallback.
        sources: list[tuple[str, int | None]] = [("remote", None)]
        if self.allow_replication:
            for holder in self.state.holders(file_id):
                if holder != dest:
                    sources.append(("replica", holder))
        return sources

    def _sources(
        self, file_id: str, dest: int, plan: StagingPlan | None, floor: Seconds
    ) -> list[_Source]:
        """Every source of ``file_id`` onto ``dest``, in :meth:`_sources_for`
        order, with the timelines a transfer from it occupies, its duration
        and its earliest start: ``floor``, or the time the source's copy is
        ready if that is later. Under a fault model, link slowdown windows
        divide bandwidth; the factor is sampled at the earliest start
        (deterministic even though the actual slot may land later). A
        transfer no longer than ``_MIN_DURATION`` unslowed is refused.
        """
        dest_tl = self.node_tl[dest]
        size = self.state.size_of(file_id)
        faults = self.faults
        sources: list[_Source] = []
        for kind, src in self._sources_for(file_id, dest, plan):
            res: tuple[Timeline, ...]
            if kind == "remote":
                storage = self.state.storage_node_of(file_id)
                res = (dest_tl, self.storage_tl[storage])
                if self.link_tl is not None:
                    res += (self.link_tl,)
                bw = self.platform.remote_bandwidth(storage)
                ready = self.clock
            else:
                assert src is not None
                res = (dest_tl, self.node_tl[src])
                bw = self.platform.replication_bandwidth
                ready = self._avail_time(src, file_id)
            duration = size / bw
            if duration <= _MIN_DURATION:
                raise ValueError(
                    f"a {kind} transfer of {file_id!r} onto node {dest} lasts "
                    f"{duration} s; transfers must last over {_MIN_DURATION} s"
                )
            not_before = ready if ready > floor else floor
            if faults is not None:
                duration = size * faults.slowdown_factor(kind, not_before) / bw
            sources.append((kind, src, res, duration, not_before))
        return sources

    # -- source selection -------------------------------------------------------------
    def _best_source(
        self,
        sources: Sequence[_Source],
        slots: dict[_SlotQuery | _HeadKey, Seconds],
        heads: dict[_HeadKey, Seconds],
        committed: Mapping[_HeadKey, Seconds],
        cutoff: Seconds = math.inf,
        exclude: AbstractSet[tuple[str, int | None]] = frozenset(),
    ) -> _Attempt | None:
        """Min-TCT transfer from one of ``sources`` (one file's, onto one
        node), if it completes before ``cutoff``.

        Returns the first source with the least transfer completion time
        below ``cutoff``. Under a fault model a replica whose node dies
        before the copy ends is skipped; a retry excludes the sources it
        already tried. ``None`` means no source completes before
        ``cutoff``; with no cutoff, that every source was excluded or
        crash-unreachable, which takes a fault model: the storage cluster
        never crashes.

        Every transfer occupies the destination's port, ``res[0]``, so it
        starts no earlier than the port's own earliest slot, its *head*,
        and that is where its common-slot search starts, with the port's
        answer counted. IEEE addition is monotone, so a source whose head
        plus duration is not below the cutoff, or the best completion so
        far, cannot win and is not searched.

        ``slots`` memoises this round's heads by :data:`_HeadKey` and its
        searches by their arguments. The caller must reserve nothing while
        one memo is in use, so an answer stays valid for as long as the
        memo lives; a caller that reserves between calls passes a fresh one
        to each. A head the memo lacks is walked from the last head found
        for its key, ``heads``' else ``committed``'s, else from
        ``not_before``, and kept in ``heads``. That is exact as long as
        the port has only gained reservations since those heads were
        found: gaining reservations never moves a walk's answer earlier,
        so the walk from an earlier answer lands where the walk from
        ``not_before`` does (docs/performance.md, "Port walks resume where
        the last one stopped").
        """
        faults = self.faults
        best: _Attempt | None = None
        for kind, src, res, duration, not_before in sources:
            if exclude and (kind, src) in exclude:
                continue
            key = (duration, not_before)
            head = slots.get(key)
            if head is None:
                self.head_walks += 1
                start = heads.get(key)
                if start is None:
                    start = committed.get(key)
                if start is None:
                    start = not_before
                else:
                    self.head_resumes += 1
                head = slots[key] = heads[key] = res[0].earliest_slot(duration, start)
            if head + duration >= cutoff:
                self.slot_skips += 1
                continue
            query = (res, duration, head)
            known = slots.get(query)
            if known is None:
                self.slot_searches += 1
                start = slots[query] = earliest_common_slot(res, duration, head, True)
            else:
                self.slot_reuses += 1
                start = known
            tct = start + duration
            if faults is not None and kind == "replica":
                assert src is not None
                if tct > faults.crash_time(src):
                    continue  # source node dies mid-copy: not a usable source
            if tct < cutoff:
                best = (tct, kind, src, start, duration, res)
                cutoff = tct
        return best

    def _retry_until_staged(
        self,
        file_id: str,
        node: int,
        plan: StagingPlan | None,
        first: _Attempt,
        failed: list[_FailedAttempt],
        log: list[_Reservation],
    ) -> _Attempt:
        """Run one file's staging session from attempt ``first`` to success.

        A failed attempt occupies its slot (tagged ``xfail:``, reserved
        through ``log``) and is appended to ``failed``; the next attempt
        starts after an exponential backoff and prefers the next-cheapest
        of the file's sources under ``plan`` not yet tried this session
        (falling back to retrying exhausted sources, then to every source
        if the planned ones are unusable). Each attempt costs the sources
        for its own floor and walks ports from ``not_before``.
        Draw outcomes are pure functions of ``(seed, file, dest, instance,
        attempt)``, so this speculative evaluation matches the eventual
        commit exactly. Returns the successful attempt.
        """
        faults = self.faults
        assert faults is not None
        size = self.state.size_of(file_id)
        instance = faults.staging_instances.get((file_id, node), 0)
        tried: set[tuple[str, int | None]] = set()
        opt = first
        attempt = 0
        while faults.transfer_fails(file_id, node, instance, attempt):
            _tct, kind, src, start, duration, res = opt
            tag = f"xfail:{file_id}->{node}"
            for tl in res:
                log.append((tl, tl.reserve(start, duration, tag)))
            failed.append(
                (file_id, size, kind, src, start, start + duration, attempt)
            )
            tried.add((kind, src))
            floor = start + duration + faults.backoff(attempt)
            attempt += 1
            sources = self._sources(file_id, node, plan, floor)
            nxt = self._best_source(sources, {}, {}, {}, exclude=tried)
            if nxt is None:
                tried.clear()  # every source tried: cycle through again
                nxt = self._best_source(sources, {}, {}, {})
            if nxt is None:  # planned source unusable: dynamic fallback
                dynamic = self._sources(file_id, node, None, floor)
                nxt = self._best_source(dynamic, {}, {}, {})
            assert nxt is not None  # the storage cluster never crashes
            opt = nxt
        return opt

    # -- tentative evaluation (ECT) ---------------------------------------------------
    def _exec_duration(self, task: Task, node: int) -> Seconds:
        """Local read of every input plus CPU time of ``task`` on ``node``."""
        read = sum(
            self.platform.local_read_time(node, self.state.size_of(f))
            for f in task.files
        )
        duration = read + self.platform.task_compute_time(node, task.compute_time)
        if duration <= _MIN_DURATION:
            raise ValueError(
                f"task {task.task_id} runs {duration} s on node {node}; "
                f"executions must last over {_MIN_DURATION} s"
            )
        return duration

    def ect_bound(self, task: Task, node: int) -> Seconds:
        """A lower bound on ``evaluate(task, node, plan).ect``, for any plan.

        Execution starts no earlier than the clock, every resident input's
        availability time and the end of the last missing transfer. Those
        transfers all land on ``node``'s timeline at or after the clock.
        Each lasts at least ``size / b``, with ``b`` the fastest bandwidth
        the file could come at: remote, or replication when another node
        holds a copy (planned or not). Fault slowdowns only stretch a
        transfer. Each transfer also fits inside one free gap of the base
        timeline, so the transfers cannot end before the free gaps from the
        clock, counting only gaps as long as the shortest transfer, add up
        to their summed durations. Reservations may overlap by ``_EPS`` at
        either end, so each transfer is allowed ``2 * _EPS``, plus a
        relative slack for rounding. The maxima are exact and IEEE addition
        is monotone, so the bound never exceeds the evaluated ECT.
        """
        state = self.state
        platform = self.platform
        ready = self.clock
        work: Seconds = 0.0
        shortest = float("inf")
        missing = 0
        for f in task.files:
            if state.has_file(node, f):
                ready = max(ready, self._avail_time(node, f))
                continue
            bw = platform.remote_bandwidth(state.storage_node_of(f))
            if state.holders(f):  # ``node`` is not among them
                bw = max(bw, platform.replication_bandwidth)
            duration = state.size_of(f) / bw
            work += duration
            shortest = min(shortest, duration)
            missing += 1
        if missing:
            tl = self.node_tl[node]
            slack = _BOUND_REL_SLACK * (max(tl.horizon, self.clock) + work)
            ready = max(
                ready,
                tl.free_time_end(
                    work - 2 * _EPS * missing - slack,
                    shortest - 2 * _EPS - slack,
                    self.clock,
                ),
            )
        return ready + self._exec_duration(task, node)

    def _node_key(self, node: int) -> _NodeKey:
        """``node``, or what evaluating a task reads of it if it is blank.

        A blank node has no reservation on its port or execution timeline
        and no file in its cache, so every input is missing, every transfer
        onto it and its execution search empty timelines, and no source is
        on it. An evaluation on it then reads only its speed and local disk
        bandwidth, as long as nothing is keyed by the destination node: no
        fault draws and no planned sources.
        """
        if (
            len(self.node_tl[node])
            or len(self.exec_tl[node])
            or self.state.caches[node].files
        ):
            return node
        spec = self.platform.compute_nodes[node]
        return ("blank", spec.speed, spec.local_disk_bw)

    def _shape_key(self, task: Task, node: int) -> _Shape:
        """Everything :meth:`ect_bound` and :meth:`evaluate` read of ``task``
        on ``node`` but the file and task ids, when nothing is keyed by
        file id or node (no fault draws, no planned sources).

        Of an input on the node they read its size and availability time;
        of a missing one its size, its storage node (timeline and
        bandwidth) and every other holder with the time its copy is ready,
        in :meth:`ClusterState.holders` order, which is the order sources
        are costed and ties kept in.
        """
        state = self.state
        inputs: list[_InputShape] = []
        for f in task.files:
            size = state.size_of(f)
            if state.has_file(node, f):
                inputs.append((size, self._avail_time(node, f)))
            else:
                holders = tuple(
                    (h, self._avail_time(h, f)) for h in state.holders(f) if h != node
                )
                inputs.append((size, state.storage_node_of(f), holders))
        return (self._node_key(node), task.compute_time, tuple(inputs))

    def _least_ect(
        self, pairs: Sequence[tuple[Task, int]], plan: StagingPlan | None
    ) -> _Tentative:
        """The least-ECT tentative of ``pairs``, the first one on ties.

        Pairs with the same node, ordered inputs and compute time are one
        class: :meth:`ect_bound` and :meth:`evaluate` read nothing else of
        a task but its id, which only tags the execution, so a class shares
        one bound and one ECT. Without a fault model or planned sources,
        all blank nodes of one speed and local disk count as one node
        (:meth:`_node_key`). Only each class's first pair is bounded and
        evaluated; the others, at later indices, cannot beat its
        ``(ect, index)`` key. The order of the inputs is part of the class
        because the min-TCT rule breaks ties in that order. A single class
        is evaluated without a bound.

        Candidates are evaluated in ``(bound, index)`` order, and the search
        stops at the first whose key exceeds the best ``(ect, index)`` so
        far: every later candidate has a larger ECT, or an equal one at a
        later index. Under the same conditions as blank nodes, a candidate
        whose bound is bit for bit an earlier one's is skipped when its
        :meth:`_shape_key` is too: equal shapes give equal ECTs, and the
        earlier one has the lower index. Equal shapes give equal bounds, so
        only candidates tied on their bound need a shape. The result is
        what ``min`` over every evaluation returns.
        """
        self.candidates += len(pairs)
        # Fault draws and planned sources are keyed by file and destination.
        shapes = self.faults is None and (plan is None or not plan.sources)
        node_keys = {
            node: self._node_key(node) if shapes else node
            for node in {node for _, node in pairs}
        }
        first: dict[tuple[_NodeKey, tuple[str, ...], float], int] = {}
        for i, (task, node) in enumerate(pairs):
            first.setdefault((node_keys[node], task.files, task.compute_time), i)
        self.duplicates += len(pairs) - len(first)
        if len(first) == 1:
            self.evaluations += 1
            return self.evaluate(*pairs[0], plan)
        order = sorted((self.ect_bound(*pairs[i]), i) for i in first.values())
        best: _Tentative | None = None
        best_key = (float("inf"), len(pairs))
        # The first candidate reached at the current bound, and the shapes
        # reached at it once a second candidate ties.
        tied_bound, tied_first = float("-inf"), 0
        tied: set[_Shape] | None = None
        for bound, i in order:
            if (bound, i) > best_key:
                break
            task, node = pairs[i]
            if shapes:
                if bound > tied_bound:
                    tied_bound, tied_first, tied = bound, i, None
                else:
                    if tied is None:
                        tied = {self._shape_key(*pairs[tied_first])}
                    shape = self._shape_key(task, node)
                    if shape in tied:
                        self.shape_skips += 1
                        continue
                    tied.add(shape)
            tent = self.evaluate(task, node, plan)
            self.evaluations += 1
            if (tent.ect, i) < best_key:
                best, best_key = tent, (tent.ect, i)
        assert best is not None
        return best

    def evaluate(
        self, task: Task, node: int, plan: StagingPlan | None = None
    ) -> _Tentative:
        """Tentatively schedule ``task`` on ``node``; nothing is committed.

        Missing inputs are staged one at a time, always the file whose best
        source completes first (the paper's minimum-TCT rule); under a
        fault model each staging runs until an attempt succeeds. Each
        transfer and failed attempt is reserved on the real timelines, so
        the ones after it see it, and released again before returning; the
        tentative keeps them, plus the execution slot, for :meth:`_commit`.

        A round costs every remaining file before it reserves anything, so
        its identical slot queries (files of one size on one storage node,
        say) share one search, and the port walk that heads every transfer
        of one duration and earliest start is made once. The memo is
        dropped when the round's pick is staged. The round keeps the first
        strictly least TCT, so every file after the first is costed with
        the round's best so far as its cutoff.

        Each round's port walks resume from the previous round's heads: the
        port has only gained reservations since. The first round's, made
        while nothing tentative is reserved, are also kept for the node's
        later evaluations (:attr:`_heads`), which resume from them.
        """
        clock = self.clock
        missing = [f for f in task.files if not self.state.has_file(node, f)]
        transfers_done = max(
            (self._avail_time(node, f) for f in task.files if f not in missing),
            default=clock,
        )
        transfers: list[_Transfer] = []
        failed_attempts: list[_FailedAttempt] = []
        log: list[_Reservation] = []
        try:
            # The sources and their costs do not change while the task is
            # evaluated: only the timelines do, and each round searches them
            # afresh.
            remaining = {f: self._sources(f, node, plan, clock) for f in missing}
            heads: dict[_HeadKey, Seconds] = {}
            committed = self._heads.setdefault(node, {})
            while remaining:
                pick: tuple[_Attempt, str] | None = None
                slots: dict[_SlotQuery | _HeadKey, Seconds] = {}
                for f, sources in remaining.items():
                    cutoff = math.inf if pick is None else pick[0][0]
                    if sources[0][0] == "replica":
                        # Dynamic sources start with the storage node, so
                        # this is a plan's one source. It is costed
                        # whatever the cutoff, so that the fallback runs
                        # exactly when the planned replica is unusable.
                        opt = self._best_source(sources, slots, heads, committed)
                        if opt is None:  # planned source unusable: dynamic fallback
                            opt = self._best_source(
                                self._sources(f, node, None, clock),
                                slots, heads, committed, cutoff,
                            )
                    else:
                        opt = self._best_source(
                            sources, slots, heads, committed, cutoff
                        )
                    if opt is not None and opt[0] < cutoff:
                        pick = (opt, f)
                if not log:
                    # Nothing tentative is reserved yet: these heads hold
                    # for the port's committed reservations alone.
                    committed.update(heads)
                # The first file is costed without a cutoff, and the storage
                # node, which never crashes, is among its sources or its
                # fallback's.
                assert pick is not None
                opt, f = pick
                if self.faults is not None:
                    opt = self._retry_until_staged(
                        f, node, plan, opt, failed_attempts, log
                    )
                tct, kind, src, start, duration, res = opt
                tag = f"xfer:{f}->{node}"
                for tl in res:
                    log.append((tl, tl.reserve(start, duration, tag)))
                transfers.append((f, kind, src, start, duration))
                transfers_done = max(transfers_done, tct)
                del remaining[f]

            # Execution: local read of all inputs plus CPU time, after every
            # input file is available, on the node's execution timeline.
            # Nothing after it searches a slot, so it is recorded without
            # being placed.
            exec_dur = self._exec_duration(task, node)
            exec_tl = self.exec_tl[node]
            exec_start = exec_tl.earliest_slot(exec_dur, max(transfers_done, clock))
            execution = Interval(
                exec_start, exec_start + exec_dur, f"exec:{task.task_id}"
            )
            return _Tentative(
                task=task,
                node=node,
                reservations=[*log, (exec_tl, execution)],
                transfers=transfers,
                transfers_done=transfers_done,
                exec_start=exec_start,
                ect=exec_start + exec_dur,
                failed_attempts=failed_attempts,
            )
        finally:
            for tl, iv in reversed(log):
                tl.release(iv)

    # -- committing ---------------------------------------------------------------------
    def _commit(
        self,
        tent: _Tentative,
        victim_order: Callable[[int, Iterable[str]], list[str]],
    ) -> TaskRecord:
        """Write a tentative schedule through to the real Gantt charts."""
        node = tent.node
        cache = self.state.caches[node]

        # Pin the already-present inputs first so on-demand eviction cannot
        # take files this task is about to use. Each such input is an access
        # served by the disk cache rather than a transfer.
        incoming_ids = {f for f, *_ in tent.transfers}
        for f in tent.task.files:
            if f not in incoming_ids:
                cache.pin(f)
                size = self.state.size_of(f)
                carried = self.state.record_cache_hit(size, node, f)
                if self.events is not None and self.state.carryover_active:
                    # Online sessions only: log every hit with its
                    # cross-batch attribution so the auditor's E8 replay
                    # can verify it; single-batch logs stay unchanged.
                    self.events.append(CacheHitEvent(node, f, size, carried))

        # Make room for the incoming files, evicting per policy.
        needed = sum(self.state.size_of(f) for f in incoming_ids)
        if needed > 0:
            cache.ensure_space(
                needed,
                victim_order=lambda cands: victim_order(node, cands),
                on_evict=lambda fid: self.on_evict(node, fid),
            )

        for tl, iv in tent.reservations:
            tl.reserve(iv.start, iv.duration, iv.tag)
        if self.faults is not None:
            self._commit_fault_accounting(tent)
        for f, kind, src, start, duration in tent.transfers:
            self._land(f, kind, src, node, start, duration)
            cache.pin(f)
        for f in tent.task.files:
            cache.touch(f, tent.ect)
        if self.events is not None:
            self.events.append(
                ExecEvent(
                    tent.task.task_id, node, tent.task.files, tent.exec_start, tent.ect
                )
            )
        return TaskRecord(
            task_id=tent.task.task_id,
            node=node,
            transfers_done=tent.transfers_done,
            exec_start=tent.exec_start,
            completion=tent.ect,
        )

    def _land(self, file_id: str, kind: str, src: int | None, dest: int,
              start: Seconds, duration: Seconds, push: bool = False) -> None:
        """A committed transfer lands: the copy is placed on ``dest`` and
        usable from its end, the statistics count it and the log records it."""
        size = self.state.size_of(file_id)
        end = start + duration
        self.state.place(dest, file_id, now=end)
        self._avail[(dest, file_id)] = end
        if kind == "remote":
            self.state.record_remote(size)
        else:
            self.state.record_replication(size)
        if self.events is not None:
            self.events.append(
                TransferEvent(file_id, size, kind, src, dest, start, duration, push)
            )

    def _commit_fault_accounting(self, tent: _Tentative) -> None:
        """Fold a committed task's fault history into stats and the log.

        Runs at commit time only, so speculative evaluations never touch
        counters. Failed attempts are recorded before their file's
        successful transfer, preserving E7's "failure then recovery" order
        in the commit sequence.
        """
        faults = self.faults
        assert faults is not None
        node = tent.node
        instances = faults.staging_instances
        for f, _kind, _src, _start, _duration in tent.transfers:
            instances[(f, node)] = instances.get((f, node), 0) + 1
        if not tent.failed_attempts:
            return
        chains: dict[str, list[_FailedAttempt]] = {}
        for fa in tent.failed_attempts:
            chains.setdefault(fa[0], []).append(fa)
        success_source = {
            f: (kind, src) for f, kind, src, _start, _duration in tent.transfers
        }
        stats = faults.stats
        for f, fails in chains.items():
            fails.sort(key=lambda fa: fa[6])
            stats.transfer_failures += len(fails)
            stats.retries += len(fails)
            sources = [(fa[2], fa[3]) for fa in fails] + [success_source[f]]
            stats.failovers += sum(
                1 for a, b in zip(sources, sources[1:]) if a != b
            )
            if self.events is not None:
                for file_id, size, kind, src, start, end, attempt in fails:
                    self.events.append(
                        FailedTransferEvent(
                            file_id, size, kind, src, node, start, end, attempt
                        )
                    )

    def on_evict(self, node: int, file_id: str) -> None:
        """Record that ``file_id`` was evicted from ``node``'s disk.

        The cache has already dropped the entry; this mirrors the global
        holder map, availability table and statistics, and the event log.
        The driver's between-sub-batch eviction reports through it too.
        """
        if self.events is not None:
            self.events.append(
                EvictionEvent(node, file_id, self.state.size_of(file_id))
            )
        self.state.note_evicted(node, file_id)
        self._avail.pop((node, file_id), None)

    def _release(self, task: Task, node: int) -> None:
        if self.faults is not None and node in self.state.dead_nodes:
            return  # the node's cache died with it; nothing left to unpin
        cache = self.state.caches[node]
        for f in task.files:
            cache.unpin(f)

    # -- fault application --------------------------------------------------------------
    def _kill_node(self, node: int, time: Seconds) -> None:
        """Permanently fail ``node``: drop its cache and log the crash."""
        faults = self.faults
        assert faults is not None
        lost = self.state.mark_dead(node)
        faults.stats.node_crashes += 1
        faults.stats.files_lost += len(lost)
        faults.stats.lost_mb += sum(size for _, size in lost)
        for key in [k for k in self._avail if k[0] == node]:
            del self._avail[key]
        if self.events is not None:
            self.events.append(CrashEvent(node, time, tuple(lost)))

    def _apply_timed_faults(
        self, victim_order: Callable[[int, Iterable[str]], list[str]]
    ) -> None:
        """Inject faults whose simulated time has already passed.

        Called at every :meth:`execute` entry: crashes and disk losses
        scheduled before the current clock take effect between sub-batches
        (mid-sub-batch crashes are caught by the commit-time guard in the
        main loop instead). Each applied loss is logged after the evictions
        it forced.
        """
        faults = self.faults
        assert faults is not None
        for idx, loss in enumerate(faults.spec.disk_losses):
            at = faults.local_time(loss.time)
            if idx in faults.applied_disk_losses or at > self.clock:
                continue
            faults.applied_disk_losses.add(idx)
            if (
                loss.node in self.state.dead_nodes
                or not 0 <= loss.node < self.platform.num_compute
            ):
                continue
            node = loss.node
            self.state.caches[node].shrink(
                loss.lost_mb,
                victim_order=lambda cands: victim_order(node, cands),
                on_evict=lambda fid: self.on_evict(node, fid),
            )
            faults.stats.disk_losses += 1
            if self.events is not None:
                self.events.append(DiskLossEvent(node, at, loss.lost_mb))
        for node in range(self.platform.num_compute):
            if node in self.state.dead_nodes:
                continue
            crash_at = faults.crash_time(node)
            if crash_at <= self.clock:
                self._kill_node(node, crash_at)

    # -- proactive pushes (Data Least Loaded) ------------------------------------------
    def _stage_push(self, file_id: str, dest: int,
                    victim_order: Callable[[int, Iterable[str]], list[str]]) -> None:
        """Proactively replicate ``file_id`` onto ``dest`` (DLL baseline)."""
        if self.state.has_file(dest, file_id):
            return
        if self.faults is not None and dest in self.state.dead_nodes:
            return  # dead destination: the push is silently skipped
        cache = self.state.caches[dest]
        try:
            cache.ensure_space(
                self.state.size_of(file_id),
                victim_order=lambda cands: victim_order(dest, cands),
                on_evict=lambda fid: self.on_evict(dest, fid),
            )
        except CacheFullError:
            return  # skip the push rather than fail the run
        sources = self._sources(file_id, dest, None, self.clock)
        best = self._best_source(sources, {}, {}, {})
        assert best is not None  # the storage cluster never crashes
        tct, kind, src, start, duration, res = best
        if self.faults is not None and tct > self.faults.crash_time(dest):
            return  # push would outlive the destination: skip it
        for tl in res:
            tl.reserve(start, duration, tag=f"push:{file_id}->{dest}")
        self._land(file_id, kind, src, dest, start, duration, push=True)

    # -- main loop ---------------------------------------------------------------------
    def execute(
        self,
        tasks: Sequence[Task],
        mapping: Mapping[str, int],
        plan: StagingPlan | None = None,
        victim_order: Callable[[int, Iterable[str]], list[str]] | None = None,
    ) -> ExecutionResult:
        """Execute a sub-batch; returns timings and advances the clock.

        ``mapping`` sends every task id to a compute node. ``victim_order``
        ranks eviction candidates (most evictable first) for on-demand cache
        eviction; default is size-ascending.
        """
        if victim_order is None:
            def _size_ascending(node: int, cands: Iterable[str]) -> list[str]:
                return sorted(cands, key=self.state.size_of)

            victim_order = _size_ascending

        start_time = self.clock
        work_before = [getattr(self, name) for name in _WORK_COUNTERS]
        self._heads = {}
        failed: list[str] = []
        if self.faults is not None:
            self._apply_timed_faults(victim_order)
        for t in tasks:
            if t.task_id not in mapping:
                raise ValueError(f"task {t.task_id} missing from mapping")
            n = mapping[t.task_id]
            if not 0 <= n < self.platform.num_compute:
                raise ValueError(f"task {t.task_id} mapped to bad node {n}")

        groups: dict[int, list[Task]] = {}
        for t in tasks:
            groups.setdefault(mapping[t.task_id], []).append(t)

        if self.faults is not None:
            # Tasks mapped onto an already-dead node cannot run at all;
            # hand them straight back to the driver for rescheduling.
            for node in [n for n in groups if n in self.state.dead_nodes]:
                failed.extend(t.task_id for t in groups.pop(node))
        if self.events is not None:
            ready = tuple(len(groups.get(n, ())) for n in range(self.platform.num_compute))
            self.events.append(SubBatchEvent(start_time, ready))

        if plan is not None:
            for file_id, dest in plan.pushes:
                self._stage_push(file_id, dest, victim_order)

        records: list[TaskRecord] = []
        # (ect, commit number, node, task) of each committed task
        completions: list[tuple[float, int, int, Task]] = []

        def candidates(node: int) -> list[Task]:
            pend = groups[node]
            if self.ordering == "fifo":
                return pend[:1]  # ablation mode: submission order, no ECT scan
            if self.candidate_limit is None or len(pend) <= self.candidate_limit:
                return pend
            # Cheap pre-filter: tasks needing the least missing volume first.
            def missing_mb(t: Task) -> MB:
                return sum(
                    self.state.size_of(f)
                    for f in t.files
                    if not self.state.has_file(node, f)
                )
            return sorted(pend, key=missing_mb)[: self.candidate_limit]

        def commit(tent: _Tentative) -> None:
            node = tent.node
            if self.faults is not None and tent.ect > self.faults.crash_time(node):
                # The node dies before its next-best task could complete:
                # declare it crashed now. Everything already committed here
                # finished before the crash instant (each commit passed this
                # same guard), so E6 holds; the unfinished remainder of the
                # group goes back to the driver's pending pool.
                self._kill_node(node, self.faults.crash_time(node))
                failed.extend(t.task_id for t in groups.pop(node))
                return
            groups[node].remove(tent.task)
            if not groups[node]:
                del groups[node]
            records.append(self._commit(tent, victim_order))
            heapq.heappush(
                completions, (tent.ect, len(records), node, tent.task)
            )

        # Initial commits: globally best first, then each remaining group's
        # best in ECT order (re-evaluated after every commit). Ties go to
        # the first node in iteration order.
        evaluated = self.evaluations
        uncommitted = set(groups)
        while uncommitted:
            tent = self._least_ect(
                [(t, node) for node in uncommitted for t in candidates(node)],
                plan,
            )
            commit(tent)
            uncommitted.discard(tent.node)
            uncommitted &= set(groups)
        self.first_evaluations += self.evaluations - evaluated

        # Event loop: when a task completes, schedule that group's next task.
        makespan = start_time
        while completions:
            ect, _, node, task = heapq.heappop(completions)
            makespan = max(makespan, ect)
            self._release(task, node)
            if node in groups:
                commit(self._least_ect([(t, node) for t in candidates(node)], plan))

        self.clock = max(self.clock, makespan)
        if telemetry.enabled:
            for name, before in zip(_WORK_COUNTERS, work_before):
                telemetry.count(f"runtime/{name}", getattr(self, name) - before)
        return ExecutionResult(
            start_time=start_time,
            makespan=makespan,
            records=records,
            failed_tasks=failed,
        )
