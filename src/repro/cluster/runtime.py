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
  and evaluated once, and within one min-TCT round of an evaluation,
  identical slot queries share one search.

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
from collections.abc import Callable, Iterable, Mapping, Sequence
from collections.abc import Set as AbstractSet
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from ..analysis.dims import MB, Seconds
from ..batch import Task
from ..faults import FaultModel
from ..obs.core import telemetry
from .cache import CacheFullError
from .events import AuditTrail
from .gantt import _EPS, Interval, Timeline, earliest_common_slot
from .platform import Platform
from .state import ClusterState
from .stats import ExecutionResult, TaskRecord

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.timeseries import TimeSeriesProbe

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


#: One place a file can come from, with what costing a transfer from it
#: needs: (kind, source_node, timelines the transfer occupies, bandwidth,
#: time the source's copy is ready).
_Source = tuple[str, int | None, tuple[Timeline, ...], float, float]
#: One costed transfer attempt: (tct, kind, source_node, start, duration,
#: timelines it occupies).
_Attempt = tuple[float, str, int | None, float, float, tuple[Timeline, ...]]
#: One common-slot query: (timelines, duration, not_before).
_SlotQuery = tuple[tuple[Timeline, ...], float, float]
#: A reservation placed on a timeline.
_Reservation = tuple[Timeline, Interval]
#: A staged input: (file_id, kind, source_node, start, duration).
_Transfer = tuple[str, str, int | None, float, float]
#: An injected transfer failure: (file_id, size, kind, source_node, start,
#: end, attempt).
_FailedAttempt = tuple[str, float, str, int | None, float, float, int]

#: Relative slack of :meth:`Runtime.ect_bound` that absorbs the rounding of
#: its gap walk and of ``is_free``'s ``_EPS`` comparisons.
_BOUND_REL_SLACK = 1e-9

#: The least-ECT search's work counters: ``Runtime`` attributes, reported
#: per :meth:`Runtime.execute` call as ``runtime/<name>`` telemetry counters.
_WORK_COUNTERS = (
    "candidates", "duplicates", "evaluations", "slot_searches", "slot_reuses"
)

#: Every transfer and execution must last longer than this. Then
#: ``Timeline.earliest_slot`` returns the first candidate start that no
#: reservation overlaps by more than ``_EPS``, whichever of them are
#: tentative, so evaluating on the real timelines is exact
#: (docs/performance.md, "Tentative staging on the real timelines").
_MIN_DURATION: Seconds = 2 * _EPS


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
        audit: bool = False,
        faults: FaultModel | None = None,
    ) -> None:
        if ordering not in ("ect", "fifo"):
            raise ValueError(f"ordering must be 'ect' or 'fifo', got {ordering!r}")
        self.platform = platform
        self.state = state
        self.allow_replication = allow_replication
        self.candidate_limit = candidate_limit
        self.ordering = ordering
        # The paper assumes no file is staged on a node while a task runs
        # there (Eq. 12): port and CPU share one timeline. Setting
        # ``overlap_io_compute`` relaxes that (a future-work ablation):
        # execution moves to a dedicated per-node CPU timeline so staging
        # for the next task can proceed during computation.
        self.overlap_io_compute = overlap_io_compute
        self.clock: Seconds = 0.0
        self.node_tl = [Timeline(f"compute{i}") for i in range(platform.num_compute)]
        self.cpu_tl = (
            [Timeline(f"cpu{i}") for i in range(platform.num_compute)]
            if overlap_io_compute
            else None
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
        # (file, dest) -> completed staging sessions, so repeated stagings
        # of the same file draw fresh failure outcomes. Only advanced at
        # commit time, keeping speculative ECT evaluations consistent.
        self._xfer_instance: dict[tuple[str, int], int] = {}
        # Commit-ordered event log for the schedule auditor
        # (repro.analysis.audit); None keeps the hot path allocation-free.
        self.trail: AuditTrail | None = None
        if audit:
            self.trail = AuditTrail(
                initial_holdings={
                    n: {f: state.size_of(f) for f in state.files_on(n)}
                    for n in range(platform.num_compute)
                    if state.files_on(n)
                }
            )
        # Simulated-time series probe (repro.obs.timeseries), assigned by
        # the driver when run_batch(timeseries=...) is enabled. None keeps
        # every hook a single attribute test: the disabled path allocates
        # nothing, mirroring the null audit trail above.
        self.probe: TimeSeriesProbe | None = None
        # Ready-task depth of the sub-batch currently executing (tasks
        # mapped but not yet committed); maintained unconditionally so the
        # probe's ready-queue gauge costs only integer arithmetic.
        self._ready_count: int = 0
        # Work of the least-ECT search over this runtime's life: (task,
        # node) pairs it was given, pairs skipped as copies of an earlier
        # pair of the same search, pairs it evaluated, the common-slot
        # searches that costed their transfers, and the slot queries
        # answered by an identical query earlier in the same round.
        self.candidates = 0
        self.duplicates = 0
        self.evaluations = 0
        self.slot_searches = 0
        self.slot_reuses = 0

    # -- resource helpers -------------------------------------------------------
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
        self, file_id: str, dest: int, plan: StagingPlan | None
    ) -> list[_Source]:
        """Every source of ``file_id`` onto ``dest``, in :meth:`_sources_for`
        order, with the timelines, bandwidth and ready time of a transfer
        from it. A transfer no longer than ``_MIN_DURATION`` is refused.
        """
        dest_tl = self.node_tl[dest]
        size = self.state.size_of(file_id)
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
            if size / bw <= _MIN_DURATION:
                raise ValueError(
                    f"a {kind} transfer of {file_id!r} onto node {dest} lasts "
                    f"{size / bw} s; transfers must last over {_MIN_DURATION} s"
                )
            sources.append((kind, src, res, bw, ready))
        return sources

    # -- source selection -------------------------------------------------------------
    def _best_source(
        self,
        file_id: str,
        sources: Sequence[_Source],
        floor: Seconds,
        slots: dict[_SlotQuery, Seconds],
        exclude: AbstractSet[tuple[str, int | None]] = frozenset(),
    ) -> _Attempt | None:
        """Min-TCT transfer of ``file_id`` from one of ``sources``.

        Returns the first source with the least transfer completion time,
        starting no earlier than ``floor``. Under a fault model, link
        slowdowns stretch the transfer and a replica whose node dies before
        the copy ends is skipped; a retry excludes the sources it already
        tried. ``None`` means every source was excluded or
        crash-unreachable, which takes a fault model: the storage cluster
        never crashes.

        ``slots`` memoises ``earliest_common_slot`` by its arguments. The
        caller must reserve nothing while one memo is in use, so an answer
        stays valid for as long as the memo lives; a caller that reserves
        between calls passes a fresh one to each.
        """
        faults = self.faults
        size = self.state.size_of(file_id)
        best: _Attempt | None = None
        for kind, src, res, bw, ready in sources:
            if exclude and (kind, src) in exclude:
                continue
            not_before = ready if ready > floor else floor
            if faults is None:
                duration = size / bw
            else:
                # Link slowdown windows divide bandwidth; the factor is
                # sampled at the transfer's earliest possible start
                # (deterministic even though the actual slot may land later).
                duration = size * faults.slowdown_factor(kind, not_before) / bw
            query = (res, duration, not_before)
            known = slots.get(query)
            if known is None:
                self.slot_searches += 1
                start = slots[query] = earliest_common_slot(res, duration, not_before)
            else:
                self.slot_reuses += 1
                start = known
            tct = start + duration
            if faults is not None and kind == "replica":
                assert src is not None
                if tct > faults.crash_time(src):
                    continue  # source node dies mid-copy: not a usable source
            if best is None or tct < best[0]:
                best = (tct, kind, src, start, duration, res)
        return best

    def _retry_until_staged(
        self,
        file_id: str,
        node: int,
        sources: Sequence[_Source],
        first: _Attempt,
        failed: list[_FailedAttempt],
        log: list[_Reservation],
    ) -> _Attempt:
        """Run one file's staging session from attempt ``first`` to success.

        A failed attempt occupies its slot (tagged ``xfail:``, reserved
        through ``log``) and is appended to ``failed``; the next attempt
        starts after an exponential backoff and prefers the next-cheapest
        of ``sources`` not yet tried this session (falling back to retrying
        exhausted sources, then to every source if the planned ones are
        unusable).
        Draw outcomes are pure functions of ``(seed, file, dest, instance,
        attempt)``, so this speculative evaluation matches the eventual
        commit exactly. Returns the successful attempt.
        """
        faults = self.faults
        assert faults is not None
        size = self.state.size_of(file_id)
        instance = self._xfer_instance.get((file_id, node), 0)
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
            nxt = self._best_source(file_id, sources, floor, {}, tried)
            if nxt is None:
                tried.clear()  # every source tried: cycle through again
                nxt = self._best_source(file_id, sources, floor, {})
            if nxt is None:  # planned source unusable: dynamic fallback
                dynamic = self._sources(file_id, node, None)
                nxt = self._best_source(file_id, dynamic, floor, {})
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

    def _least_ect(
        self, pairs: Sequence[tuple[Task, int]], plan: StagingPlan | None
    ) -> _Tentative:
        """The least-ECT tentative of ``pairs``, the first one on ties.

        Pairs with the same node, ordered inputs and compute time are one
        class: :meth:`ect_bound` and :meth:`evaluate` read nothing else of
        a task but its id, which only tags the execution, so a class shares
        one bound and one ECT. Only each class's first pair is bounded and
        evaluated; the others, at later indices, cannot beat its
        ``(ect, index)`` key. The order of the inputs is part of the class
        because the min-TCT rule breaks ties in that order.

        Candidates are evaluated in ``(bound, index)`` order, and the search
        stops at the first whose key exceeds the best ``(ect, index)`` so
        far: every later candidate has a larger ECT, or an equal one at a
        later index. The result is what ``min`` over every evaluation
        returns.
        """
        self.candidates += len(pairs)
        first: dict[tuple[int, tuple[str, ...], float], int] = {}
        for i, (task, node) in enumerate(pairs):
            first.setdefault((node, task.files, task.compute_time), i)
        self.duplicates += len(pairs) - len(first)
        order = sorted((self.ect_bound(*pairs[i]), i) for i in first.values())
        best: _Tentative | None = None
        best_key = (float("inf"), len(pairs))
        for bound, i in order:
            if (bound, i) > best_key:
                break
            task, node = pairs[i]
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
        say) share one search. The memo is dropped when the round's pick is
        staged.
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
            # The sources do not change while the task is evaluated: only
            # the timelines do, and each round searches them afresh.
            remaining = {f: self._sources(f, node, plan) for f in missing}
            while remaining:
                pick: tuple[_Attempt, str] | None = None
                slots: dict[_SlotQuery, Seconds] = {}
                for f, sources in remaining.items():
                    opt = self._best_source(f, sources, clock, slots)
                    if opt is None:  # planned source unusable: dynamic fallback
                        opt = self._best_source(
                            f, self._sources(f, node, None), clock, slots
                        )
                    assert opt is not None  # the storage cluster never crashes
                    if pick is None or opt[0] < pick[0][0]:
                        pick = (opt, f)
                assert pick is not None
                opt, f = pick
                if self.faults is not None:
                    opt = self._retry_until_staged(
                        f, node, remaining[f], opt, failed_attempts, log
                    )
                tct, kind, src, start, duration, res = opt
                tag = f"xfer:{f}->{node}"
                for tl in res:
                    log.append((tl, tl.reserve(start, duration, tag)))
                transfers.append((f, kind, src, start, duration))
                transfers_done = max(transfers_done, tct)
                del remaining[f]

            # Execution: local read of all inputs plus CPU time, after every
            # input file is available. Runs on the node timeline (port + CPU
            # mutually exclusive, the paper's model) or on the dedicated CPU
            # timeline in overlap mode. Nothing after it searches a slot, so
            # it is recorded without being placed.
            exec_dur = self._exec_duration(task, node)
            exec_tl = (
                self.cpu_tl[node] if self.cpu_tl is not None else self.node_tl[node]
            )
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
                if self.trail is not None and self.state.carryover_active:
                    # Online sessions only: log every hit with its
                    # cross-batch attribution so the auditor's E8 replay
                    # can verify it; single-batch trails stay unchanged.
                    self.trail.record_cache_hit(node, f, size, carried)

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
            size = self.state.size_of(f)
            self.state.place(node, f, now=start + duration)
            self._avail[(node, f)] = start + duration
            cache.pin(f)
            if kind == "remote":
                self.state.record_remote(size)
            else:
                self.state.record_replication(size)
            if self.trail is not None:
                self.trail.record_transfer(
                    f, size, kind, src, node, start, start + duration
                )
        for f in tent.task.files:
            cache.touch(f, tent.ect)
        if self.trail is not None:
            self.trail.record_exec(
                tent.task.task_id, node, tuple(tent.task.files),
                tent.exec_start, tent.ect,
            )
        if self.probe is not None:
            self.probe.on_commit(self, tent)
        return TaskRecord(
            task_id=tent.task.task_id,
            node=node,
            transfers_done=tent.transfers_done,
            exec_start=tent.exec_start,
            completion=tent.ect,
        )

    def _commit_fault_accounting(self, tent: _Tentative) -> None:
        """Fold a committed task's fault history into stats and the trail.

        Runs at commit time only, so speculative evaluations never touch
        counters. Failed attempts are recorded before their file's
        successful transfer, preserving E7's "failure then recovery" order
        in the commit sequence.
        """
        faults = self.faults
        assert faults is not None
        node = tent.node
        for f, _kind, _src, _start, _duration in tent.transfers:
            self._xfer_instance[(f, node)] = (
                self._xfer_instance.get((f, node), 0) + 1
            )
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
            if self.trail is not None:
                for file_id, size, kind, src, start, end, attempt in fails:
                    self.trail.record_failed_transfer(
                        file_id, size, kind, src, node, start, end, attempt
                    )
            if self.probe is not None:
                self.probe.on_retry(node, f, fails[0][4], len(fails))

    def on_evict(self, node: int, file_id: str) -> None:
        """Record that ``file_id`` was evicted from ``node``'s disk.

        The cache has already dropped the entry; this mirrors the global
        holder map, availability table and statistics, the audit trail and
        the probe. The driver's between-sub-batch eviction reports through
        it too.
        """
        if self.trail is not None:
            self.trail.record_eviction(node, file_id, self.state.size_of(file_id))
        self.state.note_evicted(node, file_id)
        self._avail.pop((node, file_id), None)
        if self.probe is not None:
            self.probe.on_evict(node, self.state.size_of(file_id))

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
        if self.trail is not None:
            self.trail.record_crash(node, time, tuple(lost))
        if self.probe is not None:
            self.probe.on_crash(node, time, len(lost))

    def _apply_timed_faults(
        self, victim_order: Callable[[int, Iterable[str]], list[str]]
    ) -> None:
        """Inject faults whose simulated time has already passed.

        Called at every :meth:`execute` entry: crashes and disk losses
        scheduled before the current clock take effect between sub-batches
        (mid-sub-batch crashes are caught by the commit-time guard in the
        main loop instead).
        """
        faults = self.faults
        assert faults is not None
        for idx, loss in enumerate(faults.spec.disk_losses):
            # Applied-loss dedup lives on the fault model, not the runtime:
            # online sessions share one model across per-batch runtimes, so
            # each injected loss shrinks a disk exactly once per stream.
            if idx in faults.applied_disk_losses or loss.time > self.clock:
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
        size = self.state.size_of(file_id)
        cache = self.state.caches[dest]
        try:
            cache.ensure_space(
                size,
                victim_order=lambda cands: victim_order(dest, cands),
                on_evict=lambda fid: self.on_evict(dest, fid),
            )
        except CacheFullError:
            return  # skip the push rather than fail the run
        sources = self._sources(file_id, dest, None)
        best = self._best_source(file_id, sources, self.clock, {})
        assert best is not None  # the storage cluster never crashes
        tct, kind, src, start, duration, res = best
        if self.faults is not None and tct > self.faults.crash_time(dest):
            return  # push would outlive the destination: skip it
        for tl in res:
            tl.reserve(start, duration, tag=f"push:{file_id}->{dest}")
        self.state.place(dest, file_id, now=tct)
        self._avail[(dest, file_id)] = tct
        if kind == "remote":
            self.state.record_remote(size)
        else:
            self.state.record_replication(size)
        if self.trail is not None:
            self.trail.record_transfer(
                file_id, size, kind, src, dest, start, tct, push=True
            )
        if self.probe is not None:
            self.probe.on_push(self, dest, kind, src, start, tct)

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
        failed: list[str] = []
        if self.faults is not None:
            self._apply_timed_faults(victim_order)
        for t in tasks:
            if t.task_id not in mapping:
                raise ValueError(f"task {t.task_id} missing from mapping")
            n = mapping[t.task_id]
            if not 0 <= n < self.platform.num_compute:
                raise ValueError(f"task {t.task_id} mapped to bad node {n}")
        self._ready_count = len(tasks)

        if plan is not None:
            for file_id, dest in plan.pushes:
                self._stage_push(file_id, dest, victim_order)

        groups: dict[int, list[Task]] = {}
        for t in tasks:
            groups.setdefault(mapping[t.task_id], []).append(t)

        if self.faults is not None:
            # Tasks mapped onto an already-dead node cannot run at all;
            # hand them straight back to the driver for rescheduling.
            for node in [n for n in groups if n in self.state.dead_nodes]:
                failed.extend(t.task_id for t in groups.pop(node))
        self._ready_count = sum(len(g) for g in groups.values())

        base_stats = replace(self.state.stats)

        records: list[TaskRecord] = []
        events: list[tuple[float, int, int, Task]] = []  # (ect, seq, node, task)
        seq = 0

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
            nonlocal seq
            node = tent.node
            if self.faults is not None and tent.ect > self.faults.crash_time(node):
                # The node dies before its next-best task could complete:
                # declare it crashed now. Everything already committed here
                # finished before the crash instant (each commit passed this
                # same guard), so E6 holds; the unfinished remainder of the
                # group goes back to the driver's pending pool.
                self._kill_node(node, self.faults.crash_time(node))
                dropped = groups.pop(node)
                failed.extend(t.task_id for t in dropped)
                self._ready_count -= len(dropped)
                return
            groups[node].remove(tent.task)
            self._ready_count -= 1
            if not groups[node]:
                del groups[node]
            records.append(self._commit(tent, victim_order))
            heapq.heappush(events, (tent.ect, seq, node, tent.task))
            seq += 1

        # Initial commits: globally best first, then each remaining group's
        # best in ECT order (re-evaluated after every commit). Ties go to
        # the first node in iteration order.
        uncommitted = set(groups)
        while uncommitted:
            tent = self._least_ect(
                [(t, node) for node in uncommitted for t in candidates(node)],
                plan,
            )
            commit(tent)
            uncommitted.discard(tent.node)
            uncommitted &= set(groups)

        # Event loop: when a task completes, schedule that group's next task.
        makespan = start_time
        while events:
            ect, _, node, task = heapq.heappop(events)
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
            stats=self.state.stats.minus(base_stats),
            failed_tasks=failed,
        )
