"""Commit-ordered event log of one runtime's execution.

The Gantt timelines alone cannot answer every post-hoc question — evictions
are instantaneous cache decisions with no busy interval, and an interval's
tag does not say which task consumed a transferred file.  When a
:class:`~repro.cluster.runtime.Runtime` is constructed with ``events=True``
it appends one event here per sub-batch start, committed transfer, push,
failed attempt, execution, eviction, crash and disk loss, in *commit order*
(the causal order of cache mutations).  Two readers fold this one list: the
schedule auditor (:mod:`repro.analysis.audit`) replays it against the
timelines to re-verify the paper's execution-time invariants, and
:class:`~repro.obs.timeseries.TimeSeriesProbe` samples it into the
manifest's time series.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Union

from .state import ClusterState, TransferStats

__all__ = [
    "SubBatchEvent",
    "TransferEvent",
    "FailedTransferEvent",
    "ExecEvent",
    "EvictionEvent",
    "CrashEvent",
    "DiskLossEvent",
    "CacheHitEvent",
    "Event",
    "EventLog",
]


@dataclass(frozen=True)
class SubBatchEvent:
    """The start of one sub-batch (one :meth:`Runtime.execute` call).

    ``ready[n]`` is the number of tasks mapped to compute node ``n`` once
    the tasks on already-dead nodes are dropped.
    """

    time: float
    ready: tuple[int, ...]


@dataclass(frozen=True)
class TransferEvent:
    """One committed file transfer onto a compute node.

    ``kind`` is ``"remote"`` or ``"replica"``; ``push`` marks proactive
    staging (DLL) as opposed to on-demand staging for a committed task.
    """

    file_id: str
    size_mb: float
    kind: str
    source_node: int | None
    dest: int
    start: float
    duration: float
    push: bool = False

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class FailedTransferEvent:
    """One injected transfer failure (fault model), before any retry.

    The failed attempt still occupied ``[start, end)`` on its resources
    (tagged ``xfail:``); ``attempt`` counts from 0 within one staging
    session. The auditor's E7 invariant checks every failed attempt is
    followed by a successful transfer of the same file to the same node.
    """

    file_id: str
    size_mb: float
    kind: str
    source_node: int | None
    dest: int
    start: float
    end: float
    attempt: int = 0


@dataclass(frozen=True)
class ExecEvent:
    """One committed task execution with the input files it consumed."""

    task_id: str
    node: int
    files: tuple[str, ...]
    start: float
    end: float


@dataclass(frozen=True)
class EvictionEvent:
    """One file dropped from a node's disk cache to make room."""

    node: int
    file_id: str
    size_mb: float


@dataclass(frozen=True)
class CacheHitEvent:
    """One task input served from a node's disk cache (no transfer).

    Recorded only while the cluster state's cross-batch carryover tracking
    is armed (online multi-batch sessions, :mod:`repro.online`), keeping
    single-batch logs unchanged. ``cross_batch`` marks hits the state
    attributed to a copy resident since the prior batch boundary; the
    auditor's E8 invariant replays the log to verify that attribution.
    """

    node: int
    file_id: str
    size_mb: float
    cross_batch: bool


@dataclass(frozen=True)
class CrashEvent:
    """A compute node's permanent failure (fault model).

    ``lost_files`` lists the ``(file_id, size_mb)`` cache contents dropped
    with the node, in the order they were dropped; the auditor clears the
    node's replayed disk occupancy here and E6 rejects any later activity
    touching the node.
    """

    node: int
    time: float
    lost_files: tuple[tuple[str, float], ...] = ()


@dataclass(frozen=True)
class DiskLossEvent:
    """An applied disk loss (fault model): ``node``'s disk cache lost
    ``lost_mb`` of capacity at ``time``, on the batch's clock.

    Logged after the evictions the loss forced, so the auditor's E3 replay
    holds the node to the capacity left from here on.
    """

    node: int
    time: float
    lost_mb: float


Event = Union[
    SubBatchEvent,
    TransferEvent,
    FailedTransferEvent,
    ExecEvent,
    EvictionEvent,
    CacheHitEvent,
    CrashEvent,
    DiskLossEvent,
]


@dataclass
class EventLog:
    """Commit-ordered events of one runtime's whole batch execution.

    A list index is the event's commit position. The snapshot fields
    describe the cluster when the runtime was built: the files already
    cached per node (with their sizes), each disk's ``used_mb`` and
    ``capacity_mb`` and the cumulative
    :class:`~repro.cluster.state.TransferStats`. The holdings, occupancy
    and statistics are empty or zero unless an online session starts the
    batch on a warm cluster; the capacities are below the platform's only
    after a disk loss.
    """

    events: list[Event] = field(default_factory=list)
    initial_holdings: dict[int, dict[str, float]] = field(default_factory=dict)
    initial_used_mb: tuple[float, ...] = ()
    initial_capacity_mb: tuple[float, ...] = ()
    initial_stats: TransferStats = field(default_factory=TransferStats)

    @classmethod
    def of(cls, state: ClusterState) -> EventLog:
        """An empty log with a snapshot of ``state``."""
        return cls(
            initial_holdings={
                n: {f: state.size_of(f) for f in cache.files}
                for n, cache in enumerate(state.caches)
                if cache.files
            },
            initial_used_mb=tuple(cache.used_mb for cache in state.caches),
            initial_capacity_mb=tuple(cache.capacity_mb for cache in state.caches),
            initial_stats=replace(state.stats),
        )

    def append(self, event: Event) -> None:
        self.events.append(event)
