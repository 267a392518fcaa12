"""Post-hoc verification of executed Gantt traces (``repro audit``).

:func:`repro.core.validate.validate_plan` oracles *plans*; this module
oracles *executions*.  Schedulers and the Section 6 runtime are trusted at
run time, so a bug in replaying tentative reservations, cache mirroring or
transfer source selection would silently produce traces that break the
paper's cost model.
The auditor re-derives the execution-time invariants from the recorded
timelines and the commit-ordered :class:`~repro.cluster.events.EventLog`
and reports every breach:

E1. no two busy intervals overlap on any resource timeline — the
    single-port model (Section 2; every transfer serialises on both of its
    endpoints, Eq. 12);
E2. every input file of a task is staged (transfer completed) or already
    resident before the task's execution starts;
E3. per-node disk occupancy never exceeds the disk's capacity, replayed
    in commit order over transfers, evictions and disk losses from the
    log's snapshot of each disk (Eq. 16/21);
E4. staging never overlaps execution on the same node (the paper's
    non-overlap assumption; skipped when the runtime deliberately relaxes
    it with ``overlap_io_compute=True``);
E5. reported :class:`~repro.cluster.stats.TaskRecord` timings are
    consistent with the trace (matching reserved exec interval,
    ``transfers_done <= exec_start <= completion``);
E6. no activity on a compute node after its injected crash time — no
    busy interval on its timeline, no transfer from or to it, and no
    execution (fault injection, ``docs/faults.md``);
E7. every injected transfer failure is recovered: a later successful
    transfer delivers the same file to the same node, or the node itself
    crashed (its unfinished tasks were rescheduled elsewhere);
E8. cross-batch cache-hit attribution is exact: a hit counted as
    cross-batch consumed a copy resident since the prior batch's commit
    (held at batch start, neither evicted, crashed away nor re-staged in
    between), and every hit on such a copy *is* counted cross-batch
    (online multi-batch sessions, ``docs/online.md``; skipped when the
    log carries no cache-hit events).

Use :func:`repro.core.driver.run_batch` with ``audit=True`` to execute a
batch with the event log enabled and fail fast on any violation; the test
suite uses the same path as an oracle over randomized workloads.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..cluster.events import (
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
from ..cluster.gantt import Interval, Timeline

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.runtime import Runtime
    from ..cluster.stats import ExecutionResult

__all__ = ["AuditError", "AuditViolation", "AuditReport", "audit_runtime"]

#: Audit tolerance on simulated times — coarser than the Gantt chart's
#: internal epsilon so float accumulation over long traces cannot produce
#: spurious violations.
AUDIT_EPS = 1e-6


class AuditError(RuntimeError):
    """Raised when an executed trace violates an execution invariant."""


@dataclass(frozen=True)
class AuditViolation:
    """One broken execution invariant."""

    code: str
    message: str

    def __str__(self) -> str:
        return f"[{self.code}] {self.message}"


@dataclass
class AuditReport:
    """All violations found in an executed trace (empty = clean)."""

    violations: list[AuditViolation] = field(default_factory=list)
    checked_events: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, code: str, message: str) -> None:
        self.violations.append(AuditViolation(code, message))

    def raise_if_violations(self) -> None:
        if not self.ok:
            summary = "; ".join(str(v) for v in self.violations[:5])
            raise AuditError(
                f"executed trace violates {len(self.violations)} "
                f"invariant(s): {summary}"
            )

    def __str__(self) -> str:
        return "\n".join(str(v) for v in self.violations) or "OK"


def _audit_timelines(timelines: Iterable[Timeline], report: AuditReport) -> None:
    """E1 — busy intervals on every resource are pairwise disjoint."""
    for tl in timelines:
        ivs = sorted(tl.intervals, key=lambda iv: (iv.start, iv.end))
        for prev, cur in zip(ivs, ivs[1:], strict=False):
            if prev.end > cur.start + AUDIT_EPS:
                report.add(
                    "E1",
                    f"resource {tl.name!r}: interval {prev.tag!r} "
                    f"[{prev.start:.3f}, {prev.end:.3f}) overlaps "
                    f"{cur.tag!r} [{cur.start:.3f}, {cur.end:.3f}) — "
                    "single-port model broken",
                )


def _audit_staging_before_exec(
    log: EventLog,
    transfers: list[TransferEvent],
    execs: list[ExecEvent],
    report: AuditReport,
) -> None:
    """E2 — every consumed file arrives before its task starts executing."""
    first_arrival: dict[tuple[int, str], float] = {}
    for tr in transfers:
        key = (tr.dest, tr.file_id)
        if key not in first_arrival or tr.end < first_arrival[key]:
            first_arrival[key] = tr.end
    for ev in execs:
        initial = log.initial_holdings.get(ev.node, {})
        for f in ev.files:
            if f in initial:
                continue
            arrived = first_arrival.get((ev.node, f))
            if arrived is None:
                report.add(
                    "E2",
                    f"task {ev.task_id} on node {ev.node} consumed {f} "
                    "but no transfer ever delivered it",
                )
            elif arrived > ev.start + AUDIT_EPS:
                report.add(
                    "E2",
                    f"task {ev.task_id} on node {ev.node} started at "
                    f"{ev.start:.3f} but input {f} only arrived at "
                    f"{arrived:.3f}",
                )


def _audit_disk_occupancy(log: EventLog, report: AuditReport) -> None:
    """E3 — replay transfers, evictions and disk losses; occupancy never
    exceeds the capacity left."""
    resident: dict[int, dict[str, float]] = {
        node: dict(files) for node, files in log.initial_holdings.items()
    }
    capacity = list(log.initial_capacity_mb)
    flagged: set[int] = set()

    def check(node: int, after: str) -> None:
        used = sum(resident.get(node, {}).values())
        if used > capacity[node] + AUDIT_EPS and node not in flagged:
            flagged.add(node)
            report.add(
                "E3",
                f"node {node} holds {used:.1f} MB after {after} but its "
                f"disk is {capacity[node]:.1f} MB",
            )

    for event in log.events:
        if isinstance(event, TransferEvent):
            resident.setdefault(event.dest, {})[event.file_id] = event.size_mb
            check(event.dest, f"staging {event.file_id}")
        elif isinstance(event, DiskLossEvent):
            # The same arithmetic as ``DiskCache.shrink``.
            capacity[event.node] = max(capacity[event.node] - event.lost_mb, 0.0)
            check(event.node, f"losing {event.lost_mb:.1f} MB of disk")
        elif isinstance(event, EvictionEvent):
            node_files = resident.setdefault(event.node, {})
            if node_files.pop(event.file_id, None) is None:
                report.add(
                    "E3",
                    f"eviction of {event.file_id} from node {event.node} "
                    "but the log never staged it there",
                )
        elif isinstance(event, CrashEvent):
            # The node's disk is gone; everything it held vanishes from the
            # replayed occupancy (without eviction bookkeeping).
            resident.pop(event.node, None)


def _audit_no_staging_during_exec(
    runtime: Runtime, report: AuditReport
) -> None:
    """E4 — no transfer onto a node while a task executes there."""
    if runtime.overlap_io_compute:
        return  # the ablation mode deliberately relaxes this invariant
    for node in range(runtime.platform.num_compute):
        port_ivs = runtime.node_tl[node].intervals
        execs = [iv for iv in runtime.exec_tl[node].intervals
                 if iv.tag.startswith("exec:")]
        staging = [iv for iv in port_ivs
                   if iv.tag.startswith(("xfer:", "push:", "xfail:"))]
        for ex in execs:
            for st in staging:
                if st.start < ex.end - AUDIT_EPS and st.end > ex.start + AUDIT_EPS:
                    report.add(
                        "E4",
                        f"node {node}: staging {st.tag!r} "
                        f"[{st.start:.3f}, {st.end:.3f}) overlaps execution "
                        f"{ex.tag!r} [{ex.start:.3f}, {ex.end:.3f})",
                    )


def _exec_intervals_by_task(
    runtime: Runtime, execs: list[ExecEvent]
) -> dict[str, list[Interval]]:
    by_task: dict[str, list[Interval]] = {}
    nodes = {ev.node for ev in execs}
    for node in nodes:
        for iv in runtime.exec_tl[node].intervals:
            if iv.tag.startswith("exec:"):
                by_task.setdefault(iv.tag[len("exec:"):], []).append(iv)
    return by_task


def _audit_records(
    runtime: Runtime,
    execs: list[ExecEvent],
    results: Iterable[ExecutionResult],
    report: AuditReport,
) -> None:
    """E5 — reported task records agree with the trace."""
    by_task = _exec_intervals_by_task(runtime, execs)
    events = {ev.task_id: ev for ev in execs}
    for result in results:
        for rec in result.records:
            ev = events.get(rec.task_id)
            if ev is None:
                report.add(
                    "E5",
                    f"record for task {rec.task_id} has no matching "
                    "execution event in the log",
                )
                continue
            reserved = any(
                abs(iv.start - rec.exec_start) <= AUDIT_EPS
                and abs(iv.end - rec.completion) <= AUDIT_EPS
                for iv in by_task.get(rec.task_id, [])
            )
            if not reserved:
                report.add(
                    "E5",
                    f"task {rec.task_id}: no reserved exec interval matches "
                    f"its record [{rec.exec_start:.3f}, {rec.completion:.3f})",
                )
            if rec.transfers_done > rec.exec_start + AUDIT_EPS:
                report.add(
                    "E5",
                    f"task {rec.task_id}: transfers_done "
                    f"{rec.transfers_done:.3f} after exec_start "
                    f"{rec.exec_start:.3f}",
                )
            if rec.completion < rec.exec_start - AUDIT_EPS:
                report.add(
                    "E5",
                    f"task {rec.task_id}: completion {rec.completion:.3f} "
                    f"before exec_start {rec.exec_start:.3f}",
                )


def _audit_node_crashes(
    runtime: Runtime,
    transfers: list[TransferEvent],
    execs: list[ExecEvent],
    report: AuditReport,
) -> None:
    """E6 — nothing touches a compute node after its injected crash time."""
    if runtime.faults is None:
        return
    crash_times = {
        node: runtime.faults.crash_time(node)
        for node in range(runtime.platform.num_compute)
    }
    for node, crash_at in crash_times.items():
        if crash_at == float("inf"):
            continue
        # Its port and execution timelines, each once.
        node_tls = (runtime.node_tl[node], runtime.exec_tl[node])
        for tl in dict.fromkeys(node_tls):
            for iv in tl.intervals:
                if iv.end > crash_at + AUDIT_EPS:
                    report.add(
                        "E6",
                        f"node {node} crashed at {crash_at:.3f} but "
                        f"{iv.tag!r} occupies [{iv.start:.3f}, {iv.end:.3f}) "
                        "on its timeline",
                    )
    for tr in transfers:
        for endpoint in (tr.dest, tr.source_node):
            if endpoint is None:
                continue
            crash_at = crash_times.get(endpoint, float("inf"))
            if tr.end > crash_at + AUDIT_EPS:
                report.add(
                    "E6",
                    f"transfer of {tr.file_id} touching node {endpoint} ends "
                    f"at {tr.end:.3f}, after its crash at {crash_at:.3f}",
                )
    for ev in execs:
        crash_at = crash_times.get(ev.node, float("inf"))
        if ev.end > crash_at + AUDIT_EPS:
            report.add(
                "E6",
                f"task {ev.task_id} on node {ev.node} ends at {ev.end:.3f}, "
                f"after the node's crash at {crash_at:.3f}",
            )


def _audit_failed_transfers(
    runtime: Runtime, log: EventLog, report: AuditReport
) -> None:
    """E7 — every injected transfer failure is retried to success."""
    if runtime.faults is None:
        return  # no fault model, no injected failures
    crashed: set[int] = set()
    # (file, dest) -> log position of its last successful transfer
    recovered: dict[tuple[str, int], int] = {}
    failures: list[tuple[int, FailedTransferEvent]] = []
    for pos, event in enumerate(log.events):
        if isinstance(event, TransferEvent):
            recovered[(event.file_id, event.dest)] = pos
        elif isinstance(event, FailedTransferEvent):
            failures.append((pos, event))
        elif isinstance(event, CrashEvent):
            crashed.add(event.node)
    for pos, fail in failures:
        if fail.dest in crashed:
            continue  # the destination died; its tasks were rescheduled
        success = recovered.get((fail.file_id, fail.dest))
        if success is None or success < pos:
            report.add(
                "E7",
                f"transfer of {fail.file_id} to node {fail.dest} failed "
                f"(attempt {fail.attempt}) and was never retried to success",
            )


def _audit_cross_batch(log: EventLog, report: AuditReport) -> None:
    """E8 — cross-batch hit attribution matches the replayed residency.

    Replays the commit-ordered log maintaining the set of copies resident
    *continuously* since the batch started (the prior batch's committed
    contents, per ``initial_holdings``): an eviction, a crash or a re-stage
    of the pair removes it. Every cache-hit event must agree with the set —
    counted cross-batch iff the consumed copy is still in it.
    """
    if not any(isinstance(e, CacheHitEvent) for e in log.events):
        return  # not an online session: nothing was attributed
    resident: set[tuple[int, str]] = {
        (node, f)
        for node, files in log.initial_holdings.items()
        for f in files
    }
    for event in log.events:
        if isinstance(event, CacheHitEvent):
            key = (event.node, event.file_id)
            if event.cross_batch and key not in resident:
                report.add(
                    "E8",
                    f"hit on {event.file_id} at node {event.node} counted "
                    "as cross-batch but the copy was not resident since "
                    "the prior batch's commit",
                )
            elif not event.cross_batch and key in resident:
                report.add(
                    "E8",
                    f"hit on {event.file_id} at node {event.node} consumed "
                    "a copy carried from the prior batch but was not "
                    "counted as cross-batch",
                )
        elif isinstance(event, EvictionEvent):
            resident.discard((event.node, event.file_id))
        elif isinstance(event, TransferEvent):
            # A re-staged copy is fresh, not carried (only possible after
            # the carried copy left; kept for defence in depth).
            resident.discard((event.dest, event.file_id))
        elif isinstance(event, CrashEvent):
            resident = {(n, f) for n, f in resident if n != event.node}


def audit_runtime(
    runtime: Runtime,
    results: Sequence[ExecutionResult] | None = None,
) -> AuditReport:
    """Verify an executed runtime's trace; returns the full report.

    The runtime must have been constructed with ``events=True`` so the
    commit-ordered :class:`~repro.cluster.events.EventLog` exists; pass
    the per-sub-batch :class:`~repro.cluster.stats.ExecutionResult` values
    to additionally cross-check the reported records (E5).
    ``checked_events`` counts every logged event but the sub-batch markers.
    """
    log = runtime.events
    if log is None:
        raise ValueError(
            "runtime has no event log; construct it with events=True"
        )
    transfers = [e for e in log.events if isinstance(e, TransferEvent)]
    execs = [e for e in log.events if isinstance(e, ExecEvent)]
    report = AuditReport()
    _audit_timelines(runtime.timelines(), report)
    _audit_staging_before_exec(log, transfers, execs, report)
    _audit_disk_occupancy(log, report)
    _audit_no_staging_during_exec(runtime, report)
    _audit_node_crashes(runtime, transfers, execs, report)
    _audit_failed_transfers(runtime, log, report)
    _audit_cross_batch(log, report)
    if results is not None:
        _audit_records(runtime, execs, results, report)
    report.checked_events = sum(
        1 for e in log.events if not isinstance(e, SubBatchEvent)
    )
    return report
