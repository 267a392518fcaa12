"""Scheduling plan and result types shared by all schedulers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..analysis.dims import Count, Milliseconds, Seconds

from ..cluster.runtime import StagingPlan
from ..cluster.state import TransferStats
from ..cluster.stats import ExecutionResult

if TYPE_CHECKING:  # pragma: no cover
    from typing import Any

    from ..analysis.audit import AuditReport
    from ..cluster.runtime import Runtime
    from ..faults import FaultStats
    from ..obs.decisions import DecisionLog
    from ..obs.metrics import RunMetrics

__all__ = ["SubBatchPlan", "SubBatchResult", "BatchResult"]


@dataclass
class SubBatchPlan:
    """One sub-batch ready for execution.

    ``mapping`` sends each task id to a compute node. ``staging`` optionally
    fixes transfer sources (IP) or requests proactive pushes (JDP+DLL);
    ``None`` leaves all staging decisions to the dynamic Section 6 runtime.
    """

    task_ids: list[str]
    mapping: dict[str, int]
    staging: StagingPlan | None = None

    def __post_init__(self) -> None:
        missing = [t for t in self.task_ids if t not in self.mapping]
        if missing:
            raise ValueError(f"tasks without node assignment: {missing[:5]}")


@dataclass
class SubBatchResult:
    """Execution outcome of one sub-batch plus its scheduling cost."""

    plan: SubBatchPlan
    execution: ExecutionResult
    scheduling_seconds: Seconds


@dataclass
class BatchResult:
    """End-to-end result of running a batch under one scheduler."""

    scheduler: str
    makespan: Seconds
    scheduling_seconds: Seconds
    sub_batches: list[SubBatchResult] = field(default_factory=list)
    stats: TransferStats = field(default_factory=TransferStats)
    # Filled by run_batch(audit=True): the execution-invariant audit.
    audit_report: AuditReport | None = None
    # Filled by run_batch(telemetry=True): the derived resource metrics
    # (repro.obs.metrics), the scheduler decision log when the scheme emits
    # one, and the telemetry registry snapshot.
    metrics: RunMetrics | None = None
    decision_log: DecisionLog | None = None
    telemetry: dict[str, Any] | None = None
    # Filled by every run_batch call: the executed runtime (for Gantt
    # charts, trace export and further post-hoc analysis).
    runtime: Runtime | None = None
    # Filled by run_batch(faults=...): injected/recovered fault accounting.
    fault_stats: FaultStats | None = None
    # Filled by run_batch(timeseries=...): the simulated-time series block
    # (repro.obs.timeseries), already in its manifest/JSON dict form.
    timeseries: dict[str, Any] | None = None

    @property
    def num_sub_batches(self) -> Count:
        return len(self.sub_batches)

    @property
    def num_tasks(self) -> Count:
        return sum(len(sb.plan.task_ids) for sb in self.sub_batches)

    @property
    def scheduling_ms_per_task(self) -> Milliseconds:
        """Per-task scheduling overhead in milliseconds (Fig. 6b's metric)."""
        n = self.num_tasks
        return 1000.0 * self.scheduling_seconds / n if n else 0.0

    def summary(self) -> str:
        return (
            f"{self.scheduler}: makespan {self.makespan:.1f}s over "
            f"{self.num_tasks} tasks in {self.num_sub_batches} sub-batch(es); "
            f"remote {self.stats.remote_transfers} "
            f"({self.stats.remote_volume_mb:.0f} MB), "
            f"replications {self.stats.replications} "
            f"({self.stats.replication_volume_mb:.0f} MB), "
            f"evictions {self.stats.evictions}; "
            f"scheduling {self.scheduling_ms_per_task:.2f} ms/task"
        )
