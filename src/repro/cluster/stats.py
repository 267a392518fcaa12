"""Execution result records produced by the runtime engine."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.dims import Seconds

__all__ = ["TaskRecord", "ExecutionResult"]


@dataclass(frozen=True)
class TaskRecord:
    """Timing of one executed task."""

    task_id: str
    node: int
    transfers_done: Seconds  # when the last input file became available
    exec_start: Seconds
    completion: Seconds


@dataclass
class ExecutionResult:
    """Outcome of executing one sub-batch through the runtime engine."""

    start_time: Seconds
    makespan: Seconds  # absolute completion time of the last task
    records: list[TaskRecord] = field(default_factory=list)
    # Tasks whose node crashed before they could run (fault injection);
    # the driver returns them to the pending pool and reschedules.
    failed_tasks: list[str] = field(default_factory=list)

    @property
    def completion_order(self) -> list[str]:
        return [r.task_id for r in sorted(self.records, key=lambda r: r.completion)]
