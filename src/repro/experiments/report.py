"""ASCII-table / CSV reporting for experiment results."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from collections.abc import Sequence
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..core.plan import BatchResult

__all__ = ["Record", "Table"]


@dataclass(frozen=True)
class Record:
    """One experiment data point (a bar or curve point in a paper figure)."""

    experiment: str
    workload: str
    scheme: str
    x: float | str  # overlap level, batch size, node count, ...
    makespan_s: float
    scheduling_ms_per_task: float = 0.0
    remote_transfers: int = 0
    remote_volume_mb: float = 0.0
    replications: int = 0
    replication_volume_mb: float = 0.0
    evictions: int = 0
    sub_batches: int = 1

    @classmethod
    def from_result(
        cls,
        result: BatchResult,
        *,
        experiment: str,
        workload: str,
        scheme: str,
        x: float | str,
    ) -> Record:
        """Summarise one run under the given labels."""
        stats = result.stats
        return cls(
            experiment=experiment,
            workload=workload,
            scheme=scheme,
            x=x,
            makespan_s=result.makespan,
            scheduling_ms_per_task=result.scheduling_ms_per_task,
            remote_transfers=stats.remote_transfers,
            remote_volume_mb=stats.remote_volume_mb,
            replications=stats.replications,
            replication_volume_mb=stats.replication_volume_mb,
            evictions=stats.evictions,
            sub_batches=result.num_sub_batches,
        )


@dataclass
class Table:
    """A printable result table, one row per record."""

    title: str
    records: list[Record] = field(default_factory=list)

    def add(self, record: Record):
        self.records.append(record)

    def rows(self, columns: Sequence[str]) -> list[list[str]]:
        out = []
        for r in self.records:
            row = []
            for col in columns:
                v = getattr(r, col)
                row.append(f"{v:.2f}" if isinstance(v, float) else str(v))
            out.append(row)
        return out

    def render(
        self,
        columns: Sequence[str] = (
            "workload",
            "scheme",
            "x",
            "makespan_s",
            "scheduling_ms_per_task",
            "remote_transfers",
            "replications",
            "evictions",
        ),
    ) -> str:
        header = list(columns)
        rows = self.rows(columns)
        widths = [
            max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
            for i in range(len(header))
        ]
        sep = "-+-".join("-" * w for w in widths)
        lines = [
            self.title,
            " | ".join(h.ljust(w) for h, w in zip(header, widths, strict=True)),
            sep,
        ]
        for r in rows:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(r, widths, strict=True)))
        return "\n".join(lines)

    def to_csv(
        self, columns: Sequence[str] = tuple(f.name for f in fields(Record))
    ) -> str:
        lines = [",".join(columns)]
        for row in self.rows(columns):
            lines.append(",".join(row))
        return "\n".join(lines)
