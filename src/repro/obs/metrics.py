"""Paper-facing metrics derived from an executed runtime's Gantt charts.

Everything the paper uses to *explain* its results (Sections 6–8) but that a
bare makespan cannot show, computed post-hoc from a
:class:`~repro.cluster.runtime.Runtime`'s timelines and transfer statistics:

* **per-node compute utilization** — execution busy time over the makespan
  (the compute term of the resource accounting in Eqs. 9–11);
* **port busy fraction** — fraction of the makespan each single-port
  resource (compute ports, storage nodes, the shared link) spends busy, the
  contention quantity Eqs. 12–13 bound;
* **idle-gap histogram** — distribution of idle stretches on the compute
  nodes (where a better schedule could still pack work);
* **transfer ratios** — the disk-cache hit ratio, the file *reuse factor*
  (bytes consumed per byte staged) that replication is meant to maximize,
  and the replicated share of the staged bytes; the counters they derive
  from are the run's :class:`~repro.cluster.state.TransferStats`, which the
  manifest carries once, as its ``stats`` block;
* **byte conservation** — every staged megabyte is either still resident on
  a disk cache or was evicted (``residual ≈ 0``), a cross-check of the
  cache bookkeeping.

:func:`compute_metrics` returns a :class:`RunMetrics`; its
:func:`dataclasses.asdict` form is the run manifest's ``metrics`` block
(:mod:`repro.obs.export`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..cluster.trace import TraceEvent

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.gantt import Timeline
    from ..cluster.runtime import Runtime
    from ..cluster.state import ClusterState

__all__ = [
    "IDLE_GAP_BUCKETS",
    "RunMetrics",
    "compute_metrics",
    "conservation_residual_mb",
]

#: Upper edges (seconds) of the idle-gap histogram buckets; the last bucket
#: is open-ended. Chosen to span sub-second scheduling slack up to the
#: multi-minute starvation gaps disk pressure produces in Fig. 5(b).
IDLE_GAP_BUCKETS: tuple[float, ...] = (0.1, 1.0, 10.0, 100.0)

_EPS = 1e-9


def _bucket_label(i: int) -> str:
    if i == 0:
        return f"<{IDLE_GAP_BUCKETS[0]:g}s"
    if i == len(IDLE_GAP_BUCKETS):
        return f">={IDLE_GAP_BUCKETS[-1]:g}s"
    return f"{IDLE_GAP_BUCKETS[i - 1]:g}-{IDLE_GAP_BUCKETS[i]:g}s"


def _bucket_of(gap: float) -> str:
    for i, edge in enumerate(IDLE_GAP_BUCKETS):
        if gap < edge:
            return _bucket_label(i)
    return _bucket_label(len(IDLE_GAP_BUCKETS))


@dataclass
class RunMetrics:
    """Derived metrics of one executed batch run (JSON-ready)."""

    makespan_s: float
    # Compute-side utilization (exec intervals only), per node and averaged.
    node_exec_utilization: dict[str, float] = field(default_factory=dict)
    mean_exec_utilization: float = 0.0
    # Busy fraction of every single-port resource (any interval kind).
    port_busy_fraction: dict[str, float] = field(default_factory=dict)
    # Histogram of idle gaps on the compute-node timelines.
    idle_gap_histogram: dict[str, int] = field(default_factory=dict)
    # Ratios of the run's transfer statistics.
    disk_hit_ratio: float = 0.0  # hits / (hits + transfers)
    file_reuse_factor: float = 1.0  # bytes consumed / bytes staged
    replicated_fraction: float = 0.0  # replicated bytes / staged bytes
    conservation_residual_mb: float = 0.0  # staged - resident - evicted


def conservation_residual_mb(state: ClusterState) -> float:
    """Staged bytes minus (still-resident + evicted) bytes — should be ~0.

    Every megabyte that ever arrived on a compute disk (remote transfer or
    replication) must either still be resident in some node's cache or have
    been evicted; a non-zero residual means the cache bookkeeping leaked.
    Assumes the run started with empty compute disks (the paper's setup).
    """
    staged = state.stats.remote_volume_mb + state.stats.replication_volume_mb
    resident = sum(cache.used_mb for cache in state.caches)
    return staged - resident - state.stats.evicted_volume_mb


def _idle_gaps(tl: Timeline, start: float, end: float) -> list[float]:
    """Idle stretches on ``tl`` within ``[start, end]``, including edges."""
    gaps: list[float] = []
    cursor = start
    for iv in tl.intervals:
        if iv.start > cursor + _EPS:
            gaps.append(iv.start - cursor)
        cursor = max(cursor, iv.end)
    if end > cursor + _EPS:
        gaps.append(end - cursor)
    return gaps


def compute_metrics(runtime: Runtime) -> RunMetrics:
    """Derive :class:`RunMetrics` from an executed runtime."""
    makespan = max(runtime.clock, *(tl.horizon for tl in runtime.node_tl), 0.0)
    m = RunMetrics(makespan_s=makespan)
    horizon = makespan if makespan > _EPS else 1.0

    exec_busy = {
        port.name: sum(
            iv.duration
            for iv in tl.intervals
            if TraceEvent(tl.name, iv.start, iv.end, iv.tag).kind == "exec"
        )
        for port, tl in zip(runtime.node_tl, runtime.exec_tl, strict=True)
    }
    # Every timeline but the dedicated CPUs is a single port.
    cpus = set(runtime.exec_tl).difference(runtime.node_tl)
    for tl in runtime.timelines():
        if tl not in cpus:
            m.port_busy_fraction[tl.name] = tl.busy_time() / horizon

    m.node_exec_utilization = {n: b / horizon for n, b in exec_busy.items()}
    if m.node_exec_utilization:
        m.mean_exec_utilization = sum(m.node_exec_utilization.values()) / len(
            m.node_exec_utilization
        )

    hist: dict[str, int] = {_bucket_label(i): 0 for i in range(len(IDLE_GAP_BUCKETS) + 1)}
    for tl in dict.fromkeys([*runtime.node_tl, *runtime.exec_tl]):
        for gap in _idle_gaps(tl, 0.0, makespan):
            hist[_bucket_of(gap)] += 1
    m.idle_gap_histogram = hist

    stats = runtime.state.stats
    transfers = stats.remote_transfers + stats.replications
    accesses = stats.cache_hits + transfers
    m.disk_hit_ratio = stats.cache_hits / accesses if accesses else 0.0
    staged_mb = stats.remote_volume_mb + stats.replication_volume_mb
    if staged_mb > _EPS:
        m.file_reuse_factor = (staged_mb + stats.cache_hit_volume_mb) / staged_mb
        m.replicated_fraction = stats.replication_volume_mb / staged_mb
    m.conservation_residual_mb = conservation_residual_mb(runtime.state)
    return m
