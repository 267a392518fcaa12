"""Streaming multi-batch cluster session with warm-cache carryover.

The paper's driver executes one batch against a cold cluster. A
:class:`ClusterSession` models the cluster as a *serial batch server* fed
by a :class:`~repro.online.arrivals.JobStream`: jobs arrive over simulated
time, queue while a batch executes, and whenever the cluster goes idle an
admission policy (:mod:`repro.online.queue`) forms the next dispatch
window, which runs through the unmodified :func:`repro.core.run_batch`
pipeline (scheduling, sub-batching, eviction, Section 6 Gantt runtime).

Two modes differ only in what survives between batches:

* ``warm`` — one :class:`~repro.cluster.state.ClusterState` (and, with
  fault injection, one :class:`~repro.faults.FaultModel`) threads through
  every call: disk-cache contents, dead nodes and fault history carry
  over, so a batch can hit files staged by its predecessors. Cross-batch
  reuse is measured exactly (``cross_batch_hit_volume_mb``) and certified
  by audit invariant E8. The fault spec's times are stream times.
* ``cold`` — every dispatch window runs as an independent paper-style
  batch from a fresh state and fault model; bit-identical to running each
  window alone, its fault spec read on the window's own clock.

Per job the session records response time (completion − arrival),
queueing delay (dispatch − arrival) and slowdown (response over the job's
isolated service time on an idle cluster). Batch-local clocks restart at
zero each dispatch; the session maps completions to stream time as
``dispatch + completion``, and tells a warm session's fault model each
dispatch time (:attr:`~repro.faults.FaultModel.origin`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any

from ..batch import Batch
from ..cluster.platform import Platform
from ..cluster.state import ClusterState, TransferStats
from ..core.driver import run_batch
from ..faults import FaultModel, FaultStats, resolve_spec
from ..obs.timeseries import stitch_timeseries
from .arrivals import JobArrival, JobStream
from .queue import AdmissionPolicy, FIFOWindow

__all__ = [
    "BatchRecord",
    "ClusterSession",
    "JobRecord",
    "StreamResult",
]

ONLINE_VERSION = 1

# The keywords of ExperimentConfig.run_options(): the only run options a
# session passes on to every window's run_batch call.
_RUN_OPTIONS = frozenset(
    {"allow_replication", "candidate_limit", "scheduler_kwargs", "audit",
     "timeseries", "faults"}
)


@dataclass(frozen=True)
class JobRecord:
    """Queueing metrics of one streamed job (all times in stream seconds)."""

    task_id: str
    arrival: float
    dispatch: float
    completion: float
    batch_index: int
    # Best-case service time on an idle cluster (transfer + read + compute
    # on the most favourable node) — the slowdown denominator.
    isolated_s: float

    @property
    def response_s(self) -> float:
        return self.completion - self.arrival

    @property
    def queueing_delay_s(self) -> float:
        return self.dispatch - self.arrival

    @property
    def service_s(self) -> float:
        return self.completion - self.dispatch

    @property
    def slowdown(self) -> float:
        """Response over isolated service time.

        Warm batches can dip *below* 1.0: a cached input skips the remote
        transfer that the isolated (cold, idle) bound pays for.
        """
        return self.response_s / self.isolated_s if self.isolated_s > 0 else 1.0


@dataclass(frozen=True)
class BatchRecord:
    """One dispatch window: what ran, when, and what it cost."""

    index: int
    dispatch: float
    task_ids: tuple[str, ...]
    makespan_s: float
    sub_batches: int
    scheduling_seconds: float
    queue_depth: int  # queued jobs at dispatch (selected + left behind)
    stats: TransferStats  # this window's delta, not the cumulative total

    @property
    def num_jobs(self) -> int:
        return len(self.task_ids)


@dataclass
class StreamResult:
    """Outcome of a streamed session: per-job, per-batch and aggregate."""

    mode: str  # "warm" | "cold"
    policy: str
    scheme: str
    jobs: list[JobRecord] = field(default_factory=list)
    batches: list[BatchRecord] = field(default_factory=list)
    stats: TransferStats = field(default_factory=TransferStats)
    fault_stats: FaultStats | None = None
    # Stitched simulated-time series across all batches (when probes on).
    timeseries: dict[str, Any] | None = None
    # The arrival block of the stream spec, carried for the manifest.
    arrival: dict[str, Any] | None = None

    # -- aggregates --------------------------------------------------------
    @property
    def num_jobs(self) -> int:
        return len(self.jobs)

    @property
    def total_span_s(self) -> float:
        """End of the last batch (stream makespan)."""
        return max(
            (b.dispatch + b.makespan_s for b in self.batches), default=0.0
        )

    @property
    def mean_response_s(self) -> float:
        return (
            sum(j.response_s for j in self.jobs) / len(self.jobs)
            if self.jobs
            else 0.0
        )

    @property
    def mean_queueing_delay_s(self) -> float:
        return (
            sum(j.queueing_delay_s for j in self.jobs) / len(self.jobs)
            if self.jobs
            else 0.0
        )

    @property
    def max_response_s(self) -> float:
        return max((j.response_s for j in self.jobs), default=0.0)

    @property
    def mean_slowdown(self) -> float:
        return (
            sum(j.slowdown for j in self.jobs) / len(self.jobs)
            if self.jobs
            else 0.0
        )

    @property
    def throughput_jobs_per_s(self) -> float:
        span = self.total_span_s
        return len(self.jobs) / span if span > 0 else 0.0

    @property
    def cross_batch_hits(self) -> int:
        return self.stats.cross_batch_hits

    @property
    def cross_batch_hit_volume_mb(self) -> float:
        return self.stats.cross_batch_hit_volume_mb

    def to_dict(self) -> dict[str, Any]:
        """The manifest ``online`` block (``run-manifest.schema.json``)."""
        return {
            "version": ONLINE_VERSION,
            "mode": self.mode,
            "policy": self.policy,
            "scheme": self.scheme,
            "arrival": self.arrival,
            "queueing": {
                "num_jobs": self.num_jobs,
                "num_batches": len(self.batches),
                "total_span_s": self.total_span_s,
                "mean_response_s": self.mean_response_s,
                "mean_queueing_delay_s": self.mean_queueing_delay_s,
                "max_response_s": self.max_response_s,
                "mean_slowdown": self.mean_slowdown,
                "throughput_jobs_per_s": self.throughput_jobs_per_s,
                "cross_batch_hits": self.cross_batch_hits,
                "cross_batch_hit_volume_mb": self.cross_batch_hit_volume_mb,
            },
            "batches": [
                {
                    "index": b.index,
                    "dispatch_s": b.dispatch,
                    "num_jobs": b.num_jobs,
                    "makespan_s": b.makespan_s,
                    "sub_batches": b.sub_batches,
                    "queue_depth": b.queue_depth,
                    "remote_volume_mb": b.stats.remote_volume_mb,
                    "replication_volume_mb": b.stats.replication_volume_mb,
                    "cache_hit_volume_mb": b.stats.cache_hit_volume_mb,
                    "cross_batch_hits": b.stats.cross_batch_hits,
                    "cross_batch_hit_volume_mb": b.stats.cross_batch_hit_volume_mb,
                    "evictions": b.stats.evictions,
                }
                for b in self.batches
            ],
            "jobs": [
                {
                    "task_id": j.task_id,
                    "arrival_s": j.arrival,
                    "dispatch_s": j.dispatch,
                    "completion_s": j.completion,
                    "response_s": j.response_s,
                    "queueing_delay_s": j.queueing_delay_s,
                    "slowdown": j.slowdown,
                    "batch": j.batch_index,
                }
                for j in self.jobs
            ],
        }

    def summary(self) -> str:
        return (
            f"{self.scheme}/{self.policy}/{self.mode}: {self.num_jobs} jobs "
            f"in {len(self.batches)} batch(es) over {self.total_span_s:.1f}s; "
            f"mean response {self.mean_response_s:.1f}s "
            f"(queueing {self.mean_queueing_delay_s:.1f}s, "
            f"slowdown {self.mean_slowdown:.2f}); "
            f"cross-batch hits {self.cross_batch_hits} "
            f"({self.cross_batch_hit_volume_mb:.0f} MB)"
        )


def isolated_service_time(platform: Platform, batch: Batch, task_id: str) -> float:
    """Best-case service time of one job alone on an idle, cold cluster.

    Remote transfer of every input from its home storage node, local read,
    then compute — on whichever node minimises the total. Ignores port
    contention (the job is alone), so it lower-bounds any cold schedule and
    is the natural slowdown denominator.
    """
    task = batch.task(task_id)
    transfer = sum(
        platform.remote_transfer_time(
            batch.file(f).storage_node, batch.file_size(f)
        )
        for f in task.files
    )
    size = batch.task_input_mb(task)
    best = math.inf
    for node in platform.compute_nodes:
        total = (
            transfer
            + platform.local_read_time(node.node_id, size)
            + platform.task_compute_time(node.node_id, task.compute_time)
        )
        best = min(best, total)
    return best


class ClusterSession:
    """Run a job stream through successive batches on one cluster.

    Parameters
    ----------
    platform, stream:
        The cluster and the arriving jobs (shared file catalog).
    scheme:
        Scheduler name passed to :func:`repro.core.run_batch`
        (``"bipartition"``, ``"minmin"``, ...).
    policy:
        Admission policy forming dispatch windows (default: FIFO drain).
    warm:
        Carry cache/state across batches (see module docstring).
    options:
        The run options every window's :func:`~repro.core.run_batch` call
        takes, as :meth:`~repro.experiments.runner.ExperimentConfig.run_options`
        returns them (``allow_replication``, ``candidate_limit``,
        ``scheduler_kwargs``, ``audit``, ``timeseries``, ``faults``; any
        other keyword is a :class:`TypeError`). ``audit``
        checks every batch (invariants E1–E8; E8 certifies the cross-batch
        hit accounting whenever carryover is active); ``timeseries``
        stitches the per-batch series onto the stream clock with ``batch``
        boundary markers (:func:`stitch_timeseries`). A ``faults`` spec
        applies to the *stream*: in warm mode one fault model spans all
        batches and reads the spec's times as stream times (crash/loss
        events fire once); in cold mode each window reads it on its own
        clock, matching its standalone run.
    """

    def __init__(
        self,
        platform: Platform,
        stream: JobStream,
        scheme: str,
        *,
        policy: AdmissionPolicy | None = None,
        warm: bool = True,
        **options: Any,
    ) -> None:
        self.platform = platform
        self.stream = stream
        self.scheme = scheme
        self.policy: AdmissionPolicy = policy if policy is not None else FIFOWindow()
        self.warm = warm
        unknown = set(options).difference(_RUN_OPTIONS)
        if unknown:
            raise TypeError(
                "ClusterSession got unexpected run option(s): "
                + ", ".join(sorted(unknown))
            )
        self.fault_spec = resolve_spec(options.pop("faults", None))
        self.options = options

    def run(self) -> StreamResult:
        """Drain the stream; returns the per-job/per-batch/aggregate result."""
        stream = self.stream
        result = StreamResult(
            mode="warm" if self.warm else "cold",
            policy=self.policy.name,
            scheme=self.scheme,
        )
        if not stream.arrivals:
            return result

        # The counters of every cluster state and fault model the windows
        # ran on: one of each for a warm session, one per window for a cold
        # one, whose states and models go once their window is done.
        transfer_stats: list[TransferStats] = []
        fault_stats: list[FaultStats] = []
        state: ClusterState | None = None
        model: FaultModel | None = None
        ts_blocks: list[tuple[float, dict[str, Any]]] = []
        queue: list[JobArrival] = []
        idx = 0
        now = 0.0
        # Every window holds the oldest queued job (checked below), so each
        # pass shrinks the queue and the loop ends by construction.
        while idx < len(stream.arrivals) or queue:
            if not queue:
                # Idle cluster, empty queue: jump to the next arrival.
                now = max(now, stream.arrivals[idx].arrival)
            while idx < len(stream.arrivals) and stream.arrivals[idx].arrival <= now:
                queue.append(stream.arrivals[idx])
                idx += 1

            batch_index = len(result.batches)
            selected = self.policy.select(queue, stream.batch, now)
            if not selected:
                raise RuntimeError(
                    f"policy {self.policy.name} selected an empty window"
                )
            if queue[0].task_id not in selected:
                raise RuntimeError(
                    f"policy {self.policy.name} starved the oldest queued "
                    f"job {queue[0].task_id}"
                )
            arrivals_of = {q.task_id: q.arrival for q in queue}
            stray = set(selected).difference(arrivals_of)
            if stray:
                raise RuntimeError(
                    f"policy {self.policy.name} selected job(s) that are not "
                    f"queued: {', '.join(sorted(stray))}"
                )
            dispatch = now
            window = stream.batch.subset(selected)

            if state is None or not self.warm:
                state = ClusterState.initial(self.platform, window)
                transfer_stats.append(state.stats)
                if self.fault_spec is not None:
                    model = FaultModel(self.fault_spec)
                    fault_stats.append(model.stats)
            if self.warm:
                # Copies carried in count as cross-batch hits, and the
                # fault spec reads on the stream clock.
                state.begin_carryover()
                if model is not None:
                    model.origin = dispatch
            before = replace(state.stats)
            batch_result = run_batch(
                window,
                self.platform,
                self.scheme,
                **self.options,
                state=state,
                faults=model,
            )

            result.batches.append(
                BatchRecord(
                    index=batch_index,
                    dispatch=dispatch,
                    task_ids=tuple(selected),
                    makespan_s=batch_result.makespan,
                    sub_batches=batch_result.num_sub_batches,
                    scheduling_seconds=batch_result.scheduling_seconds,
                    queue_depth=len(queue),
                    stats=state.stats.minus(before),
                )
            )
            if batch_result.timeseries is not None:
                ts_blocks.append((dispatch, batch_result.timeseries))

            # Map batch-local completions (clock restarts at 0 per window)
            # onto the stream clock.
            for sb in batch_result.sub_batches:
                for rec in sb.execution.records:
                    result.jobs.append(
                        JobRecord(
                            task_id=rec.task_id,
                            arrival=arrivals_of[rec.task_id],
                            dispatch=dispatch,
                            completion=dispatch + rec.completion,
                            batch_index=batch_index,
                            isolated_s=isolated_service_time(
                                self.platform, stream.batch, rec.task_id
                            ),
                        )
                    )

            done = set(selected)
            queue = [q for q in queue if q.task_id not in done]
            now = dispatch + batch_result.makespan

        for stats in transfer_stats:
            result.stats = result.stats.merge(stats)
        if fault_stats:
            result.fault_stats = FaultStats()
            for counters in fault_stats:
                result.fault_stats = result.fault_stats.merge(counters)
        result.jobs.sort(key=lambda j: (j.arrival, j.task_id))
        if ts_blocks:
            result.timeseries = stitch_timeseries(
                ts_blocks, self.fault_spec if self.warm else None
            )
        return result
