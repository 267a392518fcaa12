"""The benchmark's workloads: seeded inputs, one job, and its outcome.

A *job* is one unit a user of the system runs end to end: one
``run_batch`` call for the batch workloads, one whole streamed session
(several batches through ``ClusterSession``) for the stream workload. A run
builds a workload's ``instances`` jobs from its ``--seed`` and cycles
through them.

Each workload is a configuration the repository already runs, at its own
scale:

* ``mct`` is the ``e2e/minmin/n120c8`` cell of ``repro bench``
  (``repro.experiments.bench``): a 120-task high-overlap IMAGE batch on
  8 compute + 8 XIO storage nodes, MinMin with ``candidate_limit=25``.
* ``disk`` is Figure 5(b) (``fig5b_batch_size``) scaled down in tasks and
  disk alike: its n=4000 point (40 GB per node, about half the per-node
  share of the batch's distinct files) becomes n=120 with 1.2 GB per node.
  BiPartition, ``candidate_limit=25``, 4 compute + 4 XIO storage nodes;
  3-4 sub-batches per job.
* ``stream`` is ``examples/streams/poisson-osumed.json`` with the seed
  replaced: 24 SAT jobs, Poisson arrivals at 0.02 jobs/s, size windows of
  up to 6 jobs, 20 GB disks, warm carryover, audit and time-series probes.

The program receives only the generated inputs; nothing here reads the
wall clock, so the same seed gives the same jobs and the same scheduling
decisions on every machine.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable

from repro.cluster.platform import osc_xio
from repro.core import driver
from repro.experiments.stream import stream_config_from_dict
from repro.online import ClusterSession, make_policy
from repro.workloads import make_batch


@dataclass(frozen=True)
class Job:
    """One prepared job: its size and how to run it."""

    num_tasks: int
    run: Callable[[bool], Any]  # (audit) -> the program's result object


@dataclass(frozen=True)
class Outcome:
    """What a finished job produced, reduced to checkable numbers."""

    makespan_s: float  # simulated completion of the whole job
    response_s: float  # mean simulated completion minus arrival, per task
    # (task id, node or batch, completion) for every task: its decisions.
    fingerprint: tuple[tuple[str, int, float], ...]
    subbatches: int
    remote_mb: float
    replication_mb: float
    cache_hit_mb: float
    cross_batch_hit_mb: float
    evictions: int


# -- batch workloads -------------------------------------------------------------
def _batch_job(batch: Any, platform: Any, scheme: str) -> Job:
    def run(audit: bool) -> Any:
        # Looked up at call time so the tracer's wrapper is seen.
        return driver.run_batch(
            batch, platform, scheme, candidate_limit=25, audit=audit
        )

    return Job(num_tasks=len(batch.tasks), run=run)


def _batch_outcome(result: Any) -> Outcome:
    records = [r for sb in result.sub_batches for r in sb.execution.records]
    stats = result.stats
    return Outcome(
        makespan_s=result.makespan,
        response_s=sum(r.completion for r in records) / len(records),
        fingerprint=tuple(
            sorted((r.task_id, r.node, r.completion) for r in records)
        ),
        subbatches=result.num_sub_batches,
        remote_mb=stats.remote_volume_mb,
        replication_mb=stats.replication_volume_mb,
        cache_hit_mb=stats.cache_hit_volume_mb,
        cross_batch_hit_mb=stats.cross_batch_hit_volume_mb,
        evictions=stats.evictions,
    )


def make_mct(seed: int) -> Job:
    """The ``e2e/minmin/n120c8`` bench cell: 120 IMAGE tasks, high overlap,
    8 compute + 8 XIO storage nodes, unlimited disks, whole-batch MinMin."""
    return _batch_job(
        make_batch("image", 120, "high", 8, seed=seed),
        osc_xio(num_compute=8, num_storage=8),
        "minmin",
    )


def make_disk(seed: int) -> Job:
    """Figure 5(b) at n=120: IMAGE, high overlap, 4 compute nodes with
    1.2 GB disks (40 GB x 120/4000) and 4 XIO storage nodes, BiPartition."""
    return _batch_job(
        make_batch("image", 120, "high", 4, seed=seed),
        osc_xio(num_compute=4, num_storage=4, disk_space_mb=40_000.0 * 120 / 4000),
        "bipartition",
    )


# -- stream workload -------------------------------------------------------------
#: ``examples/streams/poisson-osumed.json``; the seeds are filled in per job.
STREAM_SPEC = {
    "experiment": "stream-poisson-osumed",
    "workload": "sat",
    "overlap": "high",
    "num_jobs": 24,
    "storage": "osumed",
    "num_compute": 4,
    "num_storage": 4,
    "disk_gb": 20,
    "scheme": "bipartition",
    "policy": "size",
    "max_window": 6,
    "audit": True,
    "timeseries": True,
}


def make_stream(seed: int) -> Job:
    """The example Poisson stream spec, run warm as ``repro stream`` does.

    The stream always runs audited: the audit is part of the workload.
    """
    cfg = stream_config_from_dict(
        {
            **STREAM_SPEC,
            "seed": seed,
            "arrival": {"kind": "poisson", "rate": 0.02, "seed": seed},
        }
    )
    stream = cfg.stream()
    platform = cfg.platform()

    def run(audit: bool) -> Any:  # audited either way
        session = ClusterSession(
            platform,
            stream,
            cfg.scheme,
            policy=make_policy(cfg.policy, cfg.max_window),
            warm=True,
            audit=cfg.audit,
            timeseries=cfg.timeseries,
        )
        return session.run()

    return Job(num_tasks=len(stream.batch.tasks), run=run)


def _stream_outcome(result: Any) -> Outcome:
    stats = result.stats
    return Outcome(
        makespan_s=result.total_span_s,
        response_s=result.mean_response_s,
        fingerprint=tuple(
            sorted((j.task_id, j.batch_index, j.completion) for j in result.jobs)
        ),
        subbatches=sum(b.sub_batches for b in result.batches),
        remote_mb=stats.remote_volume_mb,
        replication_mb=stats.replication_volume_mb,
        cache_hit_mb=stats.cache_hit_volume_mb,
        cross_batch_hit_mb=stats.cross_batch_hit_volume_mb,
        evictions=stats.evictions,
    )


@dataclass(frozen=True)
class Workload:
    instances: int  # jobs built per run
    audited: int  # of which the first are also run audited, untimed
    make: Callable[[int], Job]  # instance seed -> job
    outcome: Callable[[Any], Outcome]

    def build(self, seed: int) -> list[Job]:
        rng = random.Random(seed)
        return [self.make(rng.randrange(2**31)) for _ in range(self.instances)]


WORKLOADS = {
    "mct": Workload(16, 4, make_mct, _batch_outcome),
    "disk": Workload(32, 4, make_disk, _batch_outcome),
    "stream": Workload(64, 4, make_stream, _stream_outcome),
}


def check(outcome: Outcome, num_tasks: int) -> str | None:
    """Return why a job's outcome is wrong, or None when it is sound."""
    if len(outcome.fingerprint) != num_tasks:
        return f"{len(outcome.fingerprint)} of {num_tasks} tasks completed"
    if len({f[0] for f in outcome.fingerprint}) != num_tasks:
        return "a task completed twice"
    if not (math.isfinite(outcome.makespan_s) and outcome.makespan_s > 0):
        return f"makespan {outcome.makespan_s!r}"
    if max(f[2] for f in outcome.fingerprint) > outcome.makespan_s + 1e-9:
        return "a task completed after the makespan"
    return None
