"""Streaming experiments: arrival rate x admission policy x scheme sweeps.

Wraps :mod:`repro.online` in the same config-to-record shape as the batch
experiment runner: a :class:`StreamConfig` names the workload, platform,
arrival process and admission policy; :func:`run_stream_config` executes
it in warm or cold mode; :func:`stream_sweep` crosses arrival rates,
policies and schemes and reports the queueing metrics side by side (warm
vs cold per cell). Stream specs are plain JSON (``examples/streams/``) so
``repro stream`` can run one end to end; see ``docs/online.md``.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace
from typing import Any

from ..cluster.platform import Platform, osc_osumed, osc_xio
from ..online import (
    ClusterSession,
    JobStream,
    StreamResult,
    arrivals_from_spec,
    make_policy,
    stream_from_batch,
)
from ..workloads import make_batch
from .runner import GB, default_scheduler_kwargs

__all__ = [
    "StreamConfig",
    "StreamRecord",
    "render_stream_table",
    "run_stream_config",
    "stream_config_from_dict",
    "stream_sweep",
]


@dataclass
class StreamConfig:
    """One streaming cell: workload x platform x arrival x policy x scheme."""

    experiment: str
    workload: str  # any repro.workloads.WORKLOADS name
    overlap: str
    num_jobs: int
    storage: str  # "xio" | "osumed"
    num_compute: int = 4
    num_storage: int = 4
    disk_space_mb: float = math.inf
    scheme: str = "bipartition"
    seed: int = 0
    # Arrival block: {"kind": "poisson"|"bursty"|"trace", ...} — see
    # repro.online.arrivals.arrivals_from_spec.
    arrival: dict = field(
        default_factory=lambda: {"kind": "poisson", "rate": 0.02, "seed": 0}
    )
    policy: str = "fifo"  # "fifo" | "size" | "locality"
    max_window: int | None = None  # window cap for size/locality policies
    allow_replication: bool = True
    candidate_limit: int | None = None
    scheduler_kwargs: dict = field(default_factory=dict)
    audit: bool = False
    timeseries: bool = False
    faults: dict | None = None

    def platform(self) -> Platform:
        maker = osc_xio if self.storage == "xio" else osc_osumed
        return maker(
            num_compute=self.num_compute,
            num_storage=self.num_storage,
            disk_space_mb=self.disk_space_mb,
        )

    def stream(self) -> JobStream:
        batch = make_batch(
            self.workload,
            self.num_jobs,
            self.overlap,
            self.num_storage,
            seed=self.seed,
        )
        times = arrivals_from_spec(self.arrival, len(batch.tasks))
        return stream_from_batch(batch, times)


def stream_config_from_dict(spec: Mapping[str, Any]) -> StreamConfig:
    """Build a :class:`StreamConfig` from a stream-spec JSON dict.

    ``disk_gb`` (decimal GB, like the CLI flag) is accepted as sugar for
    ``disk_space_mb``; unknown keys are rejected so typos fail loudly.
    """
    data = dict(spec)
    if "disk_gb" in data:
        disk_gb = data.pop("disk_gb")
        if disk_gb is not None:
            data["disk_space_mb"] = float(disk_gb) * GB
    known = set(StreamConfig.__dataclass_fields__)
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(f"unknown stream spec keys: {unknown}")
    return StreamConfig(**data)


def run_stream_config(cfg: StreamConfig, *, warm: bool = True) -> StreamResult:
    """Execute one streaming cell in warm or cold mode."""
    kwargs = dict(default_scheduler_kwargs(cfg.scheme))
    kwargs.update(cfg.scheduler_kwargs)
    session = ClusterSession(
        cfg.platform(),
        cfg.stream(),
        cfg.scheme,
        policy=make_policy(cfg.policy, cfg.max_window),
        warm=warm,
        allow_replication=cfg.allow_replication,
        candidate_limit=cfg.candidate_limit,
        scheduler_kwargs=kwargs,
        audit=cfg.audit,
        faults=cfg.faults,
        timeseries=cfg.timeseries,
    )
    result = session.run()
    result.arrival = dict(cfg.arrival)
    return result


@dataclass(frozen=True)
class StreamRecord:
    """One sweep row: a cell's queueing metrics in one mode."""

    experiment: str
    scheme: str
    policy: str
    mode: str
    rate: float | str
    mean_response_s: float
    mean_queueing_delay_s: float
    mean_slowdown: float
    throughput_jobs_per_s: float
    cross_batch_hit_volume_mb: float
    batches: int


def _record(cfg: StreamConfig, rate: float | str, res: StreamResult) -> StreamRecord:
    return StreamRecord(
        experiment=cfg.experiment,
        scheme=cfg.scheme,
        policy=cfg.policy,
        mode=res.mode,
        rate=rate,
        mean_response_s=res.mean_response_s,
        mean_queueing_delay_s=res.mean_queueing_delay_s,
        mean_slowdown=res.mean_slowdown,
        throughput_jobs_per_s=res.throughput_jobs_per_s,
        cross_batch_hit_volume_mb=res.cross_batch_hit_volume_mb,
        batches=len(res.batches),
    )


def stream_sweep(
    base: StreamConfig,
    *,
    rates: Sequence[float],
    policies: Sequence[str] = ("fifo", "size", "locality"),
    schemes: Sequence[str] = ("bipartition", "minmin"),
    modes: Sequence[str] = ("warm", "cold"),
) -> list[StreamRecord]:
    """Cross arrival rate x policy x scheme (x mode) from a base config.

    Rates only apply to Poisson/bursty arrival blocks (the ``rate`` key is
    replaced per cell); each cell reruns the full session per mode so warm
    and cold rows are directly comparable.
    """
    records = []
    for rate in rates:
        for policy in policies:
            for scheme in schemes:
                cfg = replace(
                    base,
                    scheme=scheme,
                    policy=policy,
                    arrival={**base.arrival, "rate": rate},
                )
                for mode in modes:
                    res = run_stream_config(cfg, warm=(mode == "warm"))
                    records.append(_record(cfg, rate, res))
    return records


def render_stream_table(records: Sequence[StreamRecord], title: str = "") -> str:
    """Fixed-width text table of sweep rows (same spirit as Table.render)."""
    header = (
        f"{'scheme':<12} {'policy':<9} {'mode':<5} {'rate':>8} "
        f"{'resp_s':>9} {'queue_s':>9} {'slowdn':>7} {'thru/s':>8} "
        f"{'xb_MB':>9} {'batches':>7}"
    )
    lines = [title, header, "-" * len(header)] if title else [header, "-" * len(header)]
    for r in records:
        rate = f"{r.rate:.4g}" if isinstance(r.rate, float) else str(r.rate)
        lines.append(
            f"{r.scheme:<12} {r.policy:<9} {r.mode:<5} {rate:>8} "
            f"{r.mean_response_s:>9.1f} {r.mean_queueing_delay_s:>9.1f} "
            f"{r.mean_slowdown:>7.2f} {r.throughput_jobs_per_s:>8.4f} "
            f"{r.cross_batch_hit_volume_mb:>9.0f} {r.batches:>7}"
        )
    return "\n".join(lines)
