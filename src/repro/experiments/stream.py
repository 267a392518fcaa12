"""Streaming experiments: one config names one streamed session.

Wraps :mod:`repro.online` in the same config shape as the batch
experiment runner: a :class:`StreamConfig` names the workload, platform,
arrival process and admission policy, and :func:`run_stream_config`
executes it in warm or cold mode. Stream specs are plain JSON
(``examples/streams/``) so ``repro stream`` can run one end to end; see
``docs/online.md``.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any

from ..cluster.platform import STORAGE_PLATFORMS, Platform
from ..online import (
    ClusterSession,
    JobStream,
    StreamResult,
    arrivals_from_spec,
    make_policy,
    stream_from_batch,
)
from ..workloads import make_batch
from .runner import GB, _check_names, default_scheduler_kwargs

__all__ = [
    "StreamConfig",
    "run_stream_config",
    "stream_config_from_dict",
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

    def __post_init__(self) -> None:
        _check_names(self.workload, self.storage)

    def platform(self) -> Platform:
        return STORAGE_PLATFORMS[self.storage](
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
