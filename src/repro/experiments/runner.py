"""Experiment runner: configuration -> batch -> scheduler runs -> records."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..batch import Batch
from ..cluster.platform import Platform, osc_osumed, osc_xio
from ..core.driver import run_batch
from ..core.plan import BatchResult
from ..workloads import WORKLOADS, available_workloads, make_batch
from .report import Record

__all__ = [
    "ExperimentConfig",
    "default_scheduler_kwargs",
    "run_config",
    "run_config_result",
]

GB = 1000.0  # MB per GB (decimal, as storage vendors and the paper use)


@dataclass
class ExperimentConfig:
    """One experiment cell: workload x platform x scheme."""

    experiment: str
    workload: str  # any repro.workloads.WORKLOADS name: "sat" | "image" | ...
    overlap: str
    num_tasks: int
    storage: str  # "xio" | "osumed"
    num_compute: int = 4
    num_storage: int = 4
    disk_space_mb: float = math.inf
    scheme: str = "bipartition"
    seed: int = 0
    allow_replication: bool = True
    candidate_limit: int | None = None
    scheduler_kwargs: dict = field(default_factory=dict)
    audit: bool = False
    # Collect run telemetry/metrics (repro.obs). Non-semantic: does not
    # change the simulated result, and is excluded from the result-cache key.
    telemetry: bool = False
    # Attach simulated-time series probes (repro.obs.timeseries). Also
    # non-semantic: probes only observe, so decisions and the Record are
    # unchanged and the flag is excluded from the result-cache key.
    timeseries: bool = False
    # Fault-injection spec (:class:`repro.faults.FaultSpec` as a dict), or
    # ``None`` for a fault-free run. Semantic: part of the result-cache key.
    faults: dict | None = None

    def __post_init__(self) -> None:
        if self.workload not in WORKLOADS:
            raise ValueError(
                f"unknown workload {self.workload!r}; "
                f"use {available_workloads()}"
            )
        if self.storage not in ("xio", "osumed"):
            raise ValueError(
                f"unknown storage {self.storage!r}; use ['osumed', 'xio']"
            )

    def platform(self) -> Platform:
        maker = osc_xio if self.storage == "xio" else osc_osumed
        return maker(
            num_compute=self.num_compute,
            num_storage=self.num_storage,
            disk_space_mb=self.disk_space_mb,
        )

    def batch(self) -> Batch:
        return make_batch(
            self.workload,
            self.num_tasks,
            self.overlap,
            self.num_storage,
            seed=self.seed,
        )


def default_scheduler_kwargs(scheme: str, time_limit: float = 30.0) -> dict:
    """Sensible per-scheme options for experiment runs."""
    if scheme == "ip":
        return {"time_limit": time_limit, "mip_rel_gap": 0.05}
    return {}


def run_config_result(cfg: ExperimentConfig) -> BatchResult:
    """Execute one experiment cell, returning the full :class:`BatchResult`.

    Used by consumers that need more than the :class:`Record` summary —
    notably the ``repro metrics``/``repro profile`` commands, which read the
    telemetry attachments ``run_batch(telemetry=True)`` leaves on the result.
    """
    platform = cfg.platform()
    batch = cfg.batch()
    kwargs = dict(default_scheduler_kwargs(cfg.scheme))
    kwargs.update(cfg.scheduler_kwargs)
    return run_batch(
        batch,
        platform,
        cfg.scheme,
        allow_replication=cfg.allow_replication,
        candidate_limit=cfg.candidate_limit,
        scheduler_kwargs=kwargs,
        audit=cfg.audit,
        telemetry=cfg.telemetry,
        timeseries=cfg.timeseries,
        faults=cfg.faults,
    )


def run_config(cfg: ExperimentConfig, x: float | str | None = None) -> Record:
    """Execute one experiment cell and summarise it as a :class:`Record`."""
    result: BatchResult = run_config_result(cfg)
    return Record(
        experiment=cfg.experiment,
        workload=cfg.workload,
        scheme=cfg.scheme if cfg.allow_replication else f"{cfg.scheme}-norep",
        x=x if x is not None else cfg.overlap,
        makespan_s=result.makespan,
        scheduling_ms_per_task=result.scheduling_ms_per_task,
        remote_transfers=result.stats.remote_transfers,
        remote_volume_mb=result.stats.remote_volume_mb,
        replications=result.stats.replications,
        replication_volume_mb=result.stats.replication_volume_mb,
        evictions=result.stats.evictions,
        sub_batches=result.num_sub_batches,
    )
