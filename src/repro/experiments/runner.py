"""Experiment runner: configuration -> batch -> scheduler runs -> records.

:class:`ExperimentConfig` is the one description of a run: it builds the
run's platform and batch, lays its ``scheduler_kwargs`` over the scheme's
defaults, and turns the run's :class:`BatchResult` into a :class:`Record`.
:meth:`ExperimentConfig.from_dict` reads it from JSON (``repro
metrics``/``repro profile`` config files, and stream specs through
:func:`repro.experiments.stream.stream_config_from_dict`).
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from typing import Any

from ..batch import Batch
from ..cluster.platform import STORAGE_PLATFORMS, Platform
from ..core.base import available_schedulers
from ..core.driver import run_batch
from ..core.plan import BatchResult
from ..faults import resolve_spec
from ..workloads import WORKLOADS, available_workloads, make_batch
from .report import Record

__all__ = [
    "ExperimentConfig",
    "check_count",
    "default_scheduler_kwargs",
    "disk_mb",
    "run_config",
    "run_config_result",
]

GB = 1000.0  # MB per GB (decimal, as storage vendors and the paper use)


def disk_mb(disk_gb: float | str | None) -> float:
    """Per-node disk in MB from decimal GB; ``None`` or ``"inf"`` is unlimited."""
    return math.inf if disk_gb is None else float(disk_gb) * GB


def check_count(name: str, value: object) -> None:
    """Raise :class:`ValueError` unless ``value`` is an integer >= 1.

    A bool is not a count, although Python counts it as an ``int``.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


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
    # Attach simulated-time series probes (repro.obs.timeseries).
    # Non-semantic: probes only observe, so decisions and the Record are
    # unchanged and the flag is excluded from the result-cache key.
    timeseries: bool = False
    # Fault-injection spec (:class:`repro.faults.FaultSpec` as a dict), or
    # ``None`` for a fault-free run. Semantic: part of the result-cache key.
    faults: dict | None = None

    def __post_init__(self) -> None:
        """Check the values, so a bad config file or stream spec fails
        here with a :class:`ValueError` or :class:`TypeError` rather than
        partway through its run."""
        if self.workload not in WORKLOADS:
            raise ValueError(
                f"unknown workload {self.workload!r}; use {available_workloads()}"
            )
        if self.storage not in STORAGE_PLATFORMS:
            raise ValueError(
                f"unknown storage {self.storage!r}; use {sorted(STORAGE_PLATFORMS)}"
            )
        if self.scheme not in available_schedulers():
            raise ValueError(
                f"unknown scheme {self.scheme!r}; use {available_schedulers()}"
            )
        for name in ("num_tasks", "num_compute", "num_storage"):
            check_count(name, getattr(self, name))
        if self.candidate_limit is not None:
            check_count("candidate_limit", self.candidate_limit)
        resolve_spec(self.faults)

    def platform(self) -> Platform:
        return STORAGE_PLATFORMS[self.storage](
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

    def run_options(self) -> dict[str, Any]:
        """The keyword arguments this cell gives ``run_batch`` (and a
        ``ClusterSession``): its ``scheduler_kwargs`` laid over the
        scheme's defaults, and the run flags."""
        return dict(
            allow_replication=self.allow_replication,
            candidate_limit=self.candidate_limit,
            scheduler_kwargs={
                **default_scheduler_kwargs(self.scheme),
                **self.scheduler_kwargs,
            },
            audit=self.audit,
            timeseries=self.timeseries,
            faults=self.faults,
        )

    def record(self, result: BatchResult, x: float | str | None = None) -> Record:
        """Summarise this cell's run; ``x`` defaults to the overlap level."""
        return Record.from_result(
            result,
            experiment=self.experiment,
            workload=self.workload,
            scheme=self.scheme if self.allow_replication else f"{self.scheme}-norep",
            x=self.overlap if x is None else x,
        )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]):
        """Build a config of this class from its JSON form.

        ``disk_gb`` (decimal GB, like ``--disk-gb``) may stand in for
        ``disk_space_mb``; either reads ``"inf"`` or ``null`` as an
        unlimited disk. Unknown keys raise :class:`ValueError`, so typos
        fail loudly.
        """
        values = dict(data)
        if "disk_gb" in values:
            values["disk_space_mb"] = disk_mb(values.pop("disk_gb"))
        elif values.get("disk_space_mb") in ("inf", None):
            values["disk_space_mb"] = math.inf
        unknown = sorted(set(values) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config keys: {unknown}")
        return cls(**values)


def default_scheduler_kwargs(scheme: str, time_limit: float = 30.0) -> dict:
    """Sensible per-scheme options for experiment runs."""
    if scheme == "ip":
        return {"time_limit": time_limit, "mip_rel_gap": 0.05}
    return {}


def run_config_result(
    cfg: ExperimentConfig, *, telemetry: bool = False
) -> BatchResult:
    """Execute one experiment cell, returning the full :class:`BatchResult`.

    ``telemetry=True`` leaves the run's metrics, telemetry snapshot and
    decision log on the result (``repro metrics``/``repro profile`` read
    them). It does not change the simulated run, and a
    :func:`repro.parallel.map_configs` worker, which keeps only the
    :class:`Record`, never sets it.
    """
    return run_batch(
        cfg.batch(),
        cfg.platform(),
        cfg.scheme,
        telemetry=telemetry,
        **cfg.run_options(),
    )


def run_config(cfg: ExperimentConfig, x: float | str | None = None) -> Record:
    """Execute one experiment cell and summarise it as a :class:`Record`."""
    return cfg.record(run_config_result(cfg), x)
