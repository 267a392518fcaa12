"""Streaming experiments: one config names one streamed session.

Wraps :mod:`repro.online` in the batch experiment runner's config: a
:class:`StreamConfig` is an :class:`~repro.experiments.runner.ExperimentConfig`
whose ``num_tasks`` tasks arrive as jobs, plus the arrival process and the
admission policy, and :func:`run_stream_config` executes it in warm or
cold mode. Stream specs are plain JSON (``examples/streams/``) so ``repro
stream`` can run one end to end; see ``docs/online.md``.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any

from ..online import (
    ARRIVAL_KINDS,
    POLICIES,
    ClusterSession,
    JobStream,
    StreamResult,
    arrivals_from_spec,
    make_policy,
    stream_from_batch,
)
from .runner import ExperimentConfig, check_count

__all__ = [
    "StreamConfig",
    "run_stream_config",
    "stream_config_from_dict",
]


@dataclass
class StreamConfig(ExperimentConfig):
    """One streaming cell: an experiment cell x arrival x admission policy."""

    # Arrival block: {"kind": "poisson"|"bursty"|"trace", ...} — see
    # repro.online.arrivals.arrivals_from_spec.
    arrival: dict = field(
        default_factory=lambda: {"kind": "poisson", "rate": 0.02, "seed": 0}
    )
    policy: str = "fifo"  # "fifo" | "size" | "locality"
    max_window: int | None = None  # window cap for size/locality policies

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown admission policy {self.policy!r}; use {'|'.join(POLICIES)}"
            )
        if self.max_window is not None:
            check_count("max_window", self.max_window)
        if not isinstance(self.arrival, Mapping):
            raise ValueError(f"arrival must be an object, got {self.arrival!r}")
        kind = self.arrival.get("kind", "poisson")
        if kind not in ARRIVAL_KINDS:
            raise ValueError(
                f"unknown arrival kind {kind!r}; use {'|'.join(ARRIVAL_KINDS)}"
            )

    def stream(self) -> JobStream:
        batch = self.batch()
        times = arrivals_from_spec(self.arrival, len(batch.tasks))
        return stream_from_batch(batch, times)


def stream_config_from_dict(spec: Mapping[str, Any]) -> StreamConfig:
    """Build a :class:`StreamConfig` from a stream-spec JSON dict.

    A spec has a config file's keys (see
    :meth:`~repro.experiments.runner.ExperimentConfig.from_dict`) plus
    ``arrival``, ``policy`` and ``max_window``; it names ``num_tasks``
    ``num_jobs``.
    """
    data = dict(spec)
    if "num_jobs" in data:
        if "num_tasks" in data:
            raise ValueError("give num_jobs or num_tasks, not both")
        data["num_tasks"] = data.pop("num_jobs")
    return StreamConfig.from_dict(data)


def run_stream_config(cfg: StreamConfig, *, warm: bool = True) -> StreamResult:
    """Execute one streaming cell in warm or cold mode."""
    session = ClusterSession(
        cfg.platform(),
        cfg.stream(),
        cfg.scheme,
        policy=make_policy(cfg.policy, cfg.max_window),
        warm=warm,
        **cfg.run_options(),
    )
    result = session.run()
    result.arrival = dict(cfg.arrival)
    return result
