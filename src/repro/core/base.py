"""Scheduler interface and registry.

A scheduler sees the pending tasks and the *current* cluster state (files
already on compute nodes from earlier sub-batches) and produces the next
:class:`~repro.core.plan.SubBatchPlan`. The driver (:mod:`repro.core.driver`)
alternates scheduler calls with runtime execution and eviction until the
batch drains, timing the scheduler calls to measure scheduling overhead.

Unit conventions (checked by :mod:`repro.analysis.units`): file sizes and
disk capacities are MB, bandwidths are MB/s, and every completion-time
estimate a scheduler produces is in simulated seconds.
"""

from __future__ import annotations

import abc
from collections.abc import Callable
from typing import TYPE_CHECKING

import numpy as np

from ..batch import Batch
from ..cluster.platform import Platform
from ..cluster.state import ClusterState
from .eviction import EvictionPolicy, PopularityPolicy
from .plan import SubBatchPlan

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.decisions import DecisionLog

__all__ = ["Scheduler", "register_scheduler", "make_scheduler", "available_schedulers"]


class Scheduler(abc.ABC):
    """Base class for batch schedulers.

    Subclasses implement :meth:`next_subbatch`; schedulers that precompute a
    whole sub-batch sequence (BiPartition's first level) may cache it across
    calls. ``uses_subbatches`` is False for the base heuristics that run the
    whole batch at once and rely on on-demand eviction.
    """

    name: str = "abstract"
    uses_subbatches: bool = True

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        # Populated by schedulers that emit per-placement decision records
        # (the MCT family) while repro.obs telemetry is enabled.
        self.decision_log: DecisionLog | None = None

    @abc.abstractmethod
    def next_subbatch(
        self,
        batch: Batch,
        pending: list[str],
        platform: Platform,
        state: ClusterState,
    ) -> SubBatchPlan:
        """Select and map the next sub-batch from ``pending`` task ids."""

    def eviction_policy(self, batch: Batch) -> EvictionPolicy:
        """Policy used for this scheduler's on-demand/between-batch eviction.

        Default is the paper's popularity policy (Eq. 22); JDP overrides
        with LRU as in Ranganathan & Foster.
        """
        return PopularityPolicy.for_batch(batch)

    def reset(self) -> None:
        """Clear per-batch caches (called by the driver before a run)."""
        self.rng = np.random.default_rng(self.seed)
        self.decision_log = None


_REGISTRY: dict[str, Callable[..., Scheduler]] = {}


def register_scheduler(name: str) -> Callable[[type[Scheduler]], type[Scheduler]]:
    """Class decorator registering a scheduler under ``name``."""

    def wrap(cls: type[Scheduler]) -> type[Scheduler]:
        cls.name = name
        _REGISTRY[name] = cls
        return cls

    return wrap


def make_scheduler(name: str, **kwargs: object) -> Scheduler:
    """Instantiate a registered scheduler by name."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    return cls(**kwargs)


def available_schedulers() -> list[str]:
    return sorted(_REGISTRY)
