"""Runtime-facing fault model: deterministic draws over a :class:`FaultSpec`.

The model is *stateless* in the probabilistic sense: whether a given
transfer attempt fails is a pure function of
``(seed, file, dest, staging instance, attempt)``, computed by hashing the
tuple into a uniform number in ``[0, 1)``. The Gantt runtime evaluates
tasks speculatively (many tentative ECT evaluations per commit), so a
stateful RNG would make the committed schedule depend on evaluation order;
counter-based draws make every speculative evaluation agree exactly with
the eventual commit.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass, field, fields
from typing import Any

from ..analysis.dims import MB, Dimensionless, Seconds
from .spec import FaultSpec

__all__ = ["FaultStats", "FaultModel"]


@dataclass
class FaultStats:
    """Counters describing what was injected and how the run recovered."""

    node_crashes: int = 0
    transfer_failures: int = 0
    retries: int = 0
    failovers: int = 0
    files_lost: int = 0
    lost_mb: MB = 0.0
    disk_losses: int = 0
    tasks_rescheduled: int = 0

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    def merge(self, other: FaultStats) -> FaultStats:
        """Field-wise sum (e.g. accumulating independent windows)."""
        return FaultStats(
            **{f.name: getattr(self, f.name) + getattr(other, f.name)
               for f in fields(self)}
        )


def _uniform(key: str) -> float:
    """Map a string key to a uniform float in [0, 1) via BLAKE2b."""
    digest = hashlib.blake2b(key.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2**64


@dataclass
class FaultModel:
    """Deterministic oracle the runtime queries while scheduling.

    One instance lives for the whole batch (it spans sub-batches, so the
    per-``(file, dest)`` staging-instance counters keep advancing and
    repeated stagings of the same file draw fresh failures). A warm online
    session shares one instance across its windows and sets :attr:`origin`
    at each dispatch, so the spec's times are stream times.
    """

    spec: FaultSpec
    stats: FaultStats = field(default_factory=FaultStats)

    def __post_init__(self) -> None:
        self._crash_times: dict[int, float] = {
            c.node: c.time for c in self.spec.node_crashes
        }
        # Spec indices of disk losses already applied, and the completed
        # staging sessions per ``(file, dest)`` (advanced at commit time
        # only). Kept on the model, not the runtime, so a warm online
        # session's successive per-batch runtimes apply each loss once and
        # a re-staging in a later window draws fresh failures.
        self.applied_disk_losses: set[int] = set()
        self.staging_instances: dict[tuple[str, int], int] = {}
        # Stream time at which the running window's clock reads 0, set by a
        # warm online session at each dispatch. None for a standalone run (a
        # single batch or a cold window): the spec's times are its own.
        self.origin: Seconds | None = None

    def local_time(self, time: Seconds) -> Seconds:
        """Spec time ``time`` on the running batch's clock."""
        return time if self.origin is None else time - self.origin

    # -- node crashes ------------------------------------------------------

    def crash_time(self, node: int) -> Seconds:
        """When ``node`` dies on the batch's clock (``inf`` if it never does)."""
        return self.local_time(self._crash_times.get(node, math.inf))

    # -- transient transfer failures ---------------------------------------

    def transfer_fails(
        self, file_id: str, dest: int, instance: int, attempt: int
    ) -> bool:
        """Whether attempt ``attempt`` of staging instance ``instance`` of
        ``file_id`` onto ``dest`` fails.

        Pure function of its arguments and the spec seed — safe to call any
        number of times during speculative evaluation. The final allowed
        attempt (``spec.max_transfer_attempts - 1``) never fails.
        """
        rate = self.spec.transfer_failure_rate
        if rate <= 0.0:
            return False
        if attempt >= self.spec.max_transfer_attempts - 1:
            return False
        key = f"{self.spec.seed}:{file_id}:{dest}:{instance}:{attempt}"
        return _uniform(key) < rate

    def backoff(self, attempt: int) -> Seconds:
        """Simulated-seconds delay after failed attempt number ``attempt``."""
        spec = self.spec
        return min(
            spec.backoff_cap_s, spec.backoff_base_s * spec.backoff_factor**attempt
        )

    # -- link slowdowns ----------------------------------------------------

    def slowdown_factor(self, kind: str, time: Seconds) -> Dimensionless:
        """Bandwidth divisor for a ``kind`` transfer starting at ``time`` on
        the batch's clock.

        Overlapping windows compound multiplicatively.
        """
        factor = 1.0
        for window in self.spec.link_slowdowns:
            if window.scope not in ("all", kind):
                continue
            if self.local_time(window.start) <= time < self.local_time(window.end):
                factor *= window.factor
        return factor
