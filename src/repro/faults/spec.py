"""Declarative fault-injection specifications (``repro run --faults``).

A :class:`FaultSpec` describes every fault the simulator should inject into
one batch run, in simulated time and fully deterministically:

* :class:`NodeCrash` — a compute node dies at an absolute simulated time;
  everything cached there is lost and no activity may touch the node
  afterwards (audit invariant E6, see ``docs/faults.md``);
* transient transfer failures — each on-demand staging attempt fails with
  probability ``transfer_failure_rate``, drawn from a counter-based hash of
  the spec seed (no RNG state, so speculative ECT evaluations and the
  actual commit always agree);
* :class:`LinkSlowdown` — bandwidth divided by ``factor`` for transfers
  that would start inside the window;
* :class:`DiskLoss` — a node's disk cache shrinks by ``lost_mb`` at a
  simulated time (applied at the next sub-batch boundary).

The JSON form mirrors the dataclasses field-for-field; see
``examples/faults/`` for ready-made specs and ``docs/faults.md`` for the
format reference. ``FaultSpec()`` (all defaults) is the *null* model: the
runtime takes the exact pre-fault code paths and produces bit-identical
traces, which the golden-manifest test enforces.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any

from ..analysis.dims import MB, Dimensionless, Seconds

__all__ = ["NodeCrash", "LinkSlowdown", "DiskLoss", "FaultSpec"]


@dataclass(frozen=True)
class NodeCrash:
    """Compute node ``node`` fails permanently at simulated time ``time``."""

    node: int
    time: Seconds

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ValueError("crash node must be >= 0")
        if self.time < 0:
            raise ValueError("crash time must be >= 0")


@dataclass(frozen=True)
class LinkSlowdown:
    """Bandwidth degradation window: transfers starting in ``[start, end)``
    run at ``bw / factor``.

    ``scope`` selects which transfers degrade: ``"all"``, ``"remote"``
    (storage-to-compute only) or ``"replica"`` (compute-to-compute only).
    """

    start: Seconds
    end: Seconds
    factor: Dimensionless
    scope: str = "all"

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError("slowdown end must be after start")
        if self.factor < 1.0:
            raise ValueError("slowdown factor must be >= 1")
        if self.scope not in ("all", "remote", "replica"):
            raise ValueError(f"bad slowdown scope {self.scope!r}")


@dataclass(frozen=True)
class DiskLoss:
    """Node ``node`` loses ``lost_mb`` of disk-cache capacity at ``time``."""

    node: int
    time: Seconds
    lost_mb: MB

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ValueError("disk-loss node must be >= 0")
        if self.lost_mb <= 0:
            raise ValueError("lost_mb must be positive")


@dataclass(frozen=True)
class FaultSpec:
    """Complete, deterministic fault plan for one batch run.

    Parameters
    ----------
    node_crashes / link_slowdowns / disk_losses:
        Timed events, injected in simulated time.
    transfer_failure_rate:
        Per-attempt probability that an on-demand staging transfer fails
        mid-flight (the attempt still occupies its time slot, then the
        runtime backs off and retries from the next-cheapest source).
    max_transfer_attempts:
        Attempts per staging session; the last one always succeeds so the
        simulation cannot livelock (the paper's platform has no notion of
        a permanently unreachable file).
    backoff_base_s / backoff_factor / backoff_cap_s:
        Exponential backoff between attempts:
        ``min(cap, base * factor**attempt)`` simulated seconds.
    seed:
        Seeds the counter-based failure draws (:class:`~repro.faults.model.FaultModel`).
    """

    node_crashes: tuple[NodeCrash, ...] = ()
    transfer_failure_rate: Dimensionless = 0.0
    max_transfer_attempts: int = 4
    backoff_base_s: Seconds = 2.0
    backoff_factor: Dimensionless = 2.0
    backoff_cap_s: Seconds = 60.0
    link_slowdowns: tuple[LinkSlowdown, ...] = ()
    disk_losses: tuple[DiskLoss, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.transfer_failure_rate <= 1.0:
            raise ValueError("transfer_failure_rate must be in [0, 1]")
        if self.max_transfer_attempts < 1:
            raise ValueError("max_transfer_attempts must be >= 1")
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("backoff times must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        seen: set[int] = set()
        for crash in self.node_crashes:
            if crash.node in seen:
                raise ValueError(f"duplicate crash for node {crash.node}")
            seen.add(crash.node)
        # Normalise list inputs (e.g. straight from JSON) to tuples so the
        # spec is hashable-by-value and safe to share across processes.
        object.__setattr__(self, "node_crashes", tuple(self.node_crashes))
        object.__setattr__(self, "link_slowdowns", tuple(self.link_slowdowns))
        object.__setattr__(self, "disk_losses", tuple(self.disk_losses))

    @property
    def is_null(self) -> bool:
        """True when this spec injects nothing at all (the default)."""
        return (
            not self.node_crashes
            and self.transfer_failure_rate == 0.0
            and not self.link_slowdowns
            and not self.disk_losses
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready dict form (inverse of :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> FaultSpec:
        """Build a spec from its JSON dict form; unknown keys are errors."""
        known = set(cls.__dataclass_fields__)
        unknown = set(doc) - known
        if unknown:
            raise ValueError(
                f"unknown fault-spec key(s): {sorted(unknown)} "
                f"(known: {sorted(known)})"
            )
        fields = dict(doc)
        fields["node_crashes"] = tuple(
            NodeCrash(**c) for c in fields.get("node_crashes", ())
        )
        fields["link_slowdowns"] = tuple(
            LinkSlowdown(**s) for s in fields.get("link_slowdowns", ())
        )
        fields["disk_losses"] = tuple(
            DiskLoss(**d) for d in fields.get("disk_losses", ())
        )
        return cls(**fields)
