"""Fault-injection experiments: the makespan-degradation curve.

Not a paper figure — the paper's evaluation assumes a reliable platform —
but the natural stress test of its central claim: the schedulers' advantage
comes from *data-aware placement*, so it should survive (degrade gracefully
under) transient transfer failures, link slowdowns and node crashes rather
than evaporate.

:func:`degradation_curve` tabulates makespan vs transfer-failure rate per
scheme. ``repro chaos`` (and so the nightly chaos CI job) runs it audited
unless told ``--no-audit``: every cell re-verifies the execution invariants
and raises :class:`~repro.analysis.audit.AuditError` on any violation.
Rate ``0.0`` is a genuinely null spec (:func:`repro.faults.resolve_spec`
maps it to ``None``) and therefore bit-identical to the fault-free
baseline. Cells route through :func:`repro.parallel.map_configs`, so they
share the process fan-out and the on-disk result cache with the figure
sweeps (fault specs are part of the cache key — see
``repro.parallel.cache``).
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

from .figures import _sweep
from .report import Table
from .runner import ExperimentConfig, default_scheduler_kwargs

if TYPE_CHECKING:  # pragma: no cover
    from ..parallel import ResultCache

__all__ = ["CHAOS_SCHEMES", "degradation_curve"]

#: Schemes exercised by the nightly chaos sweep: both proposed schemes'
#: cheap halves plus both baselines (IP is excluded for runtime, as in the
#: paper's own large sweeps).
CHAOS_SCHEMES = ("bipartition", "minmin", "jdp")


def _fault_cell(
    experiment: str,
    scheme: str,
    rate: float,
    *,
    workload: str,
    overlap: str,
    num_tasks: int,
    storage: str,
    seed: int,
    fault_seed: int,
    crash_node: int | None,
    crash_time: float | None,
    audit: bool,
    ip_time_limit: float,
) -> ExperimentConfig:
    faults: dict | None = {
        "transfer_failure_rate": rate,
        "seed": fault_seed,
    }
    if crash_node is not None:
        assert faults is not None
        faults["node_crashes"] = [
            {"node": crash_node, "time": 0.0 if crash_time is None else crash_time}
        ]
    if rate == 0.0 and crash_node is None:
        # A fully null dict still resolves to None, but passing None keeps
        # the cache key identical to historical fault-free runs.
        faults = None
    return ExperimentConfig(
        experiment=experiment,
        workload=workload,
        overlap=overlap,
        num_tasks=num_tasks,
        storage=storage,
        scheme=scheme,
        seed=seed,
        scheduler_kwargs=default_scheduler_kwargs(scheme, ip_time_limit),
        audit=audit,
        faults=faults,
    )


def degradation_curve(
    rates: Sequence[float] = (0.0, 0.1, 0.2, 0.4),
    schemes: Sequence[str] = CHAOS_SCHEMES,
    workload: str = "image",
    overlap: str = "high",
    num_tasks: int = 50,
    storage: str = "xio",
    seed: int = 0,
    fault_seed: int = 0,
    crash_node: int | None = None,
    crash_time: float | None = None,
    audit: bool = False,
    ip_time_limit: float = 20.0,
    workers: int = 1,
    cache: ResultCache | None = None,
) -> Table:
    """Makespan vs transient transfer-failure rate, per scheme.

    The x column is the injected failure rate; optionally a single node
    crash (``crash_node`` at ``crash_time``) is layered onto every non-zero
    cell to also exercise dynamic rescheduling. Expected shape: makespan
    grows smoothly with the rate (retries + backoff + failover cost), and
    the scheme ranking of Figs. 3/4 is preserved — a cliff or a rank flip
    is a regression in the recovery path, which is exactly what the nightly
    chaos job looks for in the uploaded artifact.
    """
    crash_note = (
        f", crash node {crash_node}@{crash_time or 0.0:g}s"
        if crash_node is not None
        else ""
    )
    table = Table(
        f"faults: {workload.upper()} {overlap} overlap (n={num_tasks}, "
        f"{storage.upper()}), makespan vs transfer-failure rate{crash_note}"
    )
    cells = [
        (
            _fault_cell(
                "faults-degradation",
                scheme,
                rate,
                workload=workload,
                overlap=overlap,
                num_tasks=num_tasks,
                storage=storage,
                seed=seed,
                fault_seed=fault_seed,
                crash_node=crash_node if rate > 0.0 else None,
                crash_time=crash_time,
                audit=audit,
                ip_time_limit=ip_time_limit,
            ),
            rate,
        )
        for rate in rates
        for scheme in schemes
    ]
    return _sweep(table, cells, workers, cache)

