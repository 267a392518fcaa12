"""One builder per figure of the paper's evaluation (Section 7).

Each function runs the corresponding sweep and returns a
:class:`~repro.experiments.report.Table`. Defaults reproduce the paper's
configurations; the benchmark harness passes scaled-down sizes so a full
regeneration stays laptop-sized (see ``benchmarks/``), since the substrate
here is a simulator rather than the authors' clusters. The *shape* of every
figure — which scheme wins, by what factor, where trends bend — is preserved
at either scale and asserted by the benchmarks.

Every sweep routes its independent cells through
:func:`repro.parallel.map_configs`, so figures regenerate across
``workers`` processes (1, the default, runs serially) and replay unchanged
cells from the on-disk ``cache`` (a :class:`repro.parallel.ResultCache`;
``None``, the default, simulates every cell).
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

from .report import Table
from .runner import ExperimentConfig, default_scheduler_kwargs

if TYPE_CHECKING:  # pragma: no cover
    from ..parallel import ResultCache

__all__ = [
    "fig3_image_overlap",
    "fig4_sat_overlap",
    "fig5a_replication_benefit",
    "fig5b_batch_size",
    "fig6a_compute_scaling",
    "fig6b_scheduling_overhead",
]

PROPOSED = ("ip", "bipartition")
BASELINES = ("minmin", "jdp")
ALL_SCHEMES = PROPOSED + BASELINES


def _sweep(
    table: Table,
    cells: Sequence[tuple[ExperimentConfig, float | str | None]],
    workers: int,
    cache: ResultCache | None,
) -> Table:
    """Fan the sweep's cells out through ``repro.parallel`` and collect."""
    # Imported here, not at module top: repro.parallel itself imports the
    # experiment runner, and this package's __init__ imports figures.
    from ..parallel import map_configs

    configs = [cfg for cfg, _ in cells]
    xs = [x for _, x in cells]
    for record in map_configs(configs, xs, workers=workers, cache=cache):
        table.add(record)
    return table


def _overlap_sweep(
    experiment: str,
    workload: str,
    overlaps: Sequence[str],
    storage: str,
    num_tasks: int,
    schemes: Sequence[str],
    seed: int,
    ip_time_limit: float,
    workers: int = 1,
    cache: ResultCache | None = None,
) -> Table:
    table = Table(
        f"{experiment}: {workload.upper()} batch execution time on "
        f"{storage.upper()} (n={num_tasks}, 4 compute + 4 storage)"
    )
    cells = [
        (
            ExperimentConfig(
                experiment=experiment,
                workload=workload,
                overlap=overlap,
                num_tasks=num_tasks,
                storage=storage,
                scheme=scheme,
                seed=seed,
                scheduler_kwargs=default_scheduler_kwargs(scheme, ip_time_limit),
            ),
            overlap,
        )
        for overlap in overlaps
        for scheme in schemes
    ]
    return _sweep(table, cells, workers, cache)


def fig3_image_overlap(
    storage: str = "osumed",
    num_tasks: int = 100,
    schemes: Sequence[str] = ALL_SCHEMES,
    seed: int = 0,
    ip_time_limit: float = 60.0,
    workers: int = 1,
    cache: ResultCache | None = None,
) -> Table:
    """Figure 3: IMAGE batch execution time vs overlap level.

    Paper: IP and BiPartition beat MinMin and JDP+DLL at every overlap
    level, with the advantage largest for high overlap; 3(a) is the OSUMED
    storage cluster, 3(b) XIO.
    """
    return _overlap_sweep(
        f"fig3-{storage}",
        "image",
        ("high", "medium", "zero"),
        storage,
        num_tasks,
        schemes,
        seed,
        ip_time_limit,
        workers,
        cache,
    )


def fig4_sat_overlap(
    storage: str = "osumed",
    num_tasks: int = 100,
    schemes: Sequence[str] = ALL_SCHEMES,
    seed: int = 0,
    ip_time_limit: float = 60.0,
    workers: int = 1,
    cache: ResultCache | None = None,
) -> Table:
    """Figure 4: SAT batch execution time vs overlap level (as Fig. 3)."""
    return _overlap_sweep(
        f"fig4-{storage}",
        "sat",
        ("high", "medium", "low"),
        storage,
        num_tasks,
        schemes,
        seed,
        ip_time_limit,
        workers,
        cache,
    )


def fig5a_replication_benefit(
    num_tasks: int = 100,
    schemes: Sequence[str] = ("bipartition",),
    seed: int = 0,
    ip_time_limit: float = 60.0,
    workers: int = 1,
    cache: ResultCache | None = None,
) -> Table:
    """Figure 5(a): benefit of compute-to-compute replication.

    8 OSC compute nodes + 4 OSUMED storage nodes, 100-task high-overlap
    batches of both applications, each scheme run with replication enabled
    and disabled. Paper: replication wins clearly because it offloads the
    contended storage cluster.
    """
    table = Table(
        f"fig5a: replication vs no replication "
        f"(n={num_tasks}, 8 compute + 4 OSUMED storage, high overlap)"
    )
    cells = [
        (
            ExperimentConfig(
                experiment="fig5a",
                workload=workload,
                overlap="high",
                num_tasks=num_tasks,
                storage="osumed",
                num_compute=8,
                num_storage=4,
                scheme=scheme,
                seed=seed,
                allow_replication=allow,
                scheduler_kwargs=default_scheduler_kwargs(scheme, ip_time_limit),
            ),
            workload,
        )
        for workload in ("image", "sat")
        for scheme in schemes
        for allow in (True, False)
    ]
    return _sweep(table, cells, workers, cache)


def fig5b_batch_size(
    batch_sizes: Sequence[int] = (500, 1000, 2000, 4000),
    disk_space_mb: float = 40_000.0,
    schemes: Sequence[str] = ("bipartition",) + BASELINES,
    seed: int = 0,
    candidate_limit: int | None = 25,
    workers: int = 1,
    cache: ResultCache | None = None,
) -> Table:
    """Figure 5(b): batch execution time vs batch size under disk pressure.

    High-overlap IMAGE batches of 500-4000 tasks on 4 compute + 4 XIO
    storage nodes, 40 GB disk per compute node. Paper: the base schemes
    degrade faster as evictions mount; BiPartition's sub-batches and
    placements keep evictions low. (IP is omitted, as in the paper, because
    its scheduling overhead is prohibitive at this scale.)
    """
    table = Table(
        f"fig5b: IMAGE high overlap, batch-size sweep "
        f"(disk {disk_space_mb / 1000:.0f} GB/node, 4 compute + 4 XIO)"
    )
    cells = [
        (
            ExperimentConfig(
                experiment="fig5b",
                workload="image",
                overlap="high",
                num_tasks=n,
                storage="xio",
                disk_space_mb=disk_space_mb,
                scheme=scheme,
                seed=seed,
                candidate_limit=candidate_limit,
            ),
            n,
        )
        for n in batch_sizes
        for scheme in schemes
    ]
    return _sweep(table, cells, workers, cache)


def fig6a_compute_scaling(
    node_counts: Sequence[int] = (2, 4, 8, 16, 32),
    num_tasks: int = 1000,
    schemes: Sequence[str] = ("bipartition",) + BASELINES,
    seed: int = 0,
    candidate_limit: int | None = 25,
    workers: int = 1,
    cache: ResultCache | None = None,
) -> Table:
    """Figure 6(a): batch execution time vs number of compute nodes.

    1000 high-overlap IMAGE tasks, 8 XIO storage nodes, 2-32 compute nodes.
    Paper: BiPartition is best throughout; execution time stops improving
    (and rises at 32 nodes) as storage contention and file spreading grow.
    """
    table = Table(
        f"fig6a: IMAGE high overlap (n={num_tasks}), compute-node sweep "
        f"(8 XIO storage)"
    )
    cells = [
        (
            ExperimentConfig(
                experiment="fig6a",
                workload="image",
                overlap="high",
                num_tasks=num_tasks,
                storage="xio",
                num_compute=c,
                num_storage=8,
                scheme=scheme,
                seed=seed,
                candidate_limit=candidate_limit,
            ),
            c,
        )
        for c in node_counts
        for scheme in schemes
    ]
    return _sweep(table, cells, workers, cache)


def fig6b_scheduling_overhead(
    node_counts: Sequence[int] = (2, 4, 8, 16, 32),
    num_tasks: int = 1000,
    schemes: Sequence[str] = ALL_SCHEMES,
    ip_task_cap: int = 32,
    ip_time_limit: float = 20.0,
    seed: int = 0,
    candidate_limit: int | None = 25,
    workers: int = 1,
    cache: ResultCache | None = None,
) -> Table:
    """Figure 6(b): per-task scheduling time (ms) vs number of compute nodes.

    Paper: IP's overhead is orders of magnitude above the rest and grows
    steeply with the configuration; BiPartition and JDP stay tiny; MinMin
    sits in between because it iterates over all task-node pairs each step.
    IP runs on a truncated batch (``ip_task_cap``), as even the paper could
    not run it at full scale; its per-task overhead is what is reported.
    """
    table = Table(
        f"fig6b: per-task scheduling overhead (ms), IMAGE high overlap, "
        f"8 XIO storage"
    )
    cells = [
        (
            ExperimentConfig(
                experiment="fig6b",
                workload="image",
                overlap="high",
                num_tasks=min(num_tasks, ip_task_cap) if scheme == "ip" else num_tasks,
                storage="xio",
                num_compute=c,
                num_storage=8,
                scheme=scheme,
                seed=seed,
                candidate_limit=candidate_limit,
                scheduler_kwargs=default_scheduler_kwargs(scheme, ip_time_limit),
            ),
            c,
        )
        for c in node_counts
        for scheme in schemes
    ]
    return _sweep(table, cells, workers, cache)
