"""Wall-clock benchmarks: the incremental MCT kernel vs its reference oracle.

The incremental MCT kernel (:func:`repro.core.mct_kernel.incremental_mct_map`,
which every MCT-family scheduler runs) is a *decision-identical* rewrite of
the original full-rescan loop, kept as
:func:`~repro.core.mct_kernel.reference_mct_map` — the only observable
difference allowed is wall-clock time. This module measures that difference
on fixed *mapping* cells (one whole-batch mapping of an MCT-family scheme:
the Fig. 6b scheduling-overhead axis, where the paper's O(T²·C) cost lives)
and **refuses to report a speedup that isn't decision-checked**: every cell
runs both kernels and asserts identical mappings before timing is accepted.
The headline trajectory cell is MinMin at n=1000, c=32 — the largest Fig. 6b
point. Whole-batch wall time (mapping plus the Section 6 runtime) is timed
by the ``perfbench/`` benchmark instead.

Timing uses min-of-``repeats``: the minimum is the standard robust
estimator for "how fast can this code run" under scheduler noise (both
kernels get the same treatment). Results serialise to a
``BENCH_<sha>.json``-style document via :func:`write_bench`; the CI
``perf-smoke`` job and ``benchmarks/test_speed_schedulers.py`` gate on
them. See ``docs/performance.md``.
"""

from __future__ import annotations

import json
import os
import platform as _platform
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from .. import __version__
from ..cluster.platform import osc_xio
from ..cluster.state import ClusterState
from ..core.base import make_scheduler
from ..core.mct_kernel import build_mct_setup, reference_mct_map
from ..core.minmin import MinMinScheduler
from ..obs.core import telemetry
from ..workloads.image import generate_image_batch

__all__ = [
    "BenchCellResult",
    "append_trajectory",
    "bench_mapping_cell",
    "default_bench_cells",
    "run_bench_cells",
    "write_bench",
]


@dataclass(frozen=True)
class BenchCellResult:
    """One decision-checked timing cell (all times in wall-clock seconds)."""

    cell: str
    scheme: str
    num_tasks: int
    num_compute: int
    repeats: int
    reference_s: float
    optimized_s: float
    #: Work accounting of the incremental kernel's last run (mapping cells).
    kernel_stats: dict[str, float] | None = None

    @property
    def speedup(self) -> float:
        return self.reference_s / self.optimized_s if self.optimized_s else 0.0

    def to_dict(self) -> dict[str, object]:
        doc = asdict(self)
        doc["speedup"] = round(self.speedup, 3)
        doc["reference_s"] = round(self.reference_s, 6)
        doc["optimized_s"] = round(self.optimized_s, 6)
        return doc


@dataclass(frozen=True)
class _Cell:
    """A mapping cell spec for :func:`run_bench_cells`."""

    cell: str
    scheme: str
    num_tasks: int
    num_compute: int


def _fig6b_inputs(num_tasks: int, num_compute: int, seed: int):
    """The Fig. 6b workload/platform pair at one grid point."""
    batch = generate_image_batch(num_tasks, "high", num_storage=8, seed=seed)
    platform = osc_xio(num_compute=num_compute, num_storage=8)
    return batch, platform


def bench_mapping_cell(
    scheme: str,
    num_tasks: int,
    num_compute: int,
    *,
    seed: int = 0,
    repeats: int = 5,
    cell: str | None = None,
) -> BenchCellResult:
    """Time one whole-batch mapping: ``reference_mct_map`` vs ``next_subbatch``.

    Raises ``AssertionError`` if the two kernels ever disagree on the
    mapping — a speedup over a wrong answer is not a speedup.
    """
    batch, platform = _fig6b_inputs(num_tasks, num_compute, seed)
    task_ids = [t.task_id for t in batch.tasks]
    was_enabled = telemetry.enabled
    telemetry.disable()  # time the kernel, not the instrumentation
    try:
        # The kernels are interleaved (ref, opt, ref, opt, ...) so slow CPU
        # drift — thermal throttling, noisy-neighbour VMs — hits both
        # minimum-of-repeats estimates alike instead of whichever kernel
        # happened to run second.
        timings = {True: float("inf"), False: float("inf")}
        mappings: dict[bool, dict[str, int]] = {}
        stats: dict[str, float] | None = None
        for _ in range(repeats):
            for reference in (True, False):
                state = ClusterState.initial(platform, batch)
                sched = make_scheduler(scheme, seed=0)
                assert isinstance(sched, MinMinScheduler)
                t0 = time.perf_counter()
                if reference:
                    mapping = reference_mct_map(
                        build_mct_setup(batch, task_ids, platform, state),
                        sched._pick, sched.pick_rule, None,
                    )
                else:
                    mapping = sched.next_subbatch(
                        batch, task_ids, platform, state
                    ).mapping
                timings[reference] = min(
                    timings[reference], time.perf_counter() - t0
                )
                mappings[reference] = mapping
                if not reference and sched.kernel_stats is not None:
                    stats = sched.kernel_stats.to_dict()
    finally:
        if was_enabled:
            telemetry.enable()
    assert mappings[True] == mappings[False], (
        f"{scheme} n={num_tasks} c={num_compute}: optimized mapping "
        "diverged from reference"
    )
    return BenchCellResult(
        cell=cell or f"mapping/{scheme}/n{num_tasks}c{num_compute}",
        scheme=scheme,
        num_tasks=num_tasks,
        num_compute=num_compute,
        repeats=repeats,
        reference_s=timings[True],
        optimized_s=timings[False],
        kernel_stats=stats,
    )


def default_bench_cells(full: bool = False) -> list[_Cell]:
    """The fixed grid: quick (CI perf-smoke) or full (paper trajectory).

    Quick keeps CI under a minute and includes the Fig. 6b headline cell
    (MinMin, n=1000, c=32 — the acceptance gate for the incremental
    kernels); full adds the headline cell's MCT-family siblings and a
    smaller MinMin point.
    """
    cells = [
        # Quick mapping cells are MinMin-only on purpose: the CI gate
        # (``--min-speedup 2.0``) applies to every mapping cell in the
        # run, and only MinMin — whose selection is a single flat argmin —
        # clears 2x at these sizes. MaxMin/Sufferage spend most of their
        # round in their own per-row selection scans, which the
        # incremental kernel deliberately leaves untouched (they are the
        # tie-breaking semantics); their smaller speedups are tracked
        # ungated in the full grid and in benchmarks/.
        _Cell("mapping/minmin/n600c32", "minmin", 600, 32),
        _Cell("mapping/minmin/n1000c32", "minmin", 1000, 32),
    ]
    if full:
        cells += [
            _Cell("mapping/maxmin/n1000c32", "maxmin", 1000, 32),
            _Cell("mapping/sufferage/n1000c32", "sufferage", 1000, 32),
            _Cell("mapping/minmin/n400c16", "minmin", 400, 16),
        ]
    return cells


def run_bench_cells(
    cells: list[_Cell], repeats: int = 5
) -> list[BenchCellResult]:
    return [
        bench_mapping_cell(
            c.scheme, c.num_tasks, c.num_compute, repeats=repeats, cell=c.cell
        )
        for c in cells
    ]


def _current_sha() -> str:
    """Short commit id for trajectory points (env > git > ``unknown``).

    CI exports ``GITHUB_SHA``; local runs fall back to ``git rev-parse``.
    Benchmarks are wall-clock territory, so a subprocess here is fine
    (this module is already outside the simulated-time core).
    """
    env = os.environ.get("GITHUB_SHA", "").strip()
    if env:
        return env[:8]
    try:
        import subprocess

        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def append_trajectory(
    results: list[BenchCellResult], path: str | Path, sha: str | None = None
) -> Path:
    """Append one speedup point per cell to the JSONL bench trajectory.

    The trajectory (``benchmarks/BENCH_trajectory.jsonl`` by convention) is
    the cross-commit history the HTML report renders as a sparkline: one
    ``repro-bench-point`` record per (commit, cell), in append order. Every
    point is decision-checked by construction — the cell functions assert
    reference/optimized identity before any timing is accepted.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    sha = _current_sha() if sha is None else sha
    with open(path, "a") as fh:
        for r in results:
            point = {
                "kind": "repro-bench-point",
                "sha": sha,
                "cell": r.cell,
                "speedup": round(r.speedup, 3),
                "decision_checked": True,
            }
            fh.write(json.dumps(point, sort_keys=True) + "\n")
    return path


def write_bench(results: list[BenchCellResult], out: str | Path) -> Path:
    """Write a ``BENCH_<sha>.json``-style document (see the CI artifact)."""
    doc = {
        "kind": "repro-kernel-bench",
        "bench_version": 1,
        "repro_version": __version__,
        "python": _platform.python_version(),
        "machine": _platform.machine(),
        "cells": {r.cell: r.to_dict() for r in results},
    }
    out = Path(out)
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out
