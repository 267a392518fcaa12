"""Shared helpers for the figure-regeneration benchmarks.

Each benchmark runs one paper figure's sweep at a reduced-but-faithful
scale (the substrate is a simulator, so only relative behaviour matters),
prints the regenerated table (visible with ``pytest -s`` and recorded in
the captured output), and asserts the figure's qualitative shape.

Set ``REPRO_PAPER_SCALE=1`` to run the full paper-scale configurations
(100-4000 task batches; expect long runtimes, dominated by the IP solver).

The figure sweeps route through ``repro.parallel``: set
``REPRO_BENCH_WORKERS=N`` to fan each sweep's cells across N processes and
``REPRO_BENCH_CACHE=<dir>`` to replay unchanged cells from an on-disk
result cache (a re-run with the same scale is then pure cache hits); the
``fan`` fixture passes both to the figure builders.
"""

import os

import pytest

from repro.parallel import ResultCache


def paper_scale() -> bool:
    return os.environ.get("REPRO_PAPER_SCALE", "0") == "1"


@pytest.fixture(scope="session")
def fan():
    """The figure builders' ``workers``/``cache`` arguments, from the
    ``REPRO_BENCH_WORKERS``/``REPRO_BENCH_CACHE`` environment variables
    (serial and uncached when they are unset)."""
    workers = os.environ.get("REPRO_BENCH_WORKERS", "").strip()
    cache_dir = os.environ.get("REPRO_BENCH_CACHE", "").strip()
    return dict(
        workers=int(workers) if workers else 1,
        cache=ResultCache(cache_dir) if cache_dir else None,
    )


@pytest.fixture
def show():
    """Print a Table through the capture buffer so it lands in reports."""

    def _show(table):
        print("\n" + table.render() + "\n")
        return table

    return _show


def series(table, scheme, workload=None):
    """Extract the makespan series of one scheme, ordered by x."""
    recs = [
        r
        for r in table.records
        if r.scheme == scheme and (workload is None or r.workload == workload)
    ]
    return {r.x: r.makespan_s for r in recs}


def overhead_series(table, scheme):
    recs = [r for r in table.records if r.scheme == scheme]
    return {r.x: r.scheduling_ms_per_task for r in recs}
