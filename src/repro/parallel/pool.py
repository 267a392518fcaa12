"""Parallel fan-out of independent experiment cells across processes.

Every paper figure is a sweep over independent ``(config, x)`` cells, so
the sweep is embarrassingly parallel: :func:`map_configs` dispatches cells
to a ``ProcessPoolExecutor`` in chunks, seeds each cell's global RNGs
deterministically from its config hash (so results never depend on which
worker ran a cell, or in what order), consults an optional
:class:`~repro.parallel.cache.ResultCache` before simulating anything, and
falls back to plain serial execution when ``workers <= 1``, only one cell
is pending, or the platform cannot fork. A cell's one product is its
:class:`~repro.experiments.report.Record`.
"""

from __future__ import annotations

import math
import random
from concurrent.futures import ProcessPoolExecutor
from collections.abc import Iterator, Sequence

import numpy as np

from ..experiments.report import Record
from ..experiments.runner import ExperimentConfig, run_config
from .cache import ResultCache, config_key

__all__ = ["fork_available", "map_configs"]


def fork_available() -> bool:
    """Whether this platform supports fork-based worker processes."""
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


def _seed_cell(cfg: ExperimentConfig, x: float | str | None):
    """Deterministically seed global RNGs from the cell's content hash.

    The simulator itself only uses per-call ``default_rng(cfg.seed)``
    generators, but seeding the globals too guarantees any stray global-RNG
    use stays reproducible regardless of worker assignment or run order.
    """
    seed = int(config_key(cfg, x)[:8], 16)
    # The reseed is derived from the cache key itself, so it is the same for
    # every execution of the cell — pure by construction, hence the escapes.
    random.seed(seed)  # repro: noqa[RPR009]
    np.random.seed(seed)  # repro: noqa[RPR009]


def _run_cell(cfg: ExperimentConfig, x: float | str | None) -> Record:
    _seed_cell(cfg, x)
    return run_config(cfg, x)


def map_configs(
    configs: Sequence[ExperimentConfig],
    xs: Sequence[float | str | None] | None = None,
    *,
    workers: int = 1,
    cache: ResultCache | None = None,
) -> list[Record]:
    """Fan independent experiment cells out across processes.

    Drop-in replacement for ``[run_config(c, x) for c, x in zip(...)]``:
    returns the same :class:`Record` list, in the same order, with the same
    values — just computed in parallel and/or replayed from the cache.
    Cached cells are never dispatched, and each fresh record is written
    back to the cache as its cell returns, so a failing cell (or an
    interrupt) keeps every cell that finished before it. ``workers <= 1``
    runs serially; ``cache=None`` neither reads nor writes a cache.
    """
    configs = list(configs)
    xs = list(xs) if xs is not None else [None] * len(configs)
    if len(xs) != len(configs):
        raise ValueError(f"got {len(configs)} configs but {len(xs)} x values")

    records: list[Record | None] = [None] * len(configs)
    pending: list[int] = []
    for i, (cfg, x) in enumerate(zip(configs, xs, strict=True)):
        hit = cache.get(cfg, x) if cache is not None else None
        if hit is not None:
            records[i] = hit
        else:
            pending.append(i)

    def keep(fresh: Iterator[Record]) -> None:
        for i, record in zip(pending, fresh, strict=True):
            records[i] = record
            if cache is not None:
                cache.put(configs[i], xs[i], record)

    if pending:
        todo = [configs[i] for i in pending]
        todo_xs = [xs[i] for i in pending]
        if workers > 1 and len(pending) > 1 and fork_available():
            import multiprocessing

            nworkers = min(workers, len(pending))
            chunksize = max(1, math.ceil(len(pending) / (nworkers * 4)))
            ctx = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(max_workers=nworkers, mp_context=ctx) as pool:
                keep(pool.map(_run_cell, todo, todo_xs, chunksize=chunksize))
        else:
            keep(map(_run_cell, todo, todo_xs))

    return [r for r in records if r is not None]
