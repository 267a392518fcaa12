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
import os
import random
from concurrent.futures import ProcessPoolExecutor
from collections.abc import Iterator, Sequence

import numpy as np

from ..experiments.report import Record
from ..experiments.runner import ExperimentConfig, run_config
from .cache import ResultCache, config_key

__all__ = [
    "configure",
    "default_cache",
    "default_workers",
    "fork_available",
    "map_configs",
]

# Module-wide defaults, used when callers pass ``workers=None``/``cache=None``
# all the way down (the benchmark harness and figure drivers do exactly
# that). ``configure`` overrides them; the REPRO_WORKERS / REPRO_CACHE_DIR
# environment variables seed them for headless runs.
_defaults: dict = {"workers": None, "cache": None}


def configure(*, workers: int | None = None, cache: ResultCache | None = None):
    """Set process-wide defaults for :func:`map_configs`.

    ``workers=None`` keeps environment/serial resolution; ``cache=None``
    disables the default cache.
    """
    _defaults["workers"] = workers
    _defaults["cache"] = cache


def default_workers() -> int:
    """Resolve the default worker count (configure > env > serial)."""
    if _defaults["workers"] is not None:
        return max(1, int(_defaults["workers"]))
    env = os.environ.get("REPRO_WORKERS", "")
    if env.strip():
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1


def default_cache() -> ResultCache | None:
    """Resolve the default cache (configure > REPRO_CACHE_DIR env > none)."""
    if _defaults["cache"] is not None:
        return _defaults["cache"]
    env = os.environ.get("REPRO_CACHE_DIR", "")
    if env.strip():
        return ResultCache(env)
    return None


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


def _resolve_cache(cache) -> ResultCache | None:
    # ``None`` means "use the configured default"; ``False`` forces off.
    # (An explicit identity check: an empty ResultCache is falsy via __len__.)
    if cache is None:
        return default_cache()
    if cache is False:
        return None
    return cache


def map_configs(
    configs: Sequence[ExperimentConfig],
    xs: Sequence[float | str | None] | None = None,
    *,
    workers: int | None = None,
    cache: ResultCache | None | bool = None,
) -> list[Record]:
    """Fan independent experiment cells out across processes.

    Drop-in replacement for ``[run_config(c, x) for c, x in zip(...)]``:
    returns the same :class:`Record` list, in the same order, with the same
    values — just computed in parallel and/or replayed from the cache.
    Cached cells are never dispatched, and each fresh record is written
    back to the cache as its cell returns, so a failing cell (or an
    interrupt) keeps every cell that finished before it.
    """
    configs = list(configs)
    xs = list(xs) if xs is not None else [None] * len(configs)
    if len(xs) != len(configs):
        raise ValueError(f"got {len(configs)} configs but {len(xs)} x values")
    workers = default_workers() if workers is None else max(1, int(workers))
    store = _resolve_cache(cache)

    records: list[Record | None] = [None] * len(configs)
    pending: list[int] = []
    for i, (cfg, x) in enumerate(zip(configs, xs, strict=True)):
        hit = store.get(cfg, x) if store is not None else None
        if hit is not None:
            records[i] = hit
        else:
            pending.append(i)

    def keep(fresh: Iterator[Record]) -> None:
        for i, record in zip(pending, fresh, strict=True):
            records[i] = record
            if store is not None:
                store.put(configs[i], xs[i], record)

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
