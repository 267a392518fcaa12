"""Parallel experiment fan-out with content-addressed result caching.

The paper's figures are sweeps of independent experiment cells; this
package farms those cells out across processes (:func:`map_configs`) and
replays previously simulated cells from an on-disk JSON cache
(:class:`ResultCache`), the same bulk-job shape STAR-Scheduler and DIANA
exploit for throughput. A cell's one product is its
:class:`~repro.experiments.report.Record`: that is what a sweep returns and
what the cache stores. ``repro.experiments.figures``, the CLI's
``figure``/``chaos`` sweeps and the benchmark harness all route through
this layer; ``repro run`` runs its few cells in process.
"""

from .cache import CACHE_SALT, DEFAULT_CACHE_DIR, CacheStats, ResultCache, config_key
from .pool import fork_available, map_configs

__all__ = [
    "CACHE_SALT",
    "DEFAULT_CACHE_DIR",
    "CacheStats",
    "ResultCache",
    "config_key",
    "fork_available",
    "map_configs",
]
