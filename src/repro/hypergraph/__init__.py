"""Multilevel hypergraph partitioning substrate (PaToH-style, from scratch).

The paper's BiPartition scheduler needs two flavours of hypergraph
partitioning (Section 5):

* classic K-way partitioning under the connectivity-1 metric
  (:func:`kway_partition`) for mapping a sub-batch onto compute nodes, and
* Bounded Incident Net Weight partitioning (:func:`binw_partition`) for
  cutting a batch into sub-batches whose file footprints fit the cluster's
  aggregate disk space.

Both are built on a multilevel pipeline: heavy-connectivity-matching
coarsening, greedy-growing initial bipartitioning, FM refinement, and
recursive bisection with net splitting.

>>> import numpy as np
>>> from repro.hypergraph import Hypergraph, kway_partition, connectivity_1
>>> h = Hypergraph(4, [[0, 1], [2, 3], [1, 2]])
>>> parts = kway_partition(h, 2, np.random.default_rng(0))
>>> connectivity_1(h, parts)
1.0
"""

from .binw import BinwResult, binw_partition
from .bisect import multilevel_bisect
from .coarsen import coarsen, heavy_connectivity_matching
from .hypergraph import Hypergraph, PartitionStats
from .initial import (
    greedy_growing_bipartition,
    initial_bipartition,
    random_bipartition,
)
from .metrics import (
    connectivity_1,
    cut_weight,
    imbalance,
    incident_net_weights,
    net_connectivity,
    part_weights,
    partition_stats,
    validate_partition,
)
from .recursive import kway_partition
from .refine import compute_gains, fm_refine

__all__ = [
    "Hypergraph",
    "PartitionStats",
    "BinwResult",
    "binw_partition",
    "kway_partition",
    "multilevel_bisect",
    "coarsen",
    "heavy_connectivity_matching",
    "initial_bipartition",
    "greedy_growing_bipartition",
    "random_bipartition",
    "fm_refine",
    "compute_gains",
    "connectivity_1",
    "cut_weight",
    "net_connectivity",
    "part_weights",
    "imbalance",
    "incident_net_weights",
    "partition_stats",
    "validate_partition",
]
