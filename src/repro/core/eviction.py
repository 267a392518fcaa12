"""Disk file eviction policies (Section 4.3).

A policy ranks a node's cached files *most evictable first*. Two contexts use
it: on-demand eviction during execution (base schemes under disk pressure)
and the between-sub-batch eviction phase of the proposed schemes.

* :class:`PopularityPolicy` implements Eq. 22: ``popularity = pending
  accesses × file size / number of copies``; files are evicted in increasing
  popularity, so rarely-needed, small, well-replicated files go first.
* :class:`LRUPolicy` evicts least-recently-used first (used with the Job
  Data Present / Data Least Loaded baseline, as in Ranganathan & Foster).
* :class:`SizePolicy` (smallest first) is an ablation baseline.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Protocol

from ..analysis.dims import MB
from ..batch import Batch, reader_counts
from ..cluster.state import ClusterState

__all__ = ["EvictionPolicy", "PopularityPolicy", "LRUPolicy", "SizePolicy"]


class EvictionPolicy(Protocol):
    """Ranks eviction candidates on a node, most evictable first."""

    name: str

    def order(
        self, state: ClusterState, node: int, candidates: Iterable[str]
    ) -> list[str]: ...

    def update_pending(self, pending_counts: dict[str, int]) -> None: ...


class PopularityPolicy:
    """Eq. 22: evict in increasing ``freq × size / copies`` order.

    ``pending_counts`` maps file id to the number of *pending* task accesses
    (tasks not yet executed); the driver refreshes it as tasks complete.
    """

    name = "popularity"

    def __init__(self, pending_counts: dict[str, int] | None = None) -> None:
        self._pending: dict[str, int] = dict(pending_counts or {})

    @classmethod
    def for_batch(cls, batch: Batch) -> PopularityPolicy:
        return cls(reader_counts(batch.tasks))

    def update_pending(self, pending_counts: dict[str, int]) -> None:
        self._pending = dict(pending_counts)

    def popularity(self, state: ClusterState, file_id: str) -> MB:
        """Eq. 22 score: pending-access volume per existing copy (MB)."""
        freq = self._pending.get(file_id, 0)
        copies = max(1, state.num_copies(file_id))
        return freq * state.size_of(file_id) / copies

    def order(
        self, state: ClusterState, node: int, candidates: Iterable[str]
    ) -> list[str]:
        return sorted(candidates, key=lambda f: self.popularity(state, f))


class LRUPolicy:
    """Evict the least recently used file first."""

    name = "lru"

    def update_pending(self, pending_counts: dict[str, int]) -> None:
        pass  # LRU ignores future knowledge

    def order(
        self, state: ClusterState, node: int, candidates: Iterable[str]
    ) -> list[str]:
        cache = state.caches[node]
        return sorted(candidates, key=lambda f: cache.last_use(f))


class SizePolicy:
    """Evict smallest files first (cheapest to re-stage; ablation baseline)."""

    name = "size"

    def update_pending(self, pending_counts: dict[str, int]) -> None:
        pass

    def order(
        self, state: ClusterState, node: int, candidates: Iterable[str]
    ) -> list[str]:
        return sorted(candidates, key=lambda f: state.size_of(f))
