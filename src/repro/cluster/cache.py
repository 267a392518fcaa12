"""Per-compute-node disk caches with pinning and pluggable eviction.

Each compute node's local disk acts as a cache for staged files (Section 4).
Files used by tasks that are currently staged or running are *pinned* and
cannot be evicted; everything else is evictable in an order decided by an
eviction policy (see :mod:`repro.core.eviction`). Making room for a staged
file (:meth:`DiskCache.ensure_space`) and losing capacity to a disk fault
(:meth:`DiskCache.shrink`) share one eviction loop, which reports each
victim to the caller's ``on_evict``; the caller records the eviction (in
:class:`~repro.cluster.state.TransferStats`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Callable, Iterable

from ..analysis.dims import MB, Count, Seconds

__all__ = ["CacheFullError", "DiskCache"]


class CacheFullError(RuntimeError):
    """Raised when required space cannot be freed (pinned set too large)."""


@dataclass
class _Entry:
    size_mb: MB
    pin_count: Count = 0
    last_use: Seconds = 0.0


class DiskCache:
    """Disk cache of one compute node.

    Parameters
    ----------
    capacity_mb:
        Disk space available; ``math.inf`` models the unlimited-cache case.
    """

    def __init__(self, node_id: int, capacity_mb: MB = math.inf) -> None:
        if capacity_mb <= 0:
            raise ValueError("capacity must be positive")
        self.node_id = node_id
        self.capacity_mb: MB = capacity_mb
        self._entries: dict[str, _Entry] = {}
        self._used: MB = 0.0

    # -- queries ---------------------------------------------------------------
    def __contains__(self, file_id: str) -> bool:
        return file_id in self._entries

    @property
    def used_mb(self) -> MB:
        return self._used

    @property
    def free_mb(self) -> MB:
        return self.capacity_mb - self._used

    @property
    def files(self) -> tuple[str, ...]:
        return tuple(self._entries)

    def size_of(self, file_id: str) -> MB:
        return self._entries[file_id].size_mb

    def last_use(self, file_id: str) -> Seconds:
        return self._entries[file_id].last_use

    # -- mutation ----------------------------------------------------------------
    def add(self, file_id: str, size_mb: MB, now: Seconds = 0.0) -> None:
        """Record a staged file; caller must have ensured space first."""
        if file_id in self._entries:
            self._entries[file_id].last_use = now
            return
        if size_mb > self.free_mb + 1e-9:
            raise CacheFullError(
                f"node {self.node_id}: adding {file_id} ({size_mb} MB) exceeds "
                f"free space {self.free_mb} MB"
            )
        self._entries[file_id] = _Entry(size_mb=size_mb, last_use=now)
        self._used += size_mb

    def remove(self, file_id: str) -> MB:
        """Drop a file, pinned or not (a crash destroys pinned copies too).

        Eviction bookkeeping is the caller's job.
        """
        e = self._entries.pop(file_id)
        self._used -= e.size_mb
        return e.size_mb

    def shrink(
        self,
        lost_mb: MB,
        victim_order: Callable[[Iterable[str]], list[str]],
        on_evict: Callable[[str], None] | None = None,
    ) -> list[str]:
        """Lose ``lost_mb`` of capacity (disk-loss fault); returns victims.

        Capacity never drops below zero. Unpinned files are evicted in
        ``victim_order`` until the survivors fit; raises
        :class:`CacheFullError` if pinned files alone exceed the shrunken
        capacity (cannot happen between sub-batches, when nothing is
        pinned).
        """
        self.capacity_mb = max(self.capacity_mb - lost_mb, 0.0)
        victims = self._evict_until(
            lambda: self._used <= self.capacity_mb + 1e-9, victim_order, on_evict
        )
        if self._used > self.capacity_mb + 1e-9:
            raise CacheFullError(
                f"node {self.node_id}: disk loss leaves {self._used} MB pinned "
                f"in {self.capacity_mb} MB of capacity"
            )
        return victims

    def touch(self, file_id: str, now: Seconds) -> None:
        self._entries[file_id].last_use = now

    def pin(self, file_id: str) -> None:
        self._entries[file_id].pin_count += 1

    def unpin(self, file_id: str) -> None:
        e = self._entries[file_id]
        if e.pin_count <= 0:
            raise ValueError(f"unpin of unpinned file {file_id}")
        e.pin_count -= 1

    # -- eviction ----------------------------------------------------------------
    def ensure_space(
        self,
        needed_mb: MB,
        victim_order: Callable[[Iterable[str]], list[str]],
        on_evict: Callable[[str], None] | None = None,
    ) -> list[str]:
        """Evict unpinned files until ``needed_mb`` fits; returns victims.

        ``victim_order`` ranks the given candidate file ids most-evictable
        first (the eviction policy). Raises :class:`CacheFullError` when even
        evicting every unpinned file is insufficient.
        """
        victims = self._evict_until(
            lambda: needed_mb <= self.free_mb + 1e-9, victim_order, on_evict
        )
        if needed_mb > self.free_mb + 1e-9:
            raise CacheFullError(
                f"node {self.node_id}: cannot free {needed_mb} MB "
                f"(free {self.free_mb} MB, all remaining files pinned)"
            )
        return victims

    def _evict_until(
        self,
        fits: Callable[[], bool],
        victim_order: Callable[[Iterable[str]], list[str]],
        on_evict: Callable[[str], None] | None,
    ) -> list[str]:
        """Remove unpinned files in ``victim_order`` until ``fits()``.

        Returns the victims; the policy is not consulted when ``fits()``
        already holds. The caller decides what a shortfall means.
        """
        if fits():
            return []
        candidates = [f for f, e in self._entries.items() if e.pin_count == 0]
        victims: list[str] = []
        for f in victim_order(candidates):
            if fits():
                break
            self.remove(f)
            victims.append(f)
            if on_evict:
                on_evict(f)
        return victims
