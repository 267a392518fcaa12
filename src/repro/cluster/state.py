"""Cluster-wide file placement state shared across sub-batch executions.

Tracks which compute nodes hold which files (the storage cluster always
retains the authoritative copy), per-node disk caches, and global transfer
statistics. The state persists across sub-batches: "subsequent iterations
... model the fact that copies of some files have already been created on
the compute cluster due to previous sub-batch executions" (Section 4.2).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from ..analysis.dims import MB, Count, Seconds
from ..batch import Batch, FileInfo
from .cache import DiskCache
from .platform import Platform

__all__ = ["TransferStats", "ClusterState"]


@dataclass
class TransferStats:
    """Aggregate transfer/cache/eviction accounting across a run.

    Counts *and* bytes for every way a task input can be satisfied: a
    remote transfer from the storage cluster, a compute-to-compute
    replication, or a disk-cache hit (the file was already resident where
    the task ran). Evictions record what left the caches, so staged bytes
    are conserved: ``remote + replication = resident + evicted`` for a run
    that started with empty compute disks (checked by
    :func:`repro.obs.metrics.conservation_residual_mb`).
    """

    remote_transfers: Count = 0
    remote_volume_mb: MB = 0.0
    replications: Count = 0
    replication_volume_mb: MB = 0.0
    evictions: Count = 0
    evicted_volume_mb: MB = 0.0
    cache_hits: Count = 0
    cache_hit_volume_mb: MB = 0.0
    # Cache hits on files resident since the *prior batch's* commit (online
    # multi-batch sessions, repro.online). Always zero unless the state's
    # carryover tracking was armed with :meth:`ClusterState.begin_carryover`.
    cross_batch_hits: Count = 0
    cross_batch_hit_volume_mb: MB = 0.0

    def merge(self, other: TransferStats) -> TransferStats:
        """Field-wise sum (e.g. accumulating sub-batch deltas)."""
        return TransferStats(
            **{f.name: getattr(self, f.name) + getattr(other, f.name)
               for f in fields(self)}
        )

    def minus(self, base: TransferStats) -> TransferStats:
        """Field-wise difference: what accrued since the snapshot ``base``."""
        return TransferStats(
            **{f.name: getattr(self, f.name) - getattr(base, f.name)
               for f in fields(self)}
        )


class ClusterState:
    """File placement on the compute cluster plus file catalog access."""

    def __init__(self, platform: Platform, files: dict[str, FileInfo]) -> None:
        self.platform = platform
        self.files = dict(files)
        self.caches = [
            DiskCache(n.node_id, n.disk_space_mb) for n in platform.compute_nodes
        ]
        # file id -> set of compute nodes currently holding it
        self._holders: dict[str, set[int]] = {}
        # Frozen snapshots handed out by :meth:`holders`, dropped whenever
        # the underlying set mutates, so there is no fresh frozenset per
        # source enumeration. A snapshot's iteration order, like its set's,
        # is not a function of its contents alone: where two ids collide
        # in the hash table (past 8 compute nodes, e.g. 3 and 35), the one
        # inserted first comes first. So the order in which
        # replica sources are costed follows the run's placement history,
        # which a (config, seed) still fixes. The runtime's shape key
        # (``Runtime._shape_key``) records holders in this order, so two
        # equal keys cost their sources in the same order.
        self._holders_cache: dict[str, frozenset[int]] = {}
        self.stats = TransferStats()
        # Compute nodes lost to injected crashes (empty without faults).
        self.dead_nodes: set[int] = set()
        # (node, file) pairs resident at the previous batch boundary; armed
        # by :meth:`begin_carryover` (online multi-batch sessions only) and
        # None otherwise, keeping single-batch runs allocation-free.
        self._carryover: set[tuple[int, str]] | None = None

    @classmethod
    def initial(cls, platform: Platform, batch: Batch) -> ClusterState:
        """All files on the storage cluster only (the paper's assumption)."""
        return cls(platform, batch.files)

    def register_files(self, files: dict[str, FileInfo]) -> None:
        """Add catalog entries (e.g. when running successive batches)."""
        self.files.update(files)

    def begin_carryover(self) -> None:
        """Snapshot current residency as the prior batch's committed state.

        Online sessions (:mod:`repro.online`) call this at every batch
        boundary: cache hits on a pair still in the snapshot count as
        *cross-batch* hits — the payoff of warm-cache carryover — until the
        copy is evicted, crashed away or re-staged. Audit invariant E8
        verifies the counted hits against the commit-ordered trail.
        """
        self._carryover = {
            (cache.node_id, f) for cache in self.caches for f in cache.files
        }

    @property
    def carryover_active(self) -> bool:
        """Whether cross-batch hit tracking is armed (online sessions)."""
        return self._carryover is not None

    # -- queries ---------------------------------------------------------------
    def holders(self, file_id: str) -> frozenset[int]:
        """Compute nodes currently caching ``file_id``."""
        snap = self._holders_cache.get(file_id)
        if snap is None:
            snap = frozenset(self._holders.get(file_id, ()))
            self._holders_cache[file_id] = snap
        return snap

    def num_copies(self, file_id: str) -> Count:
        """Copies on the compute cluster (``Numcopies`` of Eq. 22)."""
        return len(self._holders.get(file_id, ()))

    def has_file(self, node_id: int, file_id: str) -> bool:
        return file_id in self.caches[node_id]

    def size_of(self, file_id: str) -> MB:
        return self.files[file_id].size_mb

    def storage_node_of(self, file_id: str) -> int:
        return self.files[file_id].storage_node

    def files_on(self, node_id: int) -> tuple[str, ...]:
        return self.caches[node_id].files

    def alive_nodes(self) -> list[int]:
        """Compute-node ids still usable for mapping (crash-aware)."""
        return [
            n.node_id
            for n in self.platform.compute_nodes
            if n.node_id not in self.dead_nodes
        ]

    # -- mutation ---------------------------------------------------------------
    def place(self, node_id: int, file_id: str, now: Seconds = 0.0) -> None:
        """Record that ``file_id`` is now cached on ``node_id``."""
        self.caches[node_id].add(file_id, self.size_of(file_id), now)
        self._holders.setdefault(file_id, set()).add(node_id)
        self._holders_cache.pop(file_id, None)

    def note_evicted(self, node_id: int, file_id: str) -> None:
        """Record an eviction the node's cache has just made.

        The one eviction record: :meth:`DiskCache.ensure_space` and
        :meth:`DiskCache.shrink` remove the file and report it to their
        ``on_evict`` callback, and every caller's callback calls this.
        """
        self._forget_holder(node_id, file_id)
        self.record_eviction(self.size_of(file_id))

    def _forget_holder(self, node_id: int, file_id: str) -> None:
        holders = self._holders.get(file_id)
        if holders:
            holders.discard(node_id)
            if not holders:
                del self._holders[file_id]
            self._holders_cache.pop(file_id, None)
        if self._carryover is not None:
            # The copy is gone (evicted or crashed away); it can no
            # longer satisfy a cross-batch hit.
            self._carryover.discard((node_id, file_id))

    def mark_dead(self, node_id: int) -> list[tuple[str, float]]:
        """Fail ``node_id`` permanently, losing its cached files.

        Returns the ``(file_id, size_mb)`` copies that vanished with the
        node. The lost copies are *not* counted as evictions — they were
        destroyed, not displaced — so byte-conservation metrics report the
        imbalance honestly via the caller's fault stats.
        """
        lost: list[tuple[str, float]] = []
        if node_id in self.dead_nodes:
            return lost
        self.dead_nodes.add(node_id)
        cache = self.caches[node_id]
        for file_id in list(cache.files):
            size = cache.remove(file_id)
            self._forget_holder(node_id, file_id)
            lost.append((file_id, size))
        return lost

    def record_remote(self, size_mb: MB) -> None:
        self.stats.remote_transfers += 1
        self.stats.remote_volume_mb += size_mb

    def record_replication(self, size_mb: MB) -> None:
        self.stats.replications += 1
        self.stats.replication_volume_mb += size_mb

    def record_eviction(self, size_mb: MB) -> None:
        self.stats.evictions += 1
        self.stats.evicted_volume_mb += size_mb

    def record_cache_hit(
        self, size_mb: MB, node_id: int | None = None, file_id: str | None = None
    ) -> bool:
        """A task input served from the local disk cache (no transfer).

        Returns True when the hit was served by a copy resident since the
        prior batch boundary (a *cross-batch* hit; see
        :meth:`begin_carryover`) — always False outside online sessions.
        """
        self.stats.cache_hits += 1
        self.stats.cache_hit_volume_mb += size_mb
        if (
            self._carryover is not None
            and node_id is not None
            and (node_id, file_id) in self._carryover
        ):
            self.stats.cross_batch_hits += 1
            self.stats.cross_batch_hit_volume_mb += size_mb
            return True
        return False

    def check_consistency(self) -> None:
        """Invariant check used by tests: holder sets match cache contents."""
        for node in self.caches:
            for f in node.files:
                assert node.node_id in self._holders.get(f, set()), (
                    f"file {f} cached on {node.node_id} but not in holders"
                )
        for f, hs in self._holders.items():
            for n in hs:
                assert f in self.caches[n], (
                    f"holders claim {f} on node {n} but cache disagrees"
                )
