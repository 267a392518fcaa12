"""Core data model: files, tasks and batches (Section 2).

A :class:`Batch` is a set of independent sequential tasks; each task names
the data files it reads. Files initially reside on exactly one storage node.
Tasks may share files — the *batch-shared I/O* pattern the schedulers
exploit — and the module provides the sharing/overlap statistics used to
characterise workloads (high / medium / low overlap in Section 7).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from collections.abc import Iterable, Mapping

__all__ = [
    "FileInfo",
    "Task",
    "Batch",
    "overlap_fraction",
    "pairwise_overlap",
    "reader_counts",
]


@dataclass(frozen=True)
class FileInfo:
    """A data file: unit of I/O transfer from the storage cluster.

    ``storage_node`` is the storage node holding the authoritative copy
    (files are declustered across storage nodes by the workload generators).
    """

    file_id: str
    size_mb: float
    storage_node: int

    def __post_init__(self):
        if not (math.isfinite(self.size_mb) and self.size_mb > 0):
            raise ValueError(
                f"file {self.file_id}: size must be positive and finite, "
                f"got {self.size_mb!r}"
            )
        if self.storage_node < 0:
            raise ValueError(f"file {self.file_id}: bad storage node")


@dataclass(frozen=True)
class Task:
    """An independent sequential task reading a set of input files.

    ``compute_time`` is the pure CPU cost (``Comp_k`` in Eq. 10), excluding
    all I/O. ``files`` is the task's ``Access_k`` set.
    """

    task_id: str
    files: tuple[str, ...]
    compute_time: float

    def __post_init__(self):
        if not self.files:
            raise ValueError(f"task {self.task_id}: needs at least one file")
        if len(set(self.files)) != len(self.files):
            raise ValueError(f"task {self.task_id}: duplicate files")
        if not (math.isfinite(self.compute_time) and self.compute_time >= 0):
            raise ValueError(
                f"task {self.task_id}: compute time must be non-negative and "
                f"finite, got {self.compute_time!r}"
            )


class Batch:
    """A batch of tasks plus the catalog of files they reference."""

    def __init__(self, tasks: Iterable[Task], files: Mapping[str, FileInfo]):
        self.tasks: tuple[Task, ...] = tuple(tasks)
        self.files: dict[str, FileInfo] = dict(files)
        if len({t.task_id for t in self.tasks}) != len(self.tasks):
            raise ValueError("duplicate task ids")
        for t in self.tasks:
            for f in t.files:
                if f not in self.files:
                    raise ValueError(f"task {t.task_id} references unknown file {f}")
        self._by_id = {t.task_id: t for t in self.tasks}

    # -- lookups ---------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self):
        return iter(self.tasks)

    def task(self, task_id: str) -> Task:
        return self._by_id[task_id]

    def file(self, file_id: str) -> FileInfo:
        return self.files[file_id]

    def file_size(self, file_id: str) -> float:
        return self.files[file_id].size_mb

    def task_input_mb(self, task: Task | str) -> float:
        """Total input volume of a task."""
        t = self.task(task) if isinstance(task, str) else task
        return sum(self.files[f].size_mb for f in t.files)

    def subset(self, task_ids: Iterable[str]) -> Batch:
        """A batch restricted to the given tasks (file catalog shared)."""
        wanted = [self._by_id[t] for t in task_ids]
        used = {f for t in wanted for f in t.files}
        return Batch(wanted, {f: self.files[f] for f in used})

    # -- sharing structure (Section 2 / Section 4 notation) -----------------------
    def access_map(self) -> dict[str, tuple[str, ...]]:
        """``Access_k``: task id -> file ids."""
        return {t.task_id: t.files for t in self.tasks}

    def require_map(self) -> dict[str, tuple[str, ...]]:
        """``Require_l``: file id -> ids of tasks that read it."""
        req: dict[str, list[str]] = {}
        for t in self.tasks:
            for f in t.files:
                req.setdefault(f, []).append(t.task_id)
        return {f: tuple(ts) for f, ts in req.items()}

    def referenced_files(self) -> set[str]:
        return {f for t in self.tasks for f in t.files}

    # -- volumes ----------------------------------------------------------------
    @property
    def distinct_file_mb(self) -> float:
        """Disk space to hold one copy of every referenced file."""
        return sum(self.files[f].size_mb for f in self.referenced_files())

    @property
    def total_access_mb(self) -> float:
        """Sum of task input volumes (shared files counted repeatedly)."""
        return sum(self.task_input_mb(t) for t in self.tasks)

    @property
    def total_compute_time(self) -> float:
        return sum(t.compute_time for t in self.tasks)

    def max_task_footprint_mb(self) -> float:
        """Largest single-task input volume (must fit on one node's disk)."""
        return max(self.task_input_mb(t) for t in self.tasks) if self.tasks else 0.0

    def __repr__(self):
        return (
            f"Batch({len(self.tasks)} tasks, {len(self.referenced_files())} files, "
            f"{self.distinct_file_mb:.0f} MB distinct)"
        )


def reader_counts(tasks: Iterable[Task]) -> dict[str, int]:
    """How many of ``tasks`` read each file (the paper's ``s_j``).

    Files appear in the order the tasks first read them, so every sort
    over the counts breaks ties the same way.
    """
    counts: dict[str, int] = {}
    for t in tasks:
        for f in t.files:
            counts[f] = counts.get(f, 0) + 1
    return counts


def overlap_fraction(batch: Batch) -> float:
    """Global sharing fraction: 1 - distinct accesses / total accesses.

    0 means no file is shared; approaching 1 means all tasks read the same
    files. Cheap summary used in workload reports.
    """
    total = sum(len(t.files) for t in batch.tasks)
    if total == 0:
        return 0.0
    distinct = len(batch.referenced_files())
    return 1.0 - distinct / total


def pairwise_overlap(batch: Batch, sample_pairs: int | None = None, seed: int = 0) -> float:
    """Mean pairwise file overlap between tasks (the paper's workload knob).

    For a task pair the overlap is ``|A ∩ B| / min(|A|, |B|)``; the batch
    value is the mean over all (or ``sample_pairs`` random) pairs. The SAT
    and IMAGE generators are calibrated against this metric to reproduce the
    paper's 85 % / 40 % / 10 % (or 0 %) workloads.
    """
    tasks = batch.tasks
    n = len(tasks)
    if n < 2:
        return 0.0
    sets = [frozenset(t.files) for t in tasks]
    pairs: Iterable[tuple[int, int]]
    total_pairs = n * (n - 1) // 2
    if sample_pairs is not None and sample_pairs < total_pairs:
        import numpy as np

        rng = np.random.default_rng(seed)
        seen = set()
        while len(seen) < sample_pairs:
            i, j = rng.integers(0, n, size=2)
            if i != j:
                seen.add((min(i, j), max(i, j)))
        pairs = seen
    else:
        pairs = itertools.combinations(range(n), 2)
    acc = 0.0
    count = 0
    for i, j in pairs:
        a, b = sets[i], sets[j]
        acc += len(a & b) / min(len(a), len(b))
        count += 1
    return acc / count if count else 0.0
