"""Admission/batching policies: which queued jobs form the next batch.

The online session (:mod:`repro.online.session`) runs the cluster as a
serial batch server: while one batch executes, arriving jobs queue up, and
when the cluster goes idle a policy selects the next dispatch window. Three
policies are provided:

* :class:`FIFOWindow` — drain the whole queue in arrival order (the
  natural baseline: maximal batches, maximal intra-batch sharing, but a
  late arrival can wait behind an unrelated giant window);
* :class:`SizeCappedWindow` — the oldest ``max_jobs`` jobs (bounds batch
  makespan, hence queueing delay of later arrivals);
* :class:`LocalityWindow` — a size-capped window grown greedily around the
  oldest job by *file overlap*, scored with the existing hypergraph
  machinery: queued jobs are vertices, files are nets weighted by size
  (exactly the BiPartition model of Section 5.1), and each step admits the
  job whose addition minimises the cut weight between the window and the
  rest of the queue — i.e. maximises the shared bytes pulled inside the
  window.

Every policy must select the oldest queued job (no starvation) and is a
pure function of the queue contents — no RNG, no wall clock — so streams
replay deterministically.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Protocol

from ..batch import Batch
from ..hypergraph import Hypergraph
from ..hypergraph.metrics import cut_weight
from .arrivals import JobArrival

__all__ = [
    "POLICIES",
    "AdmissionPolicy",
    "FIFOWindow",
    "LocalityWindow",
    "SizeCappedWindow",
    "make_policy",
]


class AdmissionPolicy(Protocol):
    """Selects the next dispatch window from the queue (arrival order)."""

    name: str

    def select(
        self, queued: Sequence[JobArrival], batch: Batch, now: float
    ) -> list[str]:
        """Task ids of the next batch; non-empty, must include ``queued[0]``."""
        ...


class FIFOWindow:
    """Drain the whole queue in arrival order."""

    name = "fifo"

    def select(
        self, queued: Sequence[JobArrival], batch: Batch, now: float
    ) -> list[str]:
        if not queued:
            raise ValueError("cannot select from an empty queue")
        return [q.task_id for q in queued]


class SizeCappedWindow:
    """The oldest ``max_jobs`` queued jobs, in arrival order."""

    name = "size"

    def __init__(self, max_jobs: int = 8) -> None:
        if max_jobs < 1:
            raise ValueError("max_jobs must be at least 1")
        self.max_jobs = max_jobs

    def select(
        self, queued: Sequence[JobArrival], batch: Batch, now: float
    ) -> list[str]:
        if not queued:
            raise ValueError("cannot select from an empty queue")
        return [q.task_id for q in queued[: self.max_jobs]]


class LocalityWindow:
    """Grow a size-capped window around the oldest job by file overlap.

    Builds the queue's task/file hypergraph (vertices = queued jobs, nets =
    files weighted by size) and greedily moves one job at a time into the
    window, always the job minimising the resulting window-vs-rest
    :func:`~repro.hypergraph.metrics.cut_weight`; arrival order breaks
    ties, so disjoint jobs are admitted oldest-first. The oldest queued job
    seeds the window — fairness is a hard constraint, locality only shapes
    what rides along with it.
    """

    name = "locality"

    def __init__(self, max_jobs: int = 8) -> None:
        if max_jobs < 1:
            raise ValueError("max_jobs must be at least 1")
        self.max_jobs = max_jobs

    def select(
        self, queued: Sequence[JobArrival], batch: Batch, now: float
    ) -> list[str]:
        if not queued:
            raise ValueError("cannot select from an empty queue")
        if len(queued) <= self.max_jobs:
            return [q.task_id for q in queued]

        index = {q.task_id: i for i, q in enumerate(queued)}
        nets: dict[str, list[int]] = {}
        for q in queued:
            for f in batch.task(q.task_id).files:
                nets.setdefault(f, []).append(index[q.task_id])
        net_ids = sorted(nets)
        h = Hypergraph(
            len(queued),
            [nets[f] for f in net_ids],
            net_weights=[batch.file_size(f) for f in net_ids],
        )

        parts = [1] * len(queued)  # 0 = window, 1 = rest of the queue
        parts[0] = 0  # the oldest job seeds the window
        chosen = [0]
        while len(chosen) < self.max_jobs:
            best_v = -1
            best_cut = float("inf")
            for v in range(len(queued)):
                if parts[v] == 0:
                    continue
                parts[v] = 0
                cut = cut_weight(h, parts)
                parts[v] = 1
                # Strict < keeps the earliest-arrival candidate on ties.
                if cut < best_cut:
                    best_v, best_cut = v, cut
            parts[best_v] = 0
            chosen.append(best_v)
        chosen.sort()  # dispatch in arrival order within the window
        return [queued[v].task_id for v in chosen]


#: The policy names :func:`make_policy` accepts.
POLICIES = ("fifo", "size", "locality")


def make_policy(name: str, max_jobs: int | None = None) -> AdmissionPolicy:
    """Build a policy by registry name (``fifo`` | ``size`` | ``locality``)."""
    if name == "fifo":
        return FIFOWindow()
    if name == "size":
        return SizeCappedWindow(max_jobs if max_jobs is not None else 8)
    if name == "locality":
        return LocalityWindow(max_jobs if max_jobs is not None else 8)
    raise ValueError(f"unknown admission policy {name!r}; use {'|'.join(POLICIES)}")
