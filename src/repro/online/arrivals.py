"""Deterministic seeded arrival processes for online job streams.

The paper schedules one batch at a time; the online extension
(``docs/online.md``) feeds the batch scheduler from a *stream* of arriving
jobs. This module generates the arrival times: a Poisson process (the
classic open-system workload model), a bursty on-off process (STAR-style
job trains separated by quiet periods), and trace-driven arrivals replayed
from a JSON job trace.

Every process is a pure function of its parameters and an explicit seed —
no wall clock, no global RNG — so a stream spec replays to byte-identical
arrival times on any machine. Times are simulated seconds from stream
start, non-decreasing, one per job.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from ..batch import Batch

__all__ = [
    "ARRIVAL_KINDS",
    "JobArrival",
    "JobStream",
    "arrivals_from_spec",
    "bursty_arrivals",
    "poisson_arrivals",
    "stream_from_batch",
    "trace_arrivals",
]


@dataclass(frozen=True)
class JobArrival:
    """One job's submission: the task id and its arrival time (sim s)."""

    task_id: str
    arrival: float


@dataclass(frozen=True)
class JobStream:
    """A source batch plus the arrival time of each of its tasks.

    ``batch`` holds the jobs (tasks) and the shared file catalog;
    ``arrivals`` lists one :class:`JobArrival` per task, sorted by arrival
    time with submission order breaking ties. Dispatch windows are built by
    :meth:`Batch.subset`, so every streamed batch shares the catalog — the
    precondition for cross-batch cache reuse.
    """

    batch: Batch
    arrivals: tuple[JobArrival, ...]

    def __post_init__(self) -> None:
        known = {t.task_id for t in self.batch.tasks}
        seen = [a.task_id for a in self.arrivals]
        if len(set(seen)) != len(seen):
            raise ValueError("duplicate task ids in arrival sequence")
        unknown = [t for t in seen if t not in known]
        if unknown:
            raise ValueError(f"arrivals reference unknown tasks {unknown[:3]}")
        for prev, cur in zip(self.arrivals, self.arrivals[1:]):
            if cur.arrival < prev.arrival:
                raise ValueError("arrival times must be non-decreasing")

    @property
    def num_jobs(self) -> int:
        return len(self.arrivals)

    @property
    def span_s(self) -> float:
        """Time of the last arrival (0 for an empty stream)."""
        return self.arrivals[-1].arrival if self.arrivals else 0.0


def poisson_arrivals(num_jobs: int, rate: float, seed: int = 0) -> list[float]:
    """Poisson process: ``num_jobs`` arrivals at ``rate`` jobs per sim s."""
    if num_jobs < 0:
        raise ValueError("num_jobs must be non-negative")
    if rate <= 0.0:
        raise ValueError("rate must be positive")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate, size=num_jobs)
    return [float(t) for t in np.cumsum(gaps)]


def bursty_arrivals(
    num_jobs: int,
    rate: float,
    on_s: float,
    off_s: float,
    seed: int = 0,
) -> list[float]:
    """On-off (bursty) process: Poisson at ``rate`` during on-windows only.

    The stream alternates ``on_s`` seconds of activity with ``off_s``
    seconds of silence. Arrivals are drawn as a Poisson process over
    accumulated *on* time and mapped onto the wall of the on-off schedule,
    so no arrival ever lands inside an off-window.
    """
    if on_s <= 0.0 or off_s < 0.0:
        raise ValueError("on_s must be positive and off_s non-negative")
    on_times = poisson_arrivals(num_jobs, rate, seed)
    period = on_s + off_s
    out = []
    for t_on in on_times:
        cycles = int(t_on // on_s)
        out.append(cycles * period + (t_on - cycles * on_s))
    return out


def trace_arrivals(times: Sequence[float]) -> list[float]:
    """Trace-driven arrivals: validated replay of explicit times."""
    out = [float(t) for t in times]
    for prev, cur in zip(out, out[1:]):
        if cur < prev:
            raise ValueError("trace arrival times must be non-decreasing")
    if out and out[0] < 0.0:
        raise ValueError("trace arrival times must be non-negative")
    return out


#: The ``kind`` values :func:`arrivals_from_spec` accepts (absent is poisson).
ARRIVAL_KINDS = ("poisson", "bursty", "trace")


def arrivals_from_spec(spec: Mapping[str, object], num_jobs: int) -> list[float]:
    """Build arrival times from a stream-spec ``arrival`` block.

    ``{"kind": "poisson", "rate": R, "seed": S}`` |
    ``{"kind": "bursty", "rate": R, "on_s": A, "off_s": B, "seed": S}`` |
    ``{"kind": "trace", "times": [...]}`` (see ``docs/online.md``). Trace
    times are cycled/truncated to exactly ``num_jobs`` arrivals: a reduced
    trace can drive a larger stream deterministically.
    """
    kind = spec.get("kind", "poisson")
    if kind == "poisson":
        return poisson_arrivals(
            num_jobs, float(spec["rate"]), int(spec.get("seed", 0))  # type: ignore[arg-type]
        )
    if kind == "bursty":
        return bursty_arrivals(
            num_jobs,
            float(spec["rate"]),  # type: ignore[arg-type]
            float(spec.get("on_s", 60.0)),  # type: ignore[arg-type]
            float(spec.get("off_s", 60.0)),  # type: ignore[arg-type]
            int(spec.get("seed", 0)),  # type: ignore[arg-type]
        )
    if kind == "trace":
        times = trace_arrivals(spec["times"])  # type: ignore[arg-type]
        if not times and num_jobs:
            raise ValueError("trace has no arrival times")
        if len(times) < num_jobs:
            # Cycle the trace forward, shifted by its span per repetition.
            span = times[-1] if times[-1] > 0.0 else 1.0
            base = list(times)
            rep = 1
            while len(times) < num_jobs:
                times.extend(t + rep * span for t in base)
                rep += 1
        return times[:num_jobs]
    raise ValueError(f"unknown arrival kind {kind!r}; use {'|'.join(ARRIVAL_KINDS)}")


def stream_from_batch(batch: Batch, times: Sequence[float]) -> JobStream:
    """Pair a generated batch with arrival times, task ``i`` at ``times[i]``.

    Tasks keep their generator (submission) order; times must already be
    non-decreasing, as every process in this module guarantees.
    """
    if len(times) != len(batch.tasks):
        raise ValueError(
            f"{len(times)} arrival times for {len(batch.tasks)} tasks"
        )
    arrivals = tuple(
        JobArrival(t.task_id, float(at))
        for t, at in zip(batch.tasks, times)
    )
    return JobStream(batch=batch, arrivals=arrivals)
