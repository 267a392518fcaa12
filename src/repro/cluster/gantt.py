"""Gantt-chart resource timelines with earliest-slot queries.

Section 6 of the paper maintains a Gantt chart per storage and compute node
and reserves time slots on the source and destination of every transfer.
:class:`Timeline` stores disjoint busy intervals in sorted order and answers
``earliest_slot`` queries in O(log n + k). A reservation can be undone with
:meth:`Timeline.release`, so task completion times are evaluated by
reserving a task's transfers on the real charts and releasing them again
(paper: files are "tentatively scheduled"). :func:`earliest_common_slot`
finds the first instant a set of resources is simultaneously free
(single-port model: a transfer occupies both its endpoints, plus the shared
inter-cluster link when present). Both searches run one walk,
:func:`_walk`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from collections.abc import Sequence

from ..analysis.dims import Seconds

__all__ = ["Interval", "Timeline", "earliest_common_slot"]

_EPS: Seconds = 1e-9


@dataclass(frozen=True, order=True)
class Interval:
    """A closed-open busy interval ``[start, end)`` with a debug tag."""

    start: Seconds
    end: Seconds
    tag: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"interval end {self.end} before start {self.start}")

    @property
    def duration(self) -> Seconds:
        return self.end - self.start


class Timeline:
    """Busy intervals of one resource, kept sorted and non-overlapping.

    Starts and ends are mirrored in two float lists, for bisection and for
    the slot searches' walk (:func:`_walk`); :meth:`reserve` and
    :meth:`release` update them in place with the interval list, so all
    three hold the same floats.

    A reservation no longer than ``_EPS`` occupies no time under
    :meth:`is_free`'s rule and is not stored, so every stored interval is
    longer than ``_EPS`` and the ends increase strictly with the starts.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._intervals: list[Interval] = []
        self._starts: list[float] = []
        self._ends: list[float] = []

    def __len__(self) -> int:
        return len(self._intervals)

    @property
    def intervals(self) -> tuple[Interval, ...]:
        return tuple(self._intervals)

    @property
    def horizon(self) -> Seconds:
        """End of the last reservation (0 when empty)."""
        return self._intervals[-1].end if self._intervals else 0.0

    def busy_time(self) -> Seconds:
        return sum(iv.duration for iv in self._intervals)

    def is_free(self, start: Seconds, end: Seconds) -> bool:
        """True when ``[start, end)`` does not overlap any reservation."""
        if end - start <= _EPS:
            return True
        i = bisect_right(self._starts, start + _EPS)
        if i > 0 and self._ends[i - 1] > start + _EPS:
            return False
        if i < len(self._starts) and self._starts[i] < end - _EPS:
            return False
        return True

    def earliest_slot(self, duration: Seconds, not_before: Seconds = 0.0) -> Seconds:
        """Earliest start >= not_before and >= 0 of a free gap of ``duration``."""
        return _walk(self._starts, self._ends, duration, max(0.0, not_before), 0)[0]

    def free_time_end(
        self, work: Seconds, min_gap: Seconds, not_before: Seconds
    ) -> Seconds:
        """Earliest ``T`` by which the free gaps in ``[not_before, T)``
        that are at least ``min_gap`` long add up to ``work``.

        A gap is the span between two consecutive reservations (the first
        one clipped to start at ``not_before``); the span after the last
        reservation is unbounded.
        """
        if work <= 0.0:
            return not_before
        starts, ends = self._starts, self._ends
        t = not_before
        i = bisect_right(starts, t)
        if i > 0 and ends[i - 1] > t:
            t = ends[i - 1]
        for j in range(i, len(starts)):
            gap = starts[j] - t
            if gap > 0.0 and gap >= min_gap:
                if work <= gap:
                    return t + work
                work -= gap
            t = ends[j]
        return t + work

    def reserve(self, start: Seconds, duration: Seconds, tag: str = "") -> Interval:
        """Reserve ``[start, start+duration)``; the slot must be free.

        A reservation no longer than ``_EPS`` is returned but not stored.
        """
        iv = Interval(start, start + duration, tag)
        if iv.end - iv.start <= _EPS:
            return iv
        if not self.is_free(iv.start, iv.end):
            raise ValueError(
                f"timeline {self.name!r}: slot [{start}, {start + duration}) is busy"
            )
        idx = bisect_right(self._starts, iv.start)
        self._intervals.insert(idx, iv)
        self._starts.insert(idx, iv.start)
        self._ends.insert(idx, iv.end)
        return iv

    def release(self, iv: Interval) -> None:
        """Undo the reservation :meth:`reserve` returned as ``iv``.

        One no longer than ``_EPS`` was never stored and is ignored.
        """
        if iv.end - iv.start <= _EPS:
            return
        idx = bisect_left(self._starts, iv.start)
        if idx == len(self._starts) or self._intervals[idx] is not iv:
            raise ValueError(f"timeline {self.name!r}: {iv} is not reserved")
        del self._intervals[idx]
        del self._starts[idx]
        del self._ends[idx]

    def __repr__(self) -> str:
        return f"Timeline({self.name!r}, {len(self)} reservations)"


def _walk(
    starts: list[float], ends: list[float], duration: Seconds, t: Seconds, i: int
) -> tuple[Seconds, int]:
    """One timeline's earliest start >= ``t`` for ``duration``, walking from
    index ``i``; returns the start and the index the walk stopped at.

    ``i`` may be any index whose starts before it are all at most
    ``t + _EPS``, since the bisection for ``t`` lands at or after it. 0
    always is. So is the index a walk stopped at, for any ``t`` at or
    after the start it returned: the starts it bisected past were at most
    its own ``t + _EPS``, and the ones it walked past are below the start
    it returned.

    A start inside a reservation (by more than ``_EPS``) moves to its end.
    With ``duration <= _EPS`` that is all; otherwise the start moves past
    every following reservation that begins less than ``duration - _EPS``
    after it, onto the reservation's end.
    """
    i = bisect_right(starts, t + _EPS, i)
    if i > 0 and ends[i - 1] > t + _EPS:
        t = ends[i - 1]
    if duration > _EPS:
        n = len(starts)
        while i < n and t + duration > starts[i] + _EPS:
            e = ends[i]
            if e > t:
                t = e
            i += 1
    return t, i


def earliest_common_slot(
    resources: Sequence[Timeline],
    duration: Seconds,
    not_before: Seconds = 0.0,
    confirmed: bool = False,
) -> Seconds:
    """Earliest start where *all* resources are free for ``duration``.

    The fixpoint of :meth:`Timeline.earliest_slot` over the resources,
    called in turn: each call returns the candidate start ``t`` unchanged
    or moves it more than ``_EPS`` later, onto the end of a reservation.
    Once every resource in a row has returned ``t`` unchanged, ``t`` is the
    common slot. Terminates because the resources hold finitely many
    reservations.

    The calls are one joint walk: each resource's walk resumes at the index
    where its previous one stopped, since ``t`` never decreases. The moves,
    and so the returned float, are the fixpoint's.

    ``confirmed`` says that ``not_before`` is the first resource's own
    earliest slot for ``duration``. For ``duration > 2 * _EPS`` that
    resource's walk from its own slot returns it unchanged, so the cycle
    begins at the second resource with that answer counted.
    """
    t = max(0.0, not_before)
    count = len(resources)
    lists = [(tl._starts, tl._ends) for tl in resources]
    stops = [0] * count
    k = unchanged = 1 if confirmed else 0
    while unchanged < count:
        starts, ends = lists[k]
        t_new, stops[k] = _walk(starts, ends, duration, t, stops[k])
        if t_new > t:
            t = t_new
            unchanged = 0
        else:
            unchanged += 1
        k += 1
        if k == count:
            k = 0
    return t
