"""Gantt chart export: inspect what the runtime actually scheduled.

Three views over a :class:`~repro.cluster.runtime.Runtime`'s timelines:

* :func:`trace_events` — flat, sorted event records (resource, start, end,
  tag kind) for programmatic analysis;
* :func:`render_ascii` — a terminal Gantt chart, one row per resource,
  for eyeballing contention and idle gaps;
* :func:`to_chrome_trace` — Chrome ``chrome://tracing`` / Perfetto JSON,
  one "thread" per resource, for real visual inspection.

Tags written by the runtime are ``xfer:<file>-><node>``,
``push:<file>-><node>`` and ``exec:<task>``; the kind is the prefix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import Runtime

__all__ = ["TraceEvent", "trace_events", "render_ascii", "to_chrome_trace"]


@dataclass(frozen=True)
class TraceEvent:
    """One reservation on one resource."""

    resource: str
    start: float
    end: float
    tag: str

    @property
    def kind(self) -> str:
        """``xfer``, ``push``, ``exec`` or ``other``."""
        head, _, _ = self.tag.partition(":")
        return head if head in ("xfer", "push", "exec") else "other"

    @property
    def duration(self) -> float:
        return self.end - self.start


def trace_events(runtime: Runtime) -> list[TraceEvent]:
    """All reservations across all resources, sorted by start time."""
    events = [
        TraceEvent(tl.name, iv.start, iv.end, iv.tag)
        for tl in runtime.timelines()
        for iv in tl.intervals
    ]
    events.sort(key=lambda e: (e.start, e.resource))
    return events


def render_ascii(runtime: Runtime, width: int = 72) -> str:
    """Terminal Gantt chart: one row per resource.

    ``x`` marks transfers, ``#`` executions, ``p`` pushes; ``.`` idle.
    """
    resources = runtime.timelines()
    horizon = max((tl.horizon for tl in resources), default=0.0)
    if horizon <= 0:
        return "(empty gantt)"
    name_w = max(len(tl.name) for tl in resources)
    scale = width / horizon
    glyph = {"xfer": "x", "push": "p", "exec": "#", "other": "?"}

    lines = [
        f"{'':{name_w}}  0s{'':{max(0, width - 12)}}{horizon:8.1f}s",
    ]
    for tl in resources:
        row = ["."] * width
        for iv in tl.intervals:
            a = int(iv.start * scale)
            b = max(a + 1, int(iv.end * scale))
            ch = glyph[TraceEvent(tl.name, iv.start, iv.end, iv.tag).kind]
            for pos in range(a, min(b, width)):
                row[pos] = ch
        lines.append(f"{tl.name:{name_w}}  {''.join(row)}")
    lines.append(
        f"{'':{name_w}}  x=transfer  p=push  #=execute  .=idle "
        f"(1 col ~ {horizon / width:.2f}s)"
    )
    return "\n".join(lines)


def to_chrome_trace(runtime: Runtime) -> str:
    """Chrome-tracing JSON: load in chrome://tracing or ui.perfetto.dev.

    Resources become thread ids; times are exported in microseconds as the
    format requires (simulated seconds * 1e6).
    """
    resources = runtime.timelines()
    tid_of = {tl.name: i for i, tl in enumerate(resources)}
    events: list[dict] = []
    for tl in resources:
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": tid_of[tl.name],
                "args": {"name": tl.name},
            }
        )
        for iv in tl.intervals:
            ev = TraceEvent(tl.name, iv.start, iv.end, iv.tag)
            events.append(
                {
                    "name": iv.tag or ev.kind,
                    "cat": ev.kind,
                    "ph": "X",
                    "pid": 0,
                    "tid": tid_of[tl.name],
                    "ts": iv.start * 1e6,
                    "dur": iv.duration * 1e6,
                }
            )
    return json.dumps({"traceEvents": events}, indent=None)
