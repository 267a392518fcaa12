"""Process-local telemetry registry: counters, gauges and timed spans.

The instrumentation substrate of :mod:`repro.obs`. A single module-level
:data:`telemetry` registry is shared by every producer in the pipeline
(driver, schedulers, partitioner, MILP backends, caches). It is **disabled
by default** and designed so that the disabled path costs one attribute
check per call site:

* :meth:`Telemetry.count` / :meth:`Telemetry.gauge` return immediately when
  disabled;
* :meth:`Telemetry.span` returns a single shared no-op context manager when
  disabled (no allocation, no clock read);
* producers that must do extra work to *compute* a value (e.g. a cut weight)
  guard it with ``if telemetry.enabled:`` themselves.

Spans are hierarchical: entering a span pushes its name onto a stack, and
the completed span is aggregated under the ``/``-joined path of the stack
(``driver/execute/commit``). Only monotonic clocks (``time.perf_counter``)
are read — wall-clock time never enters the registry, so the simulator
modules that use it stay RPR003-clean (see :mod:`repro.analysis.lint`).
"""

from __future__ import annotations

import functools
import math
import time
from collections.abc import Callable
from dataclasses import dataclass
from types import TracebackType
from typing import Any, TypeVar

__all__ = ["SpanStats", "Telemetry", "telemetry"]

_F = TypeVar("_F", bound=Callable[..., Any])


@dataclass
class SpanStats:
    """Aggregate timing of every completed span sharing one path."""

    count: int = 0
    total_s: float = 0.0
    min_s: float = math.inf
    max_s: float = 0.0

    def add(self, duration_s: float) -> None:
        self.count += 1
        self.total_s += duration_s
        if duration_s < self.min_s:
            self.min_s = duration_s
        if duration_s > self.max_s:
            self.max_s = duration_s

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def to_dict(self) -> dict[str, float]:
        return {
            "count": float(self.count),
            "total_s": self.total_s,
            "mean_s": self.mean_s,
            "min_s": self.min_s if self.count else 0.0,
            "max_s": self.max_s,
        }


class _NullSpan:
    """Shared no-op context manager returned while telemetry is disabled."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """A live span: times the enclosed block and aggregates on exit."""

    __slots__ = ("_registry", "_name", "_t0")

    def __init__(self, registry: Telemetry, name: str) -> None:
        self._registry = registry
        self._name = name
        self._t0 = 0.0

    def __enter__(self) -> _Span:
        self._registry._stack.append(self._name)
        self._t0 = time.perf_counter()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        end = time.perf_counter()
        self._registry._finish(end - self._t0, self._t0)
        return False


class Telemetry:
    """Registry of counters, gauges and hierarchical timed spans.

    One instance, :data:`telemetry`, is shared process-wide; library code
    should use it rather than constructing private registries, so that one
    ``telemetry.enable()`` turns the whole pipeline's instrumentation on.

    Parameters
    ----------
    enabled:
        Start collecting immediately. Default ``False``: every hook in the
        pipeline stays a near-free no-op.
    keep_events:
        Additionally retain each individual span occurrence as
        ``(path, start_s, duration_s)`` with starts relative to the moment
        the registry was enabled — needed to export spans onto a timeline
        (Chrome trace) rather than as aggregates only.
    """

    def __init__(self, enabled: bool = False, keep_events: bool = False) -> None:
        self.enabled = enabled
        self.keep_events = keep_events
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.spans: dict[str, SpanStats] = {}
        self.events: list[tuple[str, float, float]] = []
        self._stack: list[str] = []
        self._epoch = time.perf_counter()

    # -- lifecycle -------------------------------------------------------------
    def enable(self, keep_events: bool | None = None) -> None:
        """Start collecting (optionally retaining individual span events)."""
        self.enabled = True
        if keep_events is not None:
            self.keep_events = keep_events
        self._epoch = time.perf_counter()

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop all collected data (the enabled flag is left untouched)."""
        self.counters.clear()
        self.gauges.clear()
        self.spans.clear()
        self.events.clear()
        self._stack.clear()
        self._epoch = time.perf_counter()

    # -- scalar instruments ----------------------------------------------------
    def count(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to the named monotonically increasing counter."""
        if not self.enabled:
            return
        self.counters[name] = self.counters.get(name, 0.0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set the named gauge to its most recent value."""
        if not self.enabled:
            return
        self.gauges[name] = value

    # -- spans ------------------------------------------------------------------
    def span(self, name: str) -> _Span | _NullSpan:
        """Context manager timing a block under ``name``.

        Nested spans aggregate under their ``/``-joined stack path, e.g.
        ``with telemetry.span("a"): with telemetry.span("b"): ...`` records
        the inner block under ``"a/b"``.
        """
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name)

    def timed(self, name: str | None = None) -> Callable[[_F], _F]:
        """Decorator form of :meth:`span` (span named after the function)."""

        def deco(fn: _F) -> _F:
            label = name if name is not None else fn.__qualname__

            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                if not self.enabled:
                    return fn(*args, **kwargs)
                with self.span(label):
                    return fn(*args, **kwargs)

            return wrapper  # type: ignore[return-value]

        return deco

    def _finish(self, duration_s: float, t0: float) -> None:
        path = "/".join(self._stack)
        self._stack.pop()
        stats = self.spans.get(path)
        if stats is None:
            stats = self.spans[path] = SpanStats()
        stats.add(duration_s)
        if self.keep_events:
            self.events.append((path, t0 - self._epoch, duration_s))

    # -- export -----------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """JSON-ready view of everything collected so far."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "spans": {path: s.to_dict() for path, s in sorted(self.spans.items())},
        }

    def top_spans(self, n: int = 10) -> list[tuple[str, SpanStats]]:
        """The ``n`` span paths with the largest total time, descending."""
        ranked = sorted(
            self.spans.items(), key=lambda kv: kv[1].total_s, reverse=True
        )
        return ranked[:n]


#: The process-wide registry every producer reports into. Disabled by
#: default, so all instrumentation hooks are no-ops until a caller (the
#: ``repro profile`` / ``repro metrics`` commands, a test, or
#: ``run_config_result(cfg, telemetry=True)``) enables it.
telemetry = Telemetry(enabled=False)
