"""Layer tracer: spans and counts recorded around calls into the program.

The tracer lives entirely in the benchmark. While installed it replaces a
fixed list of functions and methods of :mod:`repro` with thin wrappers that
open a span on entry and close it on exit; uninstalling restores the
originals. Each span records its layer name, its start and end
(``time.perf_counter``), the span that caused it (its parent on the call
stack) and the benchmark job it belongs to. A layer's *self time* is its
spans' durations minus the parts covered by child spans, so the self times
of all layers add up to the traced wall time of the jobs.

Layers, outermost first (see ``perfbench/README.md`` for what each covers):

``job`` -> ``session`` -> ``admit`` / ``driver`` -> ``schedule`` ->
``select`` / ``map`` -> ``evict`` -> ``runtime`` -> ``evaluate`` ->
``slot_search`` / ``commit`` -> ``probe`` / ``audit``.

Spans of the hot layers (``evaluate``, ``slot_search``) are aggregated
only; the others are also kept as individual records, up to a cap, and
written out with :meth:`Tracer.dump`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable, Iterator

#: Every layer the tracer reports, in reporting order.
LAYERS = (
    "job",
    "session",
    "admit",
    "driver",
    "schedule",
    "select",
    "map",
    "evict",
    "runtime",
    "evaluate",
    "slot_search",
    "commit",
    "probe",
    "audit",
)

#: Layers too frequent to keep one record per span.
_HOT = frozenset({"evaluate", "slot_search"})

#: Span records kept per run; later ones are only aggregated.
_KEEP_LIMIT = 50_000

#: (module, attribute path, layer). A module-level function is patched in
#: every listed module that holds a reference to it, because callers bind
#: it by name at import time.
PATCH_POINTS: tuple[tuple[str, str, str], ...] = (
    ("repro.online.session", "ClusterSession.run", "session"),
    ("repro.online.queue", "FIFOWindow.select", "admit"),
    ("repro.online.queue", "SizeCappedWindow.select", "admit"),
    ("repro.online.queue", "LocalityWindow.select", "admit"),
    ("repro.core.driver", "run_batch", "driver"),
    ("repro.online.session", "run_batch", "driver"),
    ("repro.core.bipartition", "BiPartitionScheduler.next_subbatch", "schedule"),
    ("repro.core.minmin", "MinMinScheduler.next_subbatch", "schedule"),
    ("repro.core.bipartition", "BiPartitionScheduler._select_subbatches", "select"),
    ("repro.core.bipartition", "BiPartitionScheduler._map_subbatch", "map"),
    ("repro.core.minmin", "MinMinScheduler._map", "map"),
    ("repro.core.driver", "_pre_evict", "evict"),
    ("repro.cluster.runtime", "Runtime.execute", "runtime"),
    ("repro.cluster.runtime", "Runtime.evaluate", "evaluate"),
    ("repro.cluster.runtime", "earliest_common_slot", "slot_search"),
    ("repro.cluster.runtime", "Runtime._commit", "commit"),
    ("repro.obs.timeseries", "TimeSeriesProbe.on_commit", "probe"),
    ("repro.obs.timeseries", "TimeSeriesProbe.on_push", "probe"),
    ("repro.obs.timeseries", "TimeSeriesProbe.on_evict", "probe"),
    ("repro.obs.timeseries", "TimeSeriesProbe.on_subbatch", "probe"),
    ("repro.obs.timeseries", "TimeSeriesProbe.to_dict", "probe"),
    ("repro.online.session", "stitch_timeseries", "probe"),
    ("repro.analysis.audit", "audit_runtime", "audit"),
)


class Tracer:
    """Span recorder with per-layer self-time and call-count aggregation."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        # (span id, parent id, job id, layer, start s, end s)
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.dropped = 0
        # Open spans: [layer, span id, start, time covered by children].
        self._stack: list[list[Any]] = []
        self._next_id = 1
        self._job = 0
        self._epoch = time.perf_counter()
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------------
    def _enter(self, layer: str) -> list[Any]:
        frame = [layer, self._next_id, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list[Any]) -> None:
        end = time.perf_counter()
        layer, span_id, start, child_s = frame
        self._stack.pop()
        duration = end - start
        self.self_s[layer] += duration - child_s
        self.calls[layer] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        if layer not in _HOT:
            if len(self.spans) < _KEEP_LIMIT:
                self.spans.append(
                    (
                        span_id,
                        parent[1] if parent is not None else 0,
                        self._job,
                        layer,
                        start - self._epoch,
                        end - self._epoch,
                    )
                )
            else:
                self.dropped += 1

    @contextlib.contextmanager
    def job(self, job_id: int) -> Iterator[None]:
        """Span one benchmark job, the root of its spans."""
        self._job = job_id
        frame = self._enter("job")
        try:
            yield
        finally:
            self._exit(frame)

    def wrap(self, fn: Callable[..., Any], layer: str) -> Callable[..., Any]:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = self._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if layer == "map" and args:
                # The MCT kernel's real work, read off the scheduler.
                stats = getattr(args[0], "kernel_stats", None)
                if stats is not None:
                    self.counts["mct_pair_evaluations"] += stats.pair_evaluations
            return result

        return traced

    # -- installation ----------------------------------------------------------
    def install(self) -> None:
        """Patch every point. A point that no longer resolves raises
        ``LookupError``: a layer that silently read zero would look like a
        gain."""
        wrapped: dict[int, Callable[..., Any]] = {}
        for module_name, path, layer in PATCH_POINTS:
            owner: object = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for name in parents:
                owner = getattr(owner, name, None)
            original = owner.__dict__.get(attr) if owner is not None else None
            if original is None:
                self.uninstall()
                raise LookupError(f"no {module_name}.{path} to trace ({layer})")
            if id(original) not in wrapped:
                wrapped[id(original)] = self.wrap(original, layer)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped[id(original)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    # -- output ----------------------------------------------------------------
    def dump(self, path: Path) -> None:
        """Write the kept span records and per-layer aggregates as JSON."""
        doc = {
            "layers": {
                layer: {"self_s": self.self_s[layer], "calls": self.calls[layer]}
                for layer in LAYERS
            },
            "counts": dict(self.counts),
            "span_fields": ["id", "parent", "job", "layer", "start_s", "end_s"],
            "spans": self.spans,
            "spans_dropped": self.dropped,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))

