"""Simulated-time series probes over the executing runtime.

The run manifest (:mod:`repro.obs.export`) collapses a whole batch run into
scalar metrics; this module keeps the *trajectory*: per-node disk occupancy
and eviction pressure, port busy seconds, ready-queue and in-flight-transfer
depth, and the cumulative remote / replicated / cache-hit byte counters —
all sampled in **simulated seconds** at commit points, with fault events
(crashes, retries, slowdown windows) and sub-batch boundaries overlaid as
markers.

Determinism is the design constraint. Samples are taken at task commits and
proactive pushes (both simulated-time events), never from the wall clock,
and the fixed-budget downsampler is *merge-adjacent*: when a series reaches
twice its budget, adjacent point pairs merge keeping the later point
(last-value semantics — every series here is cumulative or a state gauge),
halving the series. No RNG, no wall clock: two runs of the same config
produce byte-identical ``timeseries`` blocks, which is what makes the
golden-fixture test in ``tests/obs/`` exact.

Probes are a plain on/off toggle (``run_batch(timeseries=True)``). When it
is off no probe is built, and the runtime's hooks are guarded by a single
``probe is not None`` attribute test — the disabled path allocates nothing,
preserving the <2% telemetry-off overhead guarantee.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.runtime import Runtime, _Tentative
    from ..cluster.state import ClusterState
    from ..faults import FaultSpec

__all__ = [
    "DEFAULT_BUDGET",
    "TIMESERIES_VERSION",
    "TimeSeriesProbe",
    "stitch_timeseries",
]

#: Schema version of the manifest ``timeseries`` block.
TIMESERIES_VERSION = 1

#: Per-series point budget (the downsampler's fixed bound). A series never
#: holds more than ``2 * budget - 1`` points, and compacts back to
#: ``budget`` whenever it reaches twice the budget.
DEFAULT_BUDGET = 512


class _Series:
    """One named series: a unit label and simulated-time points."""

    __slots__ = ("unit", "points")

    def __init__(self, unit: str) -> None:
        self.unit = unit
        self.points: list[tuple[float, float]] = []


class TimeSeriesProbe:
    """Samples cluster/runtime state at commit points in simulated time.

    The :class:`~repro.cluster.runtime.Runtime` calls the ``on_*`` hooks;
    every hook site is guarded by ``if self.probe is not None`` so a run
    without probes never pays more than one attribute test. Points are kept
    in commit order (commit ECTs are not globally monotone across nodes);
    consumers that need time-sorted points sort on render.
    """

    def __init__(
        self,
        *,
        num_compute: int,
        state: ClusterState,
        fault_spec: FaultSpec | None = None,
        budget: int = DEFAULT_BUDGET,
    ) -> None:
        self.budget = budget
        self.state = state
        self.num_compute = num_compute
        self.samples = 0
        self.compactions = 0
        self._series: dict[str, _Series] = {}
        self._events: list[dict[str, Any]] = []
        # Cumulative per-compute-node accounting, folded into samples.
        self._busy_s = [0.0] * num_compute
        self._evicted_mb = [0.0] * num_compute
        # Open transfer intervals (start, end) for the in-flight depth
        # gauge; pruned at sub-batch boundaries.
        self._inflight: list[tuple[float, float]] = []
        if fault_spec is not None:
            for w in fault_spec.link_slowdowns:
                detail = f"x{w.factor:g} ({w.scope})"
                self._events.append(
                    {"t": float(w.start), "kind": "slowdown-start",
                     "node": None, "detail": detail}
                )
                self._events.append(
                    {"t": float(w.end), "kind": "slowdown-end",
                     "node": None, "detail": detail}
                )

    # -- point recording ------------------------------------------------------
    def _point(self, name: str, unit: str, t: float, value: float) -> None:
        s = self._series.get(name)
        if s is None:
            s = self._series[name] = _Series(unit)
        pts = s.points
        pts.append((t, value))
        if len(pts) >= 2 * self.budget:
            # Merge-adjacent downsampling: keep the later point of every
            # adjacent pair. Last-value is lossless for the pair's right
            # edge on cumulative/state series, and the rule is pure — no
            # RNG, no wall clock — so traces stay byte-reproducible.
            s.points = pts[1::2]
            self.compactions += 1

    def _inflight_at(self, t: float) -> int:
        return sum(1 for start, end in self._inflight if start <= t < end)

    def _sample(self, runtime: Runtime, node: int, t: float) -> None:
        state = runtime.state
        stats = state.stats
        self._point(
            f"disk_used_mb/compute{node}", "MB", t, state.caches[node].used_mb
        )
        self._point(f"port_busy_s/compute{node}", "s", t, self._busy_s[node])
        self._point(
            f"evicted_mb/compute{node}", "MB", t, self._evicted_mb[node]
        )
        self._point("ready_tasks", "tasks", t, float(runtime._ready_count))
        self._point(
            "inflight_transfers", "transfers", t, float(self._inflight_at(t))
        )
        self._point("remote_mb", "MB", t, stats.remote_volume_mb)
        self._point("replicated_mb", "MB", t, stats.replication_volume_mb)
        self._point("cache_hit_mb", "MB", t, stats.cache_hit_volume_mb)
        self._point("evicted_mb", "MB", t, stats.evicted_volume_mb)
        self.samples += 1

    # -- runtime hooks --------------------------------------------------------
    def on_commit(self, runtime: Runtime, tent: _Tentative) -> None:
        """One sample per committed task, timestamped at the task's ECT."""
        node = tent.node
        busy = self._busy_s
        inflight = self._inflight
        busy[node] += tent.ect - tent.exec_start
        for _f, kind, src, start, duration in tent.transfers:
            busy[node] += duration
            if kind == "replica" and src is not None:
                busy[src] += duration
            inflight.append((start, start + duration))
        for _f, _size, kind, src, start, end, _attempt in tent.failed_attempts:
            busy[node] += end - start
            if kind == "replica" and src is not None:
                busy[src] += end - start
            inflight.append((start, end))
        self._sample(runtime, node, tent.ect)

    def on_push(
        self,
        runtime: Runtime,
        dest: int,
        kind: str,
        source: int | None,
        start: float,
        end: float,
    ) -> None:
        """One sample per committed proactive push (DLL replication)."""
        self._busy_s[dest] += end - start
        if kind == "replica" and source is not None:
            self._busy_s[source] += end - start
        self._inflight.append((start, end))
        self._sample(runtime, dest, end)

    def on_evict(self, node: int, size_mb: float) -> None:
        """Accumulate eviction pressure; surfaced at the next sample."""
        if 0 <= node < self.num_compute:
            self._evicted_mb[node] += size_mb

    def on_crash(self, node: int, t: float, files_lost: int) -> None:
        self._events.append(
            {"t": float(t), "kind": "crash", "node": node,
             "detail": f"{files_lost} file(s) lost"}
        )

    def on_retry(self, node: int, file_id: str, t: float, attempts: int) -> None:
        self._events.append(
            {"t": float(t), "kind": "retry", "node": node,
             "detail": f"{file_id}: {attempts} failed attempt(s)"}
        )

    def on_subbatch(self, index: int, t: float) -> None:
        """Mark a sub-batch boundary; prunes finished transfer intervals."""
        self._events.append(
            {"t": float(t), "kind": "subbatch", "node": None,
             "detail": f"#{index}"}
        )
        # Later samples are timestamped at or after the new sub-batch's
        # start, so intervals that ended before it can never count again.
        self._inflight = [(s, e) for s, e in self._inflight if e > t]

    # -- export ---------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """The manifest ``timeseries`` block (see run-manifest.schema.json)."""
        series = {
            name: {"unit": s.unit, "points": [[t, v] for t, v in s.points]}
            for name, s in sorted(self._series.items())
        }
        events = sorted(
            self._events,
            key=lambda e: (
                e["t"],
                e["kind"],
                -1 if e["node"] is None else e["node"],
                e["detail"] or "",
            ),
        )
        return {
            "version": TIMESERIES_VERSION,
            "budget": self.budget,
            "samples": self.samples,
            "compactions": self.compactions,
            "series": series,
            "events": events,
        }


def stitch_timeseries(
    blocks: list[tuple[float, Mapping[str, Any]]],
) -> dict[str, Any]:
    """Concatenate per-batch ``timeseries`` blocks onto one stream clock.

    Online sessions (:mod:`repro.online`) run each dispatch window through
    its own runtime, whose clock restarts at zero; ``blocks`` pairs each
    window's block with its dispatch time on the stream clock. Every point
    and event is offset by its window's dispatch, series are concatenated
    in dispatch order, and a ``batch`` boundary marker event is inserted at
    each dispatch — the same mechanism as the ``subbatch`` markers, one
    level up. Samples and compactions sum; the budget is the per-batch
    budget (individual batches were downsampled, the stitched series is
    their concatenation and may exceed it).
    """
    if not blocks:
        raise ValueError("no timeseries blocks to stitch")
    ordered = sorted(blocks, key=lambda b: b[0])
    series: dict[str, dict[str, Any]] = {}
    events: list[dict[str, Any]] = []
    samples = 0
    compactions = 0
    budget = int(ordered[0][1]["budget"])
    for index, (dispatch, block) in enumerate(ordered):
        if int(block["version"]) != TIMESERIES_VERSION:
            raise ValueError(
                f"cannot stitch timeseries version {block['version']}"
            )
        events.append(
            {"t": float(dispatch), "kind": "batch", "node": None,
             "detail": f"#{index}"}
        )
        samples += int(block["samples"])
        compactions += int(block["compactions"])
        for name, s in block["series"].items():
            out = series.get(name)
            if out is None:
                out = series[name] = {"unit": s["unit"], "points": []}
            out["points"].extend(
                [float(t) + dispatch, float(v)] for t, v in s["points"]
            )
        for e in block["events"]:
            events.append({**e, "t": float(e["t"]) + dispatch})
    events.sort(
        key=lambda e: (
            e["t"],
            e["kind"],
            -1 if e["node"] is None else e["node"],
            e["detail"] or "",
        )
    )
    return {
        "version": TIMESERIES_VERSION,
        "budget": budget,
        "samples": samples,
        "compactions": compactions,
        "series": {name: series[name] for name in sorted(series)},
        "events": events,
    }

