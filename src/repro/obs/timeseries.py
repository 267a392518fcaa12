"""Simulated-time series of one run, folded from its event log.

The run manifest (:mod:`repro.obs.export`) collapses a whole batch run into
scalar metrics; this module keeps the *trajectory*: per-node disk occupancy
and eviction pressure, port busy seconds, ready-queue and in-flight-transfer
depth, and the cumulative remote / replicated / cache-hit byte counters —
all sampled in **simulated seconds** at commit points, with fault events
(crashes, retries, slowdown windows) and sub-batch boundaries overlaid as
markers.

The runtime records nothing for the series itself: :class:`TimeSeriesProbe`
folds the commit-ordered :class:`~repro.cluster.events.EventLog` the runtime
keeps for the auditor, in one pass after the run. It starts from the log's
snapshot of the disks and transfer statistics and replays each event's
change in the order the runtime made it, so every sampled value equals what
the runtime's state held at that commit.

Determinism is the design constraint. Samples are taken at task commits and
proactive pushes (both simulated-time events), never from the wall clock,
and the fixed-budget downsampler is *merge-adjacent*: when a series reaches
twice its budget, adjacent point pairs merge keeping the later point
(last-value semantics — every series here is cumulative or a state gauge),
halving the series. No RNG, no wall clock: two runs of the same config
produce byte-identical ``timeseries`` blocks, which is what makes the
golden-fixture tests in ``tests/obs/`` exact.

The series is a plain on/off toggle (``run_batch(timeseries=True)``). When
it and the audit are both off the runtime keeps no log and no probe is
built.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING, Any

from ..cluster.events import (
    CacheHitEvent,
    CrashEvent,
    EventLog,
    EvictionEvent,
    ExecEvent,
    FailedTransferEvent,
    SubBatchEvent,
    TransferEvent,
)

if TYPE_CHECKING:  # pragma: no cover
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


def _marker(t: float, kind: str, node: int | None, detail: str) -> dict[str, Any]:
    return {"t": float(t), "kind": kind, "node": node, "detail": detail}


def _slowdown_markers(spec: FaultSpec) -> list[dict[str, Any]]:
    """A start and an end marker per link-slowdown window of ``spec``."""
    markers = []
    for w in spec.link_slowdowns:
        detail = f"x{w.factor:g} ({w.scope})"
        markers.append(_marker(w.start, "slowdown-start", None, detail))
        markers.append(_marker(w.end, "slowdown-end", None, detail))
    return markers


def _event_order(e: Mapping[str, Any]) -> tuple[float, str, int, str]:
    node = -1 if e["node"] is None else e["node"]
    return (e["t"], e["kind"], node, e["detail"] or "")


class _Series:
    """One named series: a unit label and simulated-time points."""

    __slots__ = ("unit", "points")

    def __init__(self, unit: str) -> None:
        self.unit = unit
        self.points: list[tuple[float, float]] = []


class TimeSeriesProbe:
    """Folds a runtime's event log into the manifest ``timeseries`` block.

    :meth:`to_dict` runs the fold on its first call; ``on_*`` are its
    steps. Each committed task and each proactive push is one sample,
    timestamped at its end. Points are kept in commit order (commit ECTs
    are not globally monotone across nodes); consumers that need
    time-sorted points sort on render.
    """

    def __init__(
        self,
        log: EventLog,
        *,
        fault_spec: FaultSpec | None = None,
        budget: int = DEFAULT_BUDGET,
    ) -> None:
        self.log = log
        self.budget = budget
        self.samples = 0
        self.compactions = 0
        self._series: dict[str, _Series] = {}
        self._events: list[dict[str, Any]] = []
        self._folded = False
        # What the runtime's state held at the event being folded: disk
        # occupancy and volume counters, starting from the log's snapshot.
        num_compute = len(log.initial_used_mb)
        self._used_mb = list(log.initial_used_mb)
        stats = log.initial_stats
        self._remote_mb = stats.remote_volume_mb
        self._replicated_mb = stats.replication_volume_mb
        self._cache_hit_mb = stats.cache_hit_volume_mb
        self._evicted_total_mb = stats.evicted_volume_mb
        # Sizes of the files staged so far (held files: the snapshot).
        self._sizes: dict[str, float] = {}
        # Tasks of the current sub-batch not yet committed, per node.
        self._ready = [0] * num_compute
        self._subbatches = 0
        # Cumulative per-compute-node accounting, folded into samples.
        self._busy_s = [0.0] * num_compute
        self._evicted_mb = [0.0] * num_compute
        # Transfer intervals (start, end) for the in-flight depth gauge;
        # pruned at sub-batch boundaries.
        self._inflight: list[tuple[float, float]] = []
        if fault_spec is not None:
            self._events.extend(_slowdown_markers(fault_spec))

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

    def _mark(self, t: float, kind: str, node: int | None, detail: str) -> None:
        self._events.append(_marker(t, kind, node, detail))

    def _sample(self, node: int, t: float) -> None:
        self._point(f"disk_used_mb/compute{node}", "MB", t, self._used_mb[node])
        self._point(f"port_busy_s/compute{node}", "s", t, self._busy_s[node])
        self._point(
            f"evicted_mb/compute{node}", "MB", t, self._evicted_mb[node]
        )
        self._point("ready_tasks", "tasks", t, float(sum(self._ready)))
        inflight = sum(1 for start, end in self._inflight if start <= t < end)
        self._point("inflight_transfers", "transfers", t, float(inflight))
        self._point("remote_mb", "MB", t, self._remote_mb)
        self._point("replicated_mb", "MB", t, self._replicated_mb)
        self._point("cache_hit_mb", "MB", t, self._cache_hit_mb)
        self._point("evicted_mb", "MB", t, self._evicted_total_mb)
        self.samples += 1

    def _place(self, tr: TransferEvent) -> None:
        """A transfer lands: the destination disk and volume counters grow."""
        self._used_mb[tr.dest] += tr.size_mb
        self._sizes[tr.file_id] = tr.size_mb
        if tr.kind == "remote":
            self._remote_mb += tr.size_mb
        else:
            self._replicated_mb += tr.size_mb

    # -- the fold ---------------------------------------------------------------
    def _fold(self) -> None:
        """One pass over the log; a commit's staging precedes its execution."""
        staged: list[TransferEvent] = []
        failed: list[FailedTransferEvent] = []
        for event in self.log.events:
            if isinstance(event, CacheHitEvent):
                continue  # cache-hit volume is derived from executions
            if isinstance(event, TransferEvent):
                if event.push:
                    self.on_push(event)
                else:
                    staged.append(event)
            elif isinstance(event, ExecEvent):
                self.on_commit(event, staged, failed)
                staged, failed = [], []
            elif isinstance(event, FailedTransferEvent):
                failed.append(event)
            elif isinstance(event, EvictionEvent):
                self.on_evict(event)
            elif isinstance(event, CrashEvent):
                self.on_crash(event)
            elif isinstance(event, SubBatchEvent):
                self.on_subbatch(event)

    def on_commit(
        self,
        ev: ExecEvent,
        staged: Sequence[TransferEvent],
        failed: Sequence[FailedTransferEvent],
    ) -> None:
        """One sample per committed task, timestamped at its completion.

        ``staged`` and ``failed`` are the commit's transfers and failed
        attempts. Busy seconds accrue for the execution, then the
        transfers, then the failed attempts; each input not staged by the
        commit is a cache hit.
        """
        node = ev.node
        busy = self._busy_s
        inflight = self._inflight
        busy[node] += ev.end - ev.start
        for tr in staged:
            self._place(tr)
            busy[node] += tr.duration
            if tr.kind == "replica" and tr.source_node is not None:
                busy[tr.source_node] += tr.duration
            inflight.append((tr.start, tr.end))
        chains: dict[str, list[FailedTransferEvent]] = {}
        for fa in failed:
            busy[node] += fa.end - fa.start
            if fa.kind == "replica" and fa.source_node is not None:
                busy[fa.source_node] += fa.end - fa.start
            inflight.append((fa.start, fa.end))
            chains.setdefault(fa.file_id, []).append(fa)
        for file_id, fails in chains.items():
            self._mark(
                fails[0].start, "retry", node,
                f"{file_id}: {len(fails)} failed attempt(s)",
            )
        staged_ids = {tr.file_id for tr in staged}
        held = self.log.initial_holdings.get(node, {})
        for f in ev.files:
            if f not in staged_ids:
                size = self._sizes[f] if f in self._sizes else held[f]
                self._cache_hit_mb += size
        self._ready[node] -= 1
        self._sample(node, ev.end)

    def on_push(self, ev: TransferEvent) -> None:
        """One sample per proactive push (DLL replication), at its end."""
        self._place(ev)
        # A push is charged ``end - start``, which can differ from its
        # ``duration`` in the last bit; the published series have always
        # used it.
        self._busy_s[ev.dest] += ev.end - ev.start
        if ev.kind == "replica" and ev.source_node is not None:
            self._busy_s[ev.source_node] += ev.end - ev.start
        self._inflight.append((ev.start, ev.end))
        self._sample(ev.dest, ev.end)

    def on_evict(self, ev: EvictionEvent) -> None:
        """Accumulate eviction pressure; surfaced at the next sample."""
        self._used_mb[ev.node] -= ev.size_mb
        self._evicted_mb[ev.node] += ev.size_mb
        self._evicted_total_mb += ev.size_mb

    def on_crash(self, ev: CrashEvent) -> None:
        """The node's disk empties and its uncommitted tasks leave."""
        for _file_id, size in ev.lost_files:
            self._used_mb[ev.node] -= size
        self._ready[ev.node] = 0
        self._mark(
            ev.time, "crash", ev.node, f"{len(ev.lost_files)} file(s) lost"
        )

    def on_subbatch(self, ev: SubBatchEvent) -> None:
        """Mark a sub-batch boundary; prunes finished transfer intervals."""
        self._mark(ev.time, "subbatch", None, f"#{self._subbatches}")
        self._subbatches += 1
        self._ready = list(ev.ready)
        # Later samples are timestamped at or after the new sub-batch's
        # start, so intervals that ended before it can never count again.
        self._inflight = [(s, e) for s, e in self._inflight if e > ev.time]

    # -- export ---------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """The manifest ``timeseries`` block (see run-manifest.schema.json);
        the first call folds the log."""
        if not self._folded:
            self._fold()
            self._folded = True
        series = {
            name: {"unit": s.unit, "points": [[t, v] for t, v in s.points]}
            for name, s in sorted(self._series.items())
        }
        return {
            "version": TIMESERIES_VERSION,
            "budget": self.budget,
            "samples": self.samples,
            "compactions": self.compactions,
            "series": series,
            "events": sorted(self._events, key=_event_order),
        }


def stitch_timeseries(
    blocks: list[tuple[float, Mapping[str, Any]]],
    fault_spec: FaultSpec | None = None,
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
    their concatenation and may exceed it). ``fault_spec`` is given when the
    windows read it on the stream clock (a warm session): their blocks
    carry no slowdown markers, and each of its slowdown windows is marked
    here once, at its stream times.
    """
    if not blocks:
        raise ValueError("no timeseries blocks to stitch")
    ordered = sorted(blocks, key=lambda b: b[0])
    series: dict[str, dict[str, Any]] = {}
    events = _slowdown_markers(fault_spec) if fault_spec is not None else []
    samples = 0
    compactions = 0
    budget = int(ordered[0][1]["budget"])
    for index, (dispatch, block) in enumerate(ordered):
        if int(block["version"]) != TIMESERIES_VERSION:
            raise ValueError(
                f"cannot stitch timeseries version {block['version']}"
            )
        events.append(_marker(dispatch, "batch", None, f"#{index}"))
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
    events.sort(key=_event_order)
    return {
        "version": TIMESERIES_VERSION,
        "budget": budget,
        "samples": samples,
        "compactions": compactions,
        "series": {name: series[name] for name in sorted(series)},
        "events": events,
    }

