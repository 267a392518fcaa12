"""Run manifest assembly and export (JSON, NDJSON, merged Chrome trace).

A *run manifest* is the single JSON artifact describing one executed batch
run: what was run (config + content digest + package versions), what came
out (makespan, transfer statistics, the derived :class:`RunMetrics`), and
how the time was spent (the :data:`~repro.obs.core.telemetry` snapshot and
the scheduler decision-log summary). Its shape is frozen by the checked-in
JSON Schema ``run-manifest.schema.json`` next to this module; CI validates
every manifest it produces against that schema
(:func:`validate_manifest` uses the dependency-free validator in
:mod:`repro.obs.schema`).

Exports:

* :func:`build_manifest` — assemble the manifest from a finished
  :class:`~repro.core.plan.BatchResult` (duck-typed so this module never
  imports the scheduler layer above it);
* :func:`write_manifest` / :func:`write_ndjson` — persist as one JSON
  document or as newline-delimited records (one line per counter, gauge,
  span, metric and decision — greppable and stream-appendable);
* :func:`merged_chrome_trace` — the simulated-time Gantt trace
  (:func:`~repro.cluster.trace.to_chrome_trace`) merged with the
  wall-clock telemetry span events as a second Perfetto process.
"""

from __future__ import annotations

import json
import math
import platform as _platform
from collections.abc import Iterator, Mapping
from pathlib import Path
from typing import TYPE_CHECKING, Any

from .core import Telemetry
from .metrics import RunMetrics
from .schema import validate

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.runtime import Runtime
    from ..core.plan import BatchResult

__all__ = [
    "MANIFEST_KIND",
    "MANIFEST_VERSION",
    "build_manifest",
    "build_stream_manifest",
    "load_schema",
    "manifest_to_ndjson",
    "merged_chrome_trace",
    "validate_manifest",
    "write_manifest",
    "write_ndjson",
]

MANIFEST_KIND = "repro-run-manifest"
MANIFEST_VERSION = 1

#: The checked-in JSON Schema the manifest must validate against.
SCHEMA_PATH = Path(__file__).with_name("run-manifest.schema.json")


def _jsonable(value: Any) -> Any:
    """Make a value strictly JSON-serialisable (no NaN/Infinity literals)."""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return value
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def load_schema() -> dict[str, Any]:
    """Load the checked-in run-manifest JSON Schema."""
    with open(SCHEMA_PATH) as fh:
        doc = json.load(fh)
    assert isinstance(doc, dict)
    return doc


def build_manifest(
    result: BatchResult,
    *,
    config: Mapping[str, Any] | None = None,
    config_digest: str | None = None,
    telemetry_snapshot: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Assemble the run manifest for one finished batch run.

    ``result`` is a :class:`~repro.core.plan.BatchResult`; the attributes
    filled by ``run_batch(..., telemetry=True)`` (``metrics``,
    ``decision_log``, ``telemetry``) flow into the manifest when present.
    ``telemetry_snapshot`` overrides the snapshot attached to the result
    (used by callers that merge several runs' registries first).
    """
    from .. import __version__  # deferred: the package root imports obs' users

    metrics = result.metrics
    decisions = result.decision_log
    snapshot = telemetry_snapshot if telemetry_snapshot is not None else result.telemetry
    stats = result.stats
    records = [r for sb in result.sub_batches for r in sb.execution.records]
    manifest: dict[str, Any] = {
        "kind": MANIFEST_KIND,
        "manifest_version": MANIFEST_VERSION,
        "versions": {
            "repro": __version__,
            "python": _platform.python_version(),
        },
        "config": dict(config) if config is not None else None,
        "config_digest": config_digest,
        "scheme": result.scheduler,
        "result": {
            "makespan_s": result.makespan,
            "scheduling_seconds": result.scheduling_seconds,
            "sub_batches": result.num_sub_batches,
            "tasks": result.num_tasks,
        },
        "stats": {
            "remote_transfers": stats.remote_transfers,
            "remote_volume_mb": stats.remote_volume_mb,
            "replications": stats.replications,
            "replication_volume_mb": stats.replication_volume_mb,
            "evictions": stats.evictions,
            "evicted_volume_mb": stats.evicted_volume_mb,
            "cache_hits": stats.cache_hits,
            "cache_hit_volume_mb": stats.cache_hit_volume_mb,
        },
        "metrics": metrics.to_dict() if isinstance(metrics, RunMetrics) else None,
        "telemetry": dict(snapshot) if snapshot is not None else None,
        "decisions": decisions.summary(records) if decisions is not None else None,
    }
    # Fault-injection runs carry their recovery counters; fault-free runs
    # omit the key entirely so existing golden manifests stay byte-stable.
    fault_stats = getattr(result, "fault_stats", None)
    if fault_stats is not None:
        manifest["faults"] = fault_stats.to_dict()
    # Time-series probes likewise: the key exists only on runs executed
    # with ``run_batch(timeseries=...)`` enabled (repro.obs.timeseries).
    timeseries = getattr(result, "timeseries", None)
    if timeseries is not None:
        manifest["timeseries"] = timeseries
    out = _jsonable(manifest)
    assert isinstance(out, dict)
    return out


def build_stream_manifest(
    stream_result: Any,
    *,
    config: Mapping[str, Any] | None = None,
    config_digest: str | None = None,
) -> dict[str, Any]:
    """Assemble the run manifest for one streamed session.

    ``stream_result`` is a :class:`~repro.online.session.StreamResult`
    (duck-typed, like :func:`build_manifest`): the standard ``result`` and
    ``stats`` blocks summarise the whole stream (total span, cumulative
    transfer statistics), and the schema-versioned optional ``online``
    block carries the queueing metrics, per-batch and per-job records
    (``stream_result.to_dict()``). Validates against the same
    ``run-manifest.schema.json``.
    """
    from .. import __version__  # deferred: the package root imports obs' users

    stats = stream_result.stats
    manifest: dict[str, Any] = {
        "kind": MANIFEST_KIND,
        "manifest_version": MANIFEST_VERSION,
        "versions": {
            "repro": __version__,
            "python": _platform.python_version(),
        },
        "config": dict(config) if config is not None else None,
        "config_digest": config_digest,
        "scheme": stream_result.scheme,
        "result": {
            "makespan_s": stream_result.total_span_s,
            "scheduling_seconds": sum(
                b.scheduling_seconds for b in stream_result.batches
            ),
            "sub_batches": sum(b.sub_batches for b in stream_result.batches),
            "tasks": stream_result.num_jobs,
        },
        "stats": {
            "remote_transfers": stats.remote_transfers,
            "remote_volume_mb": stats.remote_volume_mb,
            "replications": stats.replications,
            "replication_volume_mb": stats.replication_volume_mb,
            "evictions": stats.evictions,
            "evicted_volume_mb": stats.evicted_volume_mb,
            "cache_hits": stats.cache_hits,
            "cache_hit_volume_mb": stats.cache_hit_volume_mb,
        },
        "metrics": None,
        "telemetry": None,
        "decisions": None,
        "online": stream_result.to_dict(),
    }
    fault_stats = getattr(stream_result, "fault_stats", None)
    if fault_stats is not None:
        manifest["faults"] = fault_stats.to_dict()
    timeseries = getattr(stream_result, "timeseries", None)
    if timeseries is not None:
        manifest["timeseries"] = timeseries
    out = _jsonable(manifest)
    assert isinstance(out, dict)
    return out


def validate_manifest(manifest: Mapping[str, Any]) -> list[str]:
    """Validate a manifest against the checked-in schema; returns errors."""
    return validate(dict(manifest), load_schema())


def write_manifest(manifest: Mapping[str, Any], path: str | Path) -> Path:
    """Write the manifest as one indented JSON document."""
    path = Path(path)
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, allow_nan=False)
        fh.write("\n")
    return path


def manifest_to_ndjson(manifest: Mapping[str, Any]) -> Iterator[str]:
    """Flatten a manifest into newline-delimited JSON records.

    The first line is a ``header`` record carrying run identity (digest,
    scheme, versions, result and transfer stats); every counter, gauge,
    span, metric and the decision summary follow as one typed line each.
    """
    header = {
        "type": "header",
        "kind": manifest.get("kind"),
        "manifest_version": manifest.get("manifest_version"),
        "versions": manifest.get("versions"),
        "config_digest": manifest.get("config_digest"),
        "scheme": manifest.get("scheme"),
        "result": manifest.get("result"),
        "stats": manifest.get("stats"),
    }
    yield json.dumps(header, sort_keys=True, allow_nan=False)
    telemetry = manifest.get("telemetry") or {}
    for name, value in sorted(telemetry.get("counters", {}).items()):
        yield json.dumps({"type": "counter", "name": name, "value": value})
    for name, value in sorted(telemetry.get("gauges", {}).items()):
        yield json.dumps({"type": "gauge", "name": name, "value": value})
    for path, span in sorted(telemetry.get("spans", {}).items()):
        yield json.dumps({"type": "span", "path": path, **span})
    metrics = manifest.get("metrics") or {}
    for name, value in sorted(metrics.items()):
        yield json.dumps(
            {"type": "metric", "name": name, "value": value}, allow_nan=False
        )
    decisions = manifest.get("decisions")
    if decisions is not None:
        yield json.dumps({"type": "decisions", **decisions}, allow_nan=False)
    faults = manifest.get("faults")
    if faults is not None:
        yield json.dumps({"type": "faults", **faults}, allow_nan=False)
    online = manifest.get("online")
    if online is not None:
        # One summary line for the stream, one per dispatched batch; the
        # per-job array stays in the JSON manifest (it can be long).
        yield json.dumps(
            {
                "type": "online",
                "mode": online.get("mode"),
                "policy": online.get("policy"),
                "scheme": online.get("scheme"),
                **(online.get("queueing") or {}),
            },
            allow_nan=False,
        )
        for batch in online.get("batches", []):
            yield json.dumps({"type": "online-batch", **batch}, allow_nan=False)
    timeseries = manifest.get("timeseries")
    if timeseries is not None:
        # One summary line per series (name, unit, point count, last value)
        # keeps the NDJSON greppable without inlining whole point arrays;
        # events are small and flatten one per line.
        for name, series in sorted(timeseries.get("series", {}).items()):
            points = series.get("points", [])
            yield json.dumps(
                {
                    "type": "timeseries",
                    "name": name,
                    "unit": series.get("unit"),
                    "points": len(points),
                    "last": points[-1][1] if points else None,
                },
                allow_nan=False,
            )
        for event in timeseries.get("events", []):
            yield json.dumps(
                {"type": "timeseries-event", **event}, allow_nan=False
            )


def write_ndjson(manifest: Mapping[str, Any], path: str | Path) -> Path:
    """Write the manifest's NDJSON form, one record per line."""
    path = Path(path)
    with open(path, "w") as fh:
        for line in manifest_to_ndjson(manifest):
            fh.write(line + "\n")
    return path


def merged_chrome_trace(runtime: Runtime, registry: Telemetry) -> str:
    """Chrome/Perfetto trace: simulated Gantt chart + wall-clock spans.

    The runtime's resource timelines export as process 0 (simulated
    seconds, as :func:`~repro.cluster.trace.to_chrome_trace` always did);
    the telemetry registry's retained span events (collect them with
    ``telemetry.enable(keep_events=True)``) are added as process 1 on their
    own wall-clock timebase, one thread per top-level span path. Perfetto
    renders the two processes as separate track groups, so the different
    time bases coexist in one file.
    """
    from ..cluster.trace import to_chrome_trace

    doc = json.loads(to_chrome_trace(runtime))
    events: list[dict[str, Any]] = doc["traceEvents"]
    for ev in events:
        ev["pid"] = 0
    events.insert(
        0,
        {"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
         "args": {"name": "simulated cluster (Gantt)"}},
    )
    events.append(
        {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
         "args": {"name": "telemetry (wall clock)"}},
    )
    tids: dict[str, int] = {}
    for path, start_s, duration_s in registry.events:
        root = path.split("/", 1)[0]
        tid = tids.setdefault(root, len(tids))
        events.append(
            {
                "name": path,
                "cat": "telemetry",
                "ph": "X",
                "pid": 1,
                "tid": tid,
                "ts": start_s * 1e6,
                "dur": duration_s * 1e6,
            }
        )
    for root, tid in tids.items():
        events.append(
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
             "args": {"name": root}},
        )
    return json.dumps(doc, indent=None)
