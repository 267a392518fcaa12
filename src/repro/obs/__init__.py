"""Unified observability: telemetry spans, decision logs, derived metrics.

The measurement substrate of the reproduction, in three parts:

* :mod:`repro.obs.core` — a process-local :class:`Telemetry` registry of
  counters, gauges and hierarchical timed spans, disabled by default and
  near-free when disabled. Every producer in the pipeline (driver,
  schedulers, runtime, hypergraph partitioner, MILP backends) reports
  into the shared :data:`telemetry` singleton.
* :mod:`repro.obs.decisions` — one structured record per scheduler task
  placement, replayable against executed
  :class:`~repro.cluster.stats.TaskRecord`\\ s to quantify estimation error.
* :mod:`repro.obs.metrics` / :mod:`repro.obs.export` — paper-facing metrics
  derived from an executed runtime (utilization, port contention, transfer
  and cache ratios; Eqs. 9–13), the single-JSON *run manifest* that
  carries everything, each number once, and the merged Chrome trace.

This package sits directly above :mod:`repro.cluster` and below
:mod:`repro.core`: it may import the simulator's data types but never the
schedulers, so instrumented producers can import it without cycles.
"""

from .core import SpanStats, Telemetry, telemetry
from .decisions import Decision, DecisionLog, DecisionReplay, ReplayedDecision
from .diff import ManifestDiff, diff_manifests, format_diff, load_run
from .export import (
    MANIFEST_KIND,
    MANIFEST_VERSION,
    build_manifest,
    build_stream_manifest,
    load_schema,
    merged_chrome_trace,
    validate_manifest,
    write_manifest,
)
from .metrics import RunMetrics, compute_metrics, conservation_residual_mb
from .report import render_report, write_report
from .schema import SchemaError, check, validate
from .timeseries import TimeSeriesProbe, stitch_timeseries

__all__ = [
    "MANIFEST_KIND",
    "MANIFEST_VERSION",
    "Decision",
    "DecisionLog",
    "DecisionReplay",
    "ManifestDiff",
    "ReplayedDecision",
    "RunMetrics",
    "SchemaError",
    "SpanStats",
    "Telemetry",
    "TimeSeriesProbe",
    "build_manifest",
    "build_stream_manifest",
    "check",
    "compute_metrics",
    "conservation_residual_mb",
    "diff_manifests",
    "format_diff",
    "load_run",
    "load_schema",
    "merged_chrome_trace",
    "render_report",
    "stitch_timeseries",
    "telemetry",
    "validate",
    "validate_manifest",
    "write_manifest",
]
