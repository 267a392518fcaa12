"""Self-contained HTML run report (inline SVG, zero dependencies).

``repro report RUN.json [BASELINE.json]`` renders a run manifest — and
optionally its diff against a second manifest — into **one** HTML file that
opens offline: all styling is an inline ``<style>`` block, every chart is
inline SVG, and there are no ``<script>`` tags, external stylesheets,
fonts or images. The page carries:

* a run summary (scheme, makespan, tasks, digest, versions);
* sparklines for every ``timeseries`` series with fault/sub-batch events
  drawn as vertical markers;
* a per-node activity strip (a compact Gantt substitute) derived from the
  ``port_busy_s/*`` series — segment shade is the port's busy fraction
  over that sample interval;
* the derived-metrics and transfer-statistics tables (each number in
  one of them);
* the ranked :mod:`repro.obs.diff` attribution view when a baseline is
  given.

Everything here is plain string assembly over already-JSON data, so the
module stays dependency-free and mypy-strict like the rest of
:mod:`repro.obs`.
"""

from __future__ import annotations

import html
from collections.abc import Mapping, Sequence
from pathlib import Path
from typing import Any

from .diff import ManifestDiff, diff_manifests

__all__ = ["render_report", "write_report"]

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Helvetica, Arial, sans-serif;
       margin: 2em auto; max-width: 70em; color: #1a1a2e; }
h1 { font-size: 1.4em; border-bottom: 2px solid #16213e; padding-bottom: .3em; }
h2 { font-size: 1.1em; margin-top: 1.6em; color: #16213e; }
table { border-collapse: collapse; margin: .6em 0; font-size: .85em; }
th, td { border: 1px solid #cbd2dc; padding: .25em .6em; text-align: right; }
th { background: #eef1f6; }
td.name, th.name { text-align: left; font-family: ui-monospace, monospace; }
.spark td { border: none; padding: .1em .6em; }
.delta-bad { color: #b00020; font-weight: 600; }
.delta-good { color: #1b7837; font-weight: 600; }
.dominant { background: #fff4e5; border-left: 4px solid #e8871e;
            padding: .5em .8em; font-size: .9em; }
.note { color: #5a6472; font-size: .8em; }
svg { vertical-align: middle; }
"""

_EVENT_COLORS = {
    "crash": "#b00020",
    "retry": "#e8871e",
    "slowdown-start": "#7b2cbf",
    "slowdown-end": "#b296d6",
    "subbatch": "#9aa5b1",
    "batch": "#1b7837",
}


def _fmt(value: Any) -> str:
    """Compact numeric formatting for table cells."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return html.escape(str(value))
    if isinstance(value, int):
        return f"{value:,}"
    if value == int(value) and abs(value) < 1e15:
        return f"{int(value):,}"
    return f"{value:,.3f}"


def _sorted_points(points: Sequence[Sequence[float]]) -> list[tuple[float, float]]:
    # Points are stored in commit order; commit ECTs are not globally
    # monotone across nodes, so sort by time for rendering only.
    return sorted((float(p[0]), float(p[1])) for p in points)


def _sparkline(
    points: Sequence[Sequence[float]],
    events: Sequence[Mapping[str, Any]] = (),
    *,
    width: int = 300,
    height: int = 36,
    t_max: float | None = None,
) -> str:
    """Inline SVG sparkline; events become vertical marker lines."""
    pts = _sorted_points(points)
    if not pts:
        return "<svg width='300' height='36'></svg>"
    t_lo = min(p[0] for p in pts)
    t_hi = t_max if t_max is not None else max(p[0] for p in pts)
    v_lo = min(p[1] for p in pts)
    v_hi = max(p[1] for p in pts)
    t_span = (t_hi - t_lo) or 1.0
    v_span = (v_hi - v_lo) or 1.0
    pad = 3.0

    def x(t: float) -> float:
        return pad + (t - t_lo) / t_span * (width - 2 * pad)

    def y(v: float) -> float:
        return height - pad - (v - v_lo) / v_span * (height - 2 * pad)

    parts = [f"<svg width='{width}' height='{height}' role='img'>"]
    for ev in events:
        t = float(ev.get("t", 0.0))
        if not t_lo <= t <= t_hi:
            continue
        color = _EVENT_COLORS.get(str(ev.get("kind")), "#9aa5b1")
        title = html.escape(f"{ev.get('kind')} @ {t:.3f}s {ev.get('detail') or ''}")
        parts.append(
            f"<line x1='{x(t):.1f}' y1='0' x2='{x(t):.1f}' y2='{height}' "
            f"stroke='{color}' stroke-width='1' stroke-dasharray='2,2'>"
            f"<title>{title}</title></line>"
        )
    poly = " ".join(f"{x(t):.1f},{y(v):.1f}" for t, v in pts)
    parts.append(
        f"<polyline points='{poly}' fill='none' stroke='#16213e' stroke-width='1.3'/>"
    )
    lx, lv = pts[-1]
    parts.append(f"<circle cx='{x(lx):.1f}' cy='{y(lv):.1f}' r='2' fill='#e8871e'/>")
    parts.append("</svg>")
    return "".join(parts)


def _activity_strip(
    points: Sequence[Sequence[float]],
    makespan: float,
    *,
    width: int = 420,
    height: int = 14,
) -> str:
    """Per-node activity strip: shade = busy fraction per sample interval.

    Built from the cumulative ``port_busy_s`` series — the derivative
    between consecutive samples is the fraction of that wall of simulated
    time the node's port (transfers + execution) was occupied.
    """
    pts = _sorted_points(points)
    if len(pts) < 2 or makespan <= 0:
        return f"<svg width='{width}' height='{height}'></svg>"
    parts = [f"<svg width='{width}' height='{height}'>"]
    parts.append(
        f"<rect x='0' y='0' width='{width}' height='{height}' fill='#eef1f6'/>"
    )
    prev_t, prev_v = 0.0, 0.0
    for t, v in pts:
        span = t - prev_t
        if span > 1e-12:
            frac = min(max((v - prev_v) / span, 0.0), 1.0)
            x0 = prev_t / makespan * width
            x1 = t / makespan * width
            if frac > 0.01:
                alpha = 0.15 + 0.85 * frac
                parts.append(
                    f"<rect x='{x0:.1f}' y='0' width='{max(x1 - x0, 0.5):.1f}' "
                    f"height='{height}' fill='#16213e' fill-opacity='{alpha:.2f}'>"
                    f"<title>{frac:.0%} busy, {prev_t:.2f}-{t:.2f}s</title></rect>"
                )
        prev_t, prev_v = t, v
    parts.append("</svg>")
    return "".join(parts)


def _kv_table(data: Mapping[str, Any], caption: str) -> str:
    rows = "".join(
        f"<tr><td class='name'>{html.escape(str(k))}</td><td>{_fmt(v)}</td></tr>"
        for k, v in data.items()
        if not isinstance(v, (dict, list))
    )
    if not rows:
        return ""
    return (
        f"<h2>{html.escape(caption)}</h2><table>"
        f"<tr><th class='name'>name</th><th>value</th></tr>{rows}</table>"
    )


def _timeseries_section(manifest: Mapping[str, Any]) -> str:
    ts = manifest.get("timeseries")
    if ts is None:
        return (
            "<h2>Time series</h2><p class='note'>No timeseries block — run "
            "with probes enabled (<code>--timeseries</code>) to record "
            "simulated-time trajectories.</p>"
        )
    makespan = float((manifest.get("result") or {}).get("makespan_s", 0.0))
    events = ts.get("events", [])
    out = [
        "<h2>Time series (simulated seconds)</h2>",
        f"<p class='note'>{int(ts.get('samples', 0)):,} samples, budget "
        f"{int(ts.get('budget', 0))}/series, {int(ts.get('compactions', 0))} "
        "downsampling compaction(s). Dashed markers: "
        + ", ".join(
            f"<span style='color:{c}'>{k}</span>"
            for k, c in _EVENT_COLORS.items()
        )
        + ".</p>",
        "<table class='spark'>",
    ]
    series = ts.get("series", {})
    for name in sorted(series):
        s = series[name]
        points = s.get("points", [])
        last = points[-1][1] if points else 0.0
        out.append(
            "<tr>"
            f"<td class='name'>{html.escape(name)}</td>"
            f"<td class='name'>{html.escape(str(s.get('unit', '')))}</td>"
            f"<td>{_fmt(last)}</td>"
            f"<td>{_sparkline(points, events, t_max=makespan or None)}</td>"
            "</tr>"
        )
    out.append("</table>")

    strips = [
        (name.split("/", 1)[1], series[name].get("points", []))
        for name in sorted(series)
        if name.startswith("port_busy_s/")
    ]
    if strips and makespan > 0:
        out.append("<h2>Node activity (0 &rarr; makespan)</h2><table class='spark'>")
        for node, points in strips:
            out.append(
                f"<tr><td class='name'>{html.escape(node)}</td>"
                f"<td>{_activity_strip(points, makespan)}</td></tr>"
            )
        out.append("</table>")
    return "".join(out)


def _online_section(manifest: Mapping[str, Any]) -> str:
    """Streaming-session block: queueing metrics, per-batch table, responses."""
    online = manifest.get("online")
    if online is None:
        return ""
    queueing = online.get("queueing") or {}
    header = dict(queueing)
    header["mode"] = online.get("mode")
    header["policy"] = online.get("policy")
    arrival = online.get("arrival")
    if arrival:
        header["arrival"] = " ".join(
            f"{k}={v}" for k, v in sorted(arrival.items())
        )
    out = [_kv_table(header, "Online session (queueing)")]
    batches = online.get("batches", [])
    if batches:
        out.append(
            "<h2>Dispatch windows</h2>"
            "<table><tr><th>#</th><th>dispatch (s)</th><th>jobs</th>"
            "<th>makespan (s)</th><th>sub-batches</th><th>queue</th>"
            "<th>remote MB</th><th>cross-batch MB</th></tr>"
        )
        for b in batches:
            out.append(
                "<tr>"
                f"<td>{_fmt(b.get('index'))}</td>"
                f"<td>{_fmt(b.get('dispatch_s'))}</td>"
                f"<td>{_fmt(b.get('num_jobs'))}</td>"
                f"<td>{_fmt(b.get('makespan_s'))}</td>"
                f"<td>{_fmt(b.get('sub_batches'))}</td>"
                f"<td>{_fmt(b.get('queue_depth'))}</td>"
                f"<td>{_fmt(b.get('remote_volume_mb'))}</td>"
                f"<td>{_fmt(b.get('cross_batch_hit_volume_mb'))}</td>"
                "</tr>"
            )
        out.append("</table>")
    jobs = online.get("jobs", [])
    if jobs:
        responses = [
            [float(j.get("arrival_s", 0.0)), float(j.get("response_s", 0.0))]
            for j in jobs
        ]
        out.append(
            "<h2>Job response times (s, by arrival)</h2>"
            f"<table class='spark'><tr><td class='name'>response_s</td>"
            f"<td>{_fmt(max(r[1] for r in responses))} max</td>"
            f"<td>{_sparkline(responses)}</td></tr></table>"
        )
    return "".join(out)


def _diff_section(diff: ManifestDiff, top: int = 10) -> str:
    cls = "delta-bad" if diff.delta_s > 0 else "delta-good"
    out = [
        "<h2>Diff vs baseline</h2>",
        f"<p>makespan {diff.makespan_a:.3f}s &rarr; {diff.makespan_b:.3f}s "
        f"(<span class='{cls}'>{diff.delta_s:+.3f}s, {diff.rel_delta:+.1%}</span>)</p>",
        f"<p class='dominant'>{html.escape(diff.dominant())}</p>",
    ]
    if diff.rows:
        out.append(
            "<table><tr><th class='name'>phase</th><th class='name'>node</th>"
            "<th>A (s)</th><th>B (s)</th><th>delta (s)</th></tr>"
        )
        for r in diff.rows[:top]:
            out.append(
                f"<tr><td class='name'>{html.escape(r.phase)}</td>"
                f"<td class='name'>{html.escape(r.node)}</td>"
                f"<td>{r.a_s:.3f}</td><td>{r.b_s:.3f}</td>"
                f"<td>{r.delta_s:+.3f}</td></tr>"
            )
        out.append("</table>")
    if diff.metric_rows:
        out.append(
            "<table><tr><th class='name'>metric</th><th>A</th><th>B</th>"
            "<th>rel</th></tr>"
        )
        for m in diff.metric_rows[:top]:
            out.append(
                f"<tr><td class='name'>{html.escape(m.name)}</td>"
                f"<td>{_fmt(m.a)}</td><td>{_fmt(m.b)}</td>"
                f"<td>{html.escape(m.rel_str)}</td></tr>"
            )
        out.append("</table>")
    for note in diff.notes:
        out.append(f"<p class='note'>{html.escape(note)}</p>")
    return "".join(out)


def render_report(
    manifest: Mapping[str, Any],
    baseline: Mapping[str, Any] | None = None,
    *,
    title: str | None = None,
) -> str:
    """Render one run manifest (plus optional baseline diff) as HTML."""
    scheme = str(manifest.get("scheme", "?"))
    result = manifest.get("result") or {}
    heading = title or f"repro run report — {scheme}"
    summary: dict[str, Any] = {
        "scheme": scheme,
        "makespan_s": result.get("makespan_s"),
        "scheduling_seconds": result.get("scheduling_seconds"),
        "sub_batches": result.get("sub_batches"),
        "tasks": result.get("tasks"),
        "config_digest": manifest.get("config_digest"),
    }
    for key, value in (manifest.get("versions") or {}).items():
        summary[f"version/{key}"] = value
    parts = [
        "<!doctype html>",
        "<html lang='en'><head><meta charset='utf-8'>",
        f"<title>{html.escape(heading)}</title>",
        f"<style>{_CSS}</style>",
        "</head><body>",
        f"<h1>{html.escape(heading)}</h1>",
        _kv_table(summary, "Run"),
    ]
    if baseline is not None:
        parts.append(_diff_section(diff_manifests(baseline, manifest)))
    parts.append(_online_section(manifest))
    parts.append(_timeseries_section(manifest))
    metrics = manifest.get("metrics")
    if metrics is not None:
        parts.append(_kv_table(metrics, "Derived metrics"))
    stats = manifest.get("stats")
    if stats:
        parts.append(_kv_table(stats, "Transfer statistics"))
    faults = manifest.get("faults")
    if faults is not None:
        parts.append(_kv_table(faults, "Fault accounting"))
    parts.append("</body></html>")
    return "\n".join(p for p in parts if p)


def write_report(
    manifest: Mapping[str, Any],
    path: str | Path,
    baseline: Mapping[str, Any] | None = None,
    *,
    title: str | None = None,
) -> Path:
    """Render and write the report; returns the output path."""
    out = Path(path)
    out.write_text(render_report(manifest, baseline, title=title))
    return out
