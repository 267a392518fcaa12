"""ClusterSession under fault injection: the spec's time base per mode.

A warm session reads its fault spec on the stream clock: one fault model
spans every window, so a crash or disk loss at a stream time fires once,
whichever window it falls in, and a slowdown window slows only the
windows it covers. A cold session runs each window standalone, its spec on
the window's own clock, exactly as ``run_batch`` would alone.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.core import run_batch
from repro.experiments import run_stream_config, stream_config_from_dict
from repro.faults import FaultStats
from repro.online import session as session_module

#: ``examples/streams/trace-smoke.json``: 11 windows of MinMin dispatched
#: between 0 and 360 s, each 3.3-4.5 s long; without faults every task but
#: one runs on node 0, and the window dispatched at 40 s runs there from
#: 41.3 to 43.9 s.
SPEC = json.loads(
    (
        Path(__file__).resolve().parents[2]
        / "examples" / "streams" / "trace-smoke.json"
    ).read_text()
)

CRASH_NODE, CRASH_AT = 0, 42.0
FAULTS = {
    "node_crashes": [{"node": CRASH_NODE, "time": CRASH_AT}],
    "disk_losses": [{"node": 0, "time": 1.0, "lost_mb": 500.0}],
    "transfer_failure_rate": 0.3,
    "seed": 2,
}


def _run(monkeypatch, warm, faults=FAULTS):
    """The session's result and each window's ``(BatchResult, faults)``."""
    windows = []
    real = session_module.run_batch

    def spy(*args, **kwargs):
        result = real(*args, **kwargs)
        windows.append((result, kwargs["faults"]))
        return result

    monkeypatch.setattr(session_module, "run_batch", spy)
    cfg = stream_config_from_dict({**SPEC, "faults": faults})
    return run_stream_config(cfg, warm=warm), windows, cfg


class TestWarm:
    def test_crash_and_loss_each_fire_once(self, monkeypatch):
        res, windows, _cfg = _run(monkeypatch, warm=True)
        assert len(res.batches) == len(windows) > 2
        assert res.fault_stats.node_crashes == 1
        assert res.fault_stats.disk_losses == 1
        # One model spans the stream and every window passed the audit.
        assert len({id(model) for _r, model in windows}) == 1
        for result, _model in windows:
            assert result.audit_report is not None and result.audit_report.ok
        # The loss applied when the window dispatched at 5 s started; every
        # later window's audit starts from the disk it left.
        capacities = [
            r.runtime.events.initial_capacity_mb[0] for r, _m in windows
        ]
        assert capacities == [10_000.0] * 2 + [9_500.0] * (len(windows) - 2)

    def test_nothing_runs_on_the_crashed_node_after_its_crash(self, monkeypatch):
        res, windows, _cfg = _run(monkeypatch, warm=True)
        before = after = 0
        for record, (result, _model) in zip(res.batches, windows):
            for sb in result.sub_batches:
                for rec in sb.execution.records:
                    if rec.node != CRASH_NODE:
                        if record.dispatch + rec.exec_start > CRASH_AT:
                            after += 1
                        continue
                    assert record.dispatch + rec.completion <= CRASH_AT + 1e-6
                    before += 1
        # The check is not vacuous: the node ran tasks before its crash,
        # and the survivors ran tasks after it.
        assert before > 0 and after > 0

    def test_slowdown_slows_only_the_windows_it_covers(self, monkeypatch):
        slow = {"link_slowdowns": [
            {"start": 0.0, "end": 10.0, "factor": 2.0, "scope": "all"}
        ]}
        res, _windows, _cfg = _run(monkeypatch, warm=True, faults=slow)
        clean, _windows, _cfg = _run(monkeypatch, warm=True, faults=None)
        assert res.batches[0].makespan_s > clean.batches[0].makespan_s
        # Windows dispatched after the slowdown ends run as without it.
        later = [(g, w) for g, w in zip(res.batches, clean.batches)
                 if g.dispatch >= 10.0]
        assert len(later) == len(res.batches) - 2
        for got, want in later:
            assert (got.dispatch, got.task_ids) == (want.dispatch, want.task_ids)
            assert got.makespan_s == want.makespan_s
        marks = [
            (e["t"], e["kind"]) for e in res.timeseries["events"]
            if e["kind"].startswith("slowdown")
        ]
        assert marks == [(0.0, "slowdown-start"), (10.0, "slowdown-end")]

    def test_staging_instances_count_across_windows(self, monkeypatch):
        res, windows, _cfg = _run(monkeypatch, warm=True)
        model = windows[0][1]
        # Each committed on-demand transfer (MinMin stages no pushes)
        # advanced its (file, node) staging instance once, on the model.
        staged = res.stats.remote_transfers + res.stats.replications
        assert sum(model.staging_instances.values()) == staged


class TestCold:
    def test_each_window_equals_its_standalone_run(self, monkeypatch):
        res, windows, cfg = _run(monkeypatch, warm=False)
        stream = cfg.stream()
        platform = cfg.platform()
        total = FaultStats()
        for record, (result, model) in zip(res.batches, windows):
            assert model.origin is None
            alone = run_batch(
                stream.batch.subset(list(record.task_ids)),
                platform,
                cfg.scheme,
                faults=FAULTS,
                audit=True,
                timeseries=True,
            )
            assert record.makespan_s == alone.makespan
            assert record.stats == alone.stats
            assert result.fault_stats == alone.fault_stats
            assert result.timeseries == alone.timeseries
            records = [r for sb in result.sub_batches for r in sb.execution.records]
            assert records == [
                r for sb in alone.sub_batches for r in sb.execution.records
            ]
            total = total.merge(alone.fault_stats)
        assert res.fault_stats == total
        assert dataclasses.asdict(res.fault_stats) == {
            f.name: sum(getattr(r.fault_stats, f.name) for r, _m in windows)
            for f in dataclasses.fields(FaultStats)
        }


@pytest.mark.parametrize("warm", [True, False])
def test_faults_that_never_fire_change_nothing(monkeypatch, warm):
    clean, _w, _c = _run(monkeypatch, warm=warm, faults=None)
    late = {"node_crashes": [{"node": 0, "time": 10_000.0}]}
    res, _w, _c = _run(monkeypatch, warm=warm, faults=late)
    assert res.jobs == clean.jobs

    def decisions(batches):  # scheduling_seconds is wall-clock time
        return [dataclasses.replace(b, scheduling_seconds=0.0) for b in batches]

    assert decisions(res.batches) == decisions(clean.batches)
    assert res.stats == clean.stats
    assert res.timeseries == clean.timeseries
    assert res.fault_stats == FaultStats()
