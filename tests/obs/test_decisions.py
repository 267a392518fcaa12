"""Decision-log recording and replay against executed task records."""

import math

import pytest

from repro.cluster.platform import osc_xio
from repro.cluster.stats import TaskRecord
from repro.core.driver import run_batch
from repro.obs.core import telemetry
from repro.obs.decisions import Decision, DecisionLog
from repro.workloads import generate_image_batch


@pytest.fixture(autouse=True)
def clean_registry():
    telemetry.reset()
    telemetry.disable()
    yield
    telemetry.reset()
    telemetry.disable()


def _record(task_id: str, completion: float) -> TaskRecord:
    return TaskRecord(
        task_id=task_id, node=0, transfers_done=0.0, exec_start=0.0,
        completion=completion,
    )


class TestDecisionLog:
    def test_record_and_len(self):
        log = DecisionLog(scheme="minmin")
        log.record("t0", 1, reason="global-min-mct", estimated_completion=2.0)
        assert len(log) == 1
        d = log.decisions[0]
        assert d.scheme == "minmin" and d.node == 1

    def test_replay_matches_and_reports_error(self):
        log = DecisionLog(scheme="x")
        log.record("t0", 0, reason="r", estimated_completion=10.0)
        log.record("t1", 0, reason="r", estimated_completion=5.0)
        log.record("ghost", 0, reason="r", estimated_completion=1.0)
        replay = log.replay([_record("t0", 12.0), _record("t1", 5.0)])
        assert len(replay.matched) == 2
        assert replay.unmatched == ["ghost"]
        assert replay.max_abs_error_s == pytest.approx(2.0)
        assert replay.mean_abs_error_s == pytest.approx(1.0)
        assert replay.bias_s == pytest.approx(1.0)  # realized later than estimated

    def test_summary_shapes(self):
        log = DecisionLog(scheme="x")
        log.record("t0", 0, reason="r", estimated_completion=1.0, evaluated=4, ties=1)
        doc = log.summary([_record("t0", 1.0)])
        assert doc["decisions"] == 1 and doc["evaluated"] == 4 and doc["ties"] == 1
        assert doc["replay"]["matched"] == 1
        assert doc["replay"]["mean_abs_error_s"] == pytest.approx(0.0)

    def test_decision_to_dict_round_trips(self):
        d = Decision("t", 2, "s", "r", 3.0, 8, 0)
        doc = d.to_dict()
        assert doc["task_id"] == "t" and doc["estimated_completion"] == 3.0


class TestSchedulerIntegration:
    def test_no_log_without_telemetry(self):
        batch = generate_image_batch(8, "high", 4, seed=0)
        result = run_batch(batch, osc_xio(), "minmin")
        assert result.decision_log is None

    def test_minmin_logs_one_decision_per_task(self):
        batch = generate_image_batch(10, "high", 4, seed=0)
        result = run_batch(batch, osc_xio(), "minmin", telemetry=True)
        log = result.decision_log
        assert log is not None and len(log) == 10
        assert {d.task_id for d in log.decisions} == {t.task_id for t in batch.tasks}
        assert all(d.reason == "global-min-mct" for d in log.decisions)
        assert all(d.evaluated > 0 for d in log.decisions)

    def test_single_node_estimates_match_execution(self):
        # On one compute node with unlimited disk the MCT model and the
        # Section 6 runtime coincide: no contention, no eviction, the same
        # serial stage+execute accounting. Estimation error is float noise.
        batch = generate_image_batch(12, "high", 4, seed=1)
        platform = osc_xio(num_compute=1, num_storage=4)
        result = run_batch(batch, platform, "minmin", telemetry=True)
        records = [
            r for sb in result.sub_batches for r in sb.execution.records
        ]
        replay = result.decision_log.replay(records)
        assert not replay.unmatched
        assert replay.max_abs_error_s < 1e-6

    def test_multi_node_estimates_stay_finite(self):
        batch = generate_image_batch(12, "high", 4, seed=0)
        result = run_batch(batch, osc_xio(), "sufferage", telemetry=True)
        log = result.decision_log
        assert all(math.isfinite(d.estimated_completion) for d in log.decisions)
        assert all(d.reason == "max-sufferage" for d in log.decisions)
        records = [
            r for sb in result.sub_batches for r in sb.execution.records
        ]
        est = log.summary(records)
        assert est["replay"]["matched"] == 12
