"""Differential tests for cross-batch state carryover (and the E8 audit).

Warm mode must be *exactly* hand-threading one ClusterState through
successive run_batch calls — the session adds bookkeeping, never
behaviour. Cold mode must be bit-identical to running each dispatch
window as an independent paper-style batch.
"""

import pytest

from repro.analysis.audit import _audit_cross_batch, AuditReport
from repro.batch import Batch, FileInfo, Task
from repro.cluster.events import (
    CacheHitEvent,
    CrashEvent,
    EventLog,
    EvictionEvent,
    TransferEvent,
)
from repro.cluster.platform import osc_xio
from repro.cluster.state import ClusterState
from repro.core.driver import run_batch
from repro.online import ClusterSession, stream_from_batch

GB = 1000.0


def _shared_batch():
    """8 jobs over a small hot file set; heavy sharing across the halves."""
    files = {f"f{i}": FileInfo(f"f{i}", 200.0, i % 2) for i in range(6)}
    tasks = [
        Task(f"t{i}", (f"f{i % 3}", f"f{3 + (i % 3)}"), 1.0 + 0.1 * i)
        for i in range(8)
    ]
    return Batch(tasks, files)


def _platform():
    return osc_xio(num_compute=3, num_storage=2, disk_space_mb=5 * GB)


def _stream():
    # First half arrives at t=0, second half much later: deterministic
    # two-window FIFO split whatever the first batch's makespan is.
    batch = _shared_batch()
    times = [0.0] * 4 + [500.0] * 4
    return stream_from_batch(batch, times)


def _executions(batch_result):
    return [
        (rec.task_id, rec.node, rec.transfers_done, rec.exec_start,
         rec.completion)
        for sb in batch_result.sub_batches
        for rec in sb.execution.records
    ]


@pytest.mark.parametrize("scheme", ["bipartition", "minmin"])
class TestWarmDifferential:
    def test_second_batch_matches_hand_threaded_state(self, scheme):
        stream = _stream()
        session = ClusterSession(
            _platform(), stream, scheme, warm=True, audit=True
        )
        res = session.run()
        assert len(res.batches) == 2
        first, second = res.batches

        # Reference: thread one ClusterState by hand, exactly as a user of
        # run_batch(state=...) would, and compare decisions.
        platform = _platform()
        state = ClusterState.initial(platform, stream.batch)
        state.begin_carryover()
        r1 = run_batch(
            stream.batch.subset(list(first.task_ids)), platform, scheme,
            state=state,
        )
        # r1.stats aliases the threaded state's stats: snapshot before the
        # second batch mutates them.
        xb_after_first = r1.stats.cross_batch_hit_volume_mb
        state.begin_carryover()
        r2 = run_batch(
            stream.batch.subset(list(second.task_ids)), platform, scheme,
            state=state,
        )

        assert first.makespan_s == r1.makespan
        assert second.makespan_s == r2.makespan
        assert second.sub_batches == r2.num_sub_batches
        # Decision-identical: same placements, transfers and timings in
        # the carried-over second batch.
        by_batch = {}
        for j in res.jobs:
            by_batch.setdefault(j.batch_index, []).append(j)
        sess_second = {j.task_id: j.completion - j.dispatch for j in by_batch[1]}
        ref_second = {
            task_id: completion
            for task_id, _n, _tr, _es, completion in _executions(r2)
        }
        # Stream-clock mapping (dispatch + t - dispatch) costs one ulp-ish
        # rounding, hence approx rather than bit equality on the times.
        assert sorted(sess_second) == sorted(ref_second)
        for task_id, completion in ref_second.items():
            assert sess_second[task_id] == pytest.approx(completion)
        assert second.stats.cross_batch_hit_volume_mb == pytest.approx(
            r2.stats.cross_batch_hit_volume_mb - xb_after_first
        )

    def test_cold_bit_identical_to_independent_runs(self, scheme):
        stream = _stream()
        res = ClusterSession(
            _platform(), stream, scheme, warm=False, audit=True
        ).run()
        assert len(res.batches) == 2
        for record in res.batches:
            alone = run_batch(
                stream.batch.subset(list(record.task_ids)),
                _platform(),
                scheme,
            )
            assert record.makespan_s == alone.makespan
            assert record.sub_batches == alone.num_sub_batches
            assert record.stats == alone.stats
            sess = {
                j.task_id: j.completion - j.dispatch
                for j in res.jobs
                if j.batch_index == record.index
            }
            ref = {
                task_id: completion
                for task_id, _n, _tr, _es, completion in _executions(alone)
            }
            assert sorted(sess) == sorted(ref)
            for task_id, completion in ref.items():
                assert sess[task_id] == pytest.approx(completion)

    def test_warm_second_batch_reuses_cache(self, scheme):
        # Bipartition may map the second window's groups onto nodes that
        # never cached its files (replicating afresh); the MCT-based
        # schemes chase the cached copies, so assert reuse on minmin only.
        if scheme != "minmin":
            pytest.skip("cache-chasing is placement-dependent; see comment")
        res = ClusterSession(
            _platform(), _stream(), scheme, warm=True, audit=True
        ).run()
        assert res.batches[0].stats.cross_batch_hit_volume_mb == 0.0
        assert res.batches[1].stats.cross_batch_hit_volume_mb > 0.0
        # Warm reuse shows up as remote volume the cold baseline pays.
        cold = ClusterSession(
            _platform(), _stream(), scheme, warm=False
        ).run()
        assert res.stats.remote_volume_mb < cold.stats.remote_volume_mb


class TestE8Audit:
    def _log(self, *events):
        return EventLog(list(events), initial_holdings={1: {"carried": 100.0}})

    def test_clean_attribution_passes(self):
        log = self._log(
            CacheHitEvent(1, "carried", 100.0, cross_batch=True),
            CacheHitEvent(1, "fresh", 50.0, cross_batch=False),
        )
        report = AuditReport()
        _audit_cross_batch(log, report)
        assert report.ok

    def test_false_cross_batch_claim_rejected(self):
        # Claimed carried over, but never resident since the prior commit.
        log = self._log(CacheHitEvent(1, "fresh", 50.0, cross_batch=True))
        report = AuditReport()
        _audit_cross_batch(log, report)
        assert not report.ok
        assert report.violations[0].code == "E8"

    def test_missed_cross_batch_attribution_rejected(self):
        log = self._log(CacheHitEvent(1, "carried", 100.0, cross_batch=False))
        report = AuditReport()
        _audit_cross_batch(log, report)
        assert not report.ok
        assert report.violations[0].code == "E8"

    def test_eviction_breaks_residency(self):
        log = self._log(
            EvictionEvent(1, "carried", 100.0),
            # Re-staged after eviction: a hit on it is now intra-batch.
            TransferEvent("carried", 100.0, "remote", 0, 1, 0.0, 1.0),
            CacheHitEvent(1, "carried", 100.0, cross_batch=False),
        )
        report = AuditReport()
        _audit_cross_batch(log, report)
        assert report.ok

    def test_crash_breaks_residency(self):
        log = self._log(
            CrashEvent(1, 1.0, (("carried", 100.0),)),
            CacheHitEvent(1, "carried", 100.0, cross_batch=True),
        )
        report = AuditReport()
        _audit_cross_batch(log, report)
        assert not report.ok
