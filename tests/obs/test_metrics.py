"""Derived run metrics: utilization bounds, conservation, audit cross-check."""

import pytest

from repro.cluster.events import EvictionEvent, TransferEvent
from repro.cluster.platform import osc_xio
from repro.core.driver import run_batch
from repro.obs.core import telemetry
from repro.obs.metrics import IDLE_GAP_BUCKETS, compute_metrics
from repro.workloads import generate_image_batch


@pytest.fixture(autouse=True)
def clean_registry():
    telemetry.reset()
    telemetry.disable()
    yield
    telemetry.reset()
    telemetry.disable()


def _fig5b_like(num_tasks: int = 24, scheme: str = "bipartition"):
    """A reduced disk-pressure cell in Fig. 5(b)'s configuration."""
    batch = generate_image_batch(num_tasks, "high", 4, seed=0)
    platform = osc_xio(num_compute=4, num_storage=4, disk_space_mb=4000.0)
    return run_batch(
        batch, platform, scheme, candidate_limit=25, telemetry=True, audit=True
    )


class TestRunMetrics:
    def test_utilizations_and_fractions_bounded(self):
        result = _fig5b_like()
        m = result.metrics
        assert m is not None
        assert m.makespan_s == pytest.approx(result.makespan)
        for name, u in m.node_exec_utilization.items():
            assert 0.0 <= u <= 1.0, name
        assert 0.0 <= m.mean_exec_utilization <= 1.0
        for name, f in m.port_busy_fraction.items():
            assert 0.0 <= f <= 1.0 + 1e-9, name
        assert 0.0 <= m.disk_hit_ratio <= 1.0
        assert m.file_reuse_factor >= 1.0
        assert 0.0 <= m.replicated_fraction <= 1.0

    def test_histogram_covers_all_buckets(self):
        m = _fig5b_like().metrics
        assert len(m.idle_gap_histogram) == len(IDLE_GAP_BUCKETS) + 1
        assert all(v >= 0 for v in m.idle_gap_histogram.values())

    def test_byte_conservation(self):
        # Every staged MB is still resident or was evicted (Section 4.2/4.3
        # bookkeeping): the residual must vanish even under disk pressure.
        m = _fig5b_like(num_tasks=32, scheme="minmin").metrics
        assert m.conservation_residual_mb == pytest.approx(0.0, abs=1e-6)

    def test_metrics_cross_check_audit_trail(self):
        # The transfer statistics and the audited event log are independent
        # accountings of the same execution; their byte totals must agree.
        result = _fig5b_like(num_tasks=32, scheme="minmin")
        log = result.runtime.events
        assert log is not None
        s = result.stats
        transfers = [e for e in log.events if isinstance(e, TransferEvent)]
        remote_mb = sum(t.size_mb for t in transfers if t.kind == "remote")
        replica_mb = sum(t.size_mb for t in transfers if t.kind == "replica")
        evicted_mb = sum(
            e.size_mb for e in log.events if isinstance(e, EvictionEvent)
        )
        assert s.remote_volume_mb == pytest.approx(remote_mb)
        assert s.replication_volume_mb == pytest.approx(replica_mb)
        # Between-sub-batch evictions are logged too (the driver's
        # _pre_evict reports through Runtime.on_evict), so the totals match.
        assert s.evicted_volume_mb == pytest.approx(evicted_mb)

    def test_compute_metrics_from_runtime_alone(self):
        result = _fig5b_like()
        assert compute_metrics(result.runtime) == result.metrics


class TestCacheHitAccounting:
    def test_cache_hits_recorded_for_resident_inputs(self):
        # High overlap + persistent state means later tasks find inputs
        # already on their node: those must surface as cache hits.
        result = _fig5b_like()
        assert result.stats.cache_hits > 0
        assert result.stats.cache_hit_volume_mb > 0.0

    def test_no_hits_means_no_volume(self):
        batch = generate_image_batch(4, "zero", 4, seed=3)
        result = run_batch(batch, osc_xio(num_compute=4), "jdp", telemetry=True)
        if result.stats.cache_hits == 0:
            assert result.stats.cache_hit_volume_mb == 0.0
