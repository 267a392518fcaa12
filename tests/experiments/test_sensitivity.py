"""Tests for the replication-advantage sensitivity sweep."""

import pytest

from repro.experiments import replication_advantage_sweep


class TestSweepStructure:
    @pytest.fixture(scope="class")
    def table(self):
        return replication_advantage_sweep(
            ratios=(1.0, 10.0),
            num_tasks=12,
            schemes=("bipartition", "minmin"),
        )

    def test_record_grid(self, table):
        assert len(table.records) == 4  # 2 ratios x 2 schemes
        assert {r.x for r in table.records} == {1.0, 10.0}
        assert {r.scheme for r in table.records} == {"bipartition", "minmin"}

    def test_makespans_positive(self, table):
        assert all(r.makespan_s > 0 for r in table.records)

    def test_records_summarise_their_runs(self, table):
        from repro.core import run_batch
        from repro.experiments.sensitivity import _platform
        from repro.workloads import generate_image_batch

        assert all(r.scheduling_ms_per_task > 0 for r in table.records)
        batch = generate_image_batch(12, "high", 4, seed=0)
        for r in table.records:
            run = run_batch(batch, _platform(100.0, 100.0 * r.x), r.scheme)
            assert (r.sub_batches, r.evictions) == (
                run.num_sub_batches, run.stats.evictions
            )

    def test_cheaper_replication_never_slower_for_bipartition(self, table):
        by = {
            r.x: r.makespan_s
            for r in table.records
            if r.scheme == "bipartition"
        }
        # More interconnect bandwidth can only help a fixed mapping.
        assert by[10.0] <= by[1.0] * 1.05

    def test_platform_name_encodes_ratio(self):
        from repro.experiments.sensitivity import _platform

        p = _platform(100.0, 500.0)
        assert p.name == "sweep-5x"
        assert p.replication_bandwidth == 500.0
        assert p.remote_bandwidth(0) == 100.0
