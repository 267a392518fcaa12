"""Tests for the synthetic workload generator and overlap helper."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.batch import overlap_fraction
from repro.workloads import generate_synthetic_batch, within_group_overlap


class TestSynthetic:
    def test_basic_shape(self):
        b = generate_synthetic_batch(20, 50, 5, 4, seed=0)
        assert len(b) == 20
        for t in b.tasks:
            assert len(t.files) == 5

    def test_hot_probability_increases_sharing(self):
        cold = generate_synthetic_batch(
            50, 200, 5, 4, hot_probability=0.0, seed=0
        )
        hot = generate_synthetic_batch(
            50, 200, 5, 4, hot_probability=0.9, seed=0
        )
        assert overlap_fraction(hot) > overlap_fraction(cold)

    def test_size_spread(self):
        b = generate_synthetic_batch(
            10, 50, 5, 4, file_size_mb=100.0, size_spread=0.5, seed=0
        )
        sizes = [f.size_mb for f in b.files.values()]
        assert min(sizes) < 100.0 < max(sizes)
        assert all(50.0 <= s <= 150.0 for s in sizes)

    def test_constant_sizes_by_default(self):
        b = generate_synthetic_batch(10, 50, 5, 4, file_size_mb=42.0, seed=0)
        assert {f.size_mb for f in b.files.values()} == {42.0}

    def test_storage_round_robin(self):
        b = generate_synthetic_batch(10, 40, 5, 4, seed=0)
        assert {f.storage_node for f in b.files.values()} == {0, 1, 2, 3}

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_synthetic_batch(5, 3, 10, 2)  # more files/task than files
        with pytest.raises(ValueError):
            generate_synthetic_batch(5, 10, 2, 2, hot_probability=1.5)

    @pytest.mark.parametrize("hot", [1.0, 0.9999999999999999])
    def test_draws_end_once_the_hot_pool_is_held(self, hot):
        # Five files make a hot pool of one; every task needs two.
        b = generate_synthetic_batch(3, 5, 2, 1, hot_probability=hot, seed=0)
        for t in b.tasks:
            assert len(set(t.files)) == 2
            assert "syn00000" in t.files

    @settings(max_examples=25, deadline=None)
    @example(1, 5, 2, 1, 1.0, 0)
    @example(1, 5, 2, 1, 0.9999999999999999, 0)
    @given(
        st.integers(1, 30),
        st.integers(5, 60),
        st.integers(1, 5),
        st.integers(1, 4),
        st.floats(0.0, 1.0),
        st.integers(0, 100),
    )
    def test_generated_batches_always_valid(
        self, n_tasks, n_files, fpt, n_storage, hot, seed
    ):
        fpt = min(fpt, n_files)
        b = generate_synthetic_batch(
            n_tasks, n_files, fpt, n_storage, hot_probability=hot, seed=seed
        )
        assert len(b) == n_tasks
        for t in b.tasks:
            assert len(t.files) == fpt
            assert len(set(t.files)) == fpt
            assert t.compute_time >= 0
        for f in b.files.values():
            assert 0 <= f.storage_node < n_storage


class TestWithinGroupOverlap:
    def test_identical_tasks_full_overlap(self):
        b = generate_synthetic_batch(4, 10, 10, 1, seed=0)
        # All tasks read every file.
        assert within_group_overlap(b, lambda tid: 0) == pytest.approx(1.0)

    def test_singleton_groups_zero(self):
        b = generate_synthetic_batch(4, 20, 3, 1, seed=0)
        assert within_group_overlap(b, lambda tid: tid) == 0.0

    def test_group_separation(self):
        b = generate_synthetic_batch(10, 100, 4, 1, hot_probability=0.0, seed=0)
        all_pairs = within_group_overlap(b, lambda tid: 0)
        assert 0.0 <= all_pairs <= 1.0
