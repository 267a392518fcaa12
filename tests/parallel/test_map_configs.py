"""Tests for the parallel experiment fan-out (`repro.parallel.pool`)."""

import dataclasses

import pytest

from repro import parallel
from repro.experiments import ExperimentConfig, fig5b_batch_size
from repro.parallel import ResultCache, map_configs
from repro.parallel import pool as pool_module


def cells(schemes=("bipartition", "minmin", "jdp"), **overrides):
    base = dict(
        experiment="test",
        workload="image",
        overlap="high",
        num_tasks=8,
        storage="xio",
        seed=0,
    )
    base.update(overrides)
    configs = [ExperimentConfig(scheme=s, **base) for s in schemes]
    return configs, [base["overlap"]] * len(configs)


def strip_timing(records):
    """Timing is wall-clock and legitimately varies run to run."""
    return [dataclasses.replace(r, scheduling_ms_per_task=0.0) for r in records]


class TestMapConfigs:
    def test_matches_serial_run_config(self):
        from repro.experiments import run_config

        configs, xs = cells()
        expected = [run_config(c, x) for c, x in zip(configs, xs)]
        got = map_configs(configs, xs, workers=1)
        assert strip_timing(got) == strip_timing(expected)

    @pytest.mark.skipif(
        not parallel.fork_available(), reason="platform cannot fork"
    )
    def test_workers2_identical_to_serial(self):
        configs, xs = cells()
        serial = map_configs(configs, xs, workers=1)
        fanned = map_configs(configs, xs, workers=2)
        assert strip_timing(serial) == strip_timing(fanned)

    def test_order_preserved(self):
        configs, xs = cells(schemes=("jdp", "bipartition", "minmin"))
        records = map_configs(configs, xs, workers=2)
        assert [r.scheme for r in records] == ["jdp", "bipartition", "minmin"]

    def test_mismatched_xs_rejected(self):
        configs, xs = cells()
        with pytest.raises(ValueError):
            map_configs(configs, xs[:-1])

    def test_empty_input(self):
        assert map_configs([], []) == []

    def test_serial_fallback_without_fork(self, monkeypatch):
        monkeypatch.setattr(pool_module, "fork_available", lambda: False)
        configs, xs = cells()
        records = map_configs(configs, xs, workers=4)
        assert [r.scheme for r in records] == ["bipartition", "minmin", "jdp"]


class TestCacheIntegration:
    def test_second_run_is_all_hits_and_no_simulation(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        configs, xs = cells()
        first = map_configs(configs, xs, cache=cache)
        assert (cache.stats.hits, cache.stats.misses, cache.stats.stores) == (0, 3, 3)

        calls = []
        real = pool_module.run_config

        def counting(cfg, x=None):
            calls.append(cfg)
            return real(cfg, x)

        monkeypatch.setattr(pool_module, "run_config", counting)
        second = map_configs(configs, xs, cache=cache)
        assert (cache.stats.hits, cache.stats.stores) == (3, 3)
        assert calls == []  # zero simulations on the replay
        assert second == first

    def test_changed_field_misses(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        configs, xs = cells()
        map_configs(configs, xs, cache=cache)
        changed = [dataclasses.replace(c, num_tasks=9) for c in configs]
        cache.stats.reset()
        map_configs(changed, xs, cache=cache)
        assert (cache.stats.hits, cache.stats.misses) == (0, 3)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_finished_cells_are_kept_when_a_later_cell_fails(
        self, tmp_path, workers
    ):
        # The second cell's 1 MB disks cannot hold a task's inputs, so it
        # raises; the first cell's record must already be in the cache.
        cache = ResultCache(tmp_path / "cache")
        (ok,), (x,) = cells(schemes=("minmin",))
        broken = dataclasses.replace(ok, disk_space_mb=1.0)
        with pytest.raises(ValueError, match="footprint"):
            map_configs([ok, broken], [x, x], workers=workers, cache=cache)
        assert len(cache) == 1
        assert cache.get(ok, x) is not None


class TestFigureIntegration:
    def test_figure_sweep_replays_from_cache(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        kwargs = dict(
            batch_sizes=(6, 12),
            disk_space_mb=1500.0,
            schemes=("bipartition",),
            cache=cache,
        )
        first = fig5b_batch_size(**kwargs)

        def boom(cfg, x=None):  # any simulation on the replay is a failure
            raise AssertionError(f"re-simulated {cfg}")

        monkeypatch.setattr(pool_module, "run_config", boom)
        second = fig5b_batch_size(**kwargs)
        assert second.records == first.records
        assert cache.stats.hits == 2
