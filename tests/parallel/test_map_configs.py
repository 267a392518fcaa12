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

    def test_cache_false_disables_configured_default(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        parallel.configure(cache=cache)
        try:
            configs, xs = cells(schemes=("jdp",))
            map_configs(configs, xs)  # populates the default cache
            assert len(cache) == 1
            map_configs(configs, xs, cache=False)
            assert (cache.stats.hits, cache.stats.misses) == (0, 1)
        finally:
            parallel.configure(workers=None, cache=None)


class TestDefaults:
    def test_env_workers(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        parallel.configure(workers=None, cache=None)
        assert parallel.default_workers() == 1
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert parallel.default_workers() == 3
        monkeypatch.setenv("REPRO_WORKERS", "junk")
        assert parallel.default_workers() == 1

    def test_configure_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        parallel.configure(workers=2)
        try:
            assert parallel.default_workers() == 2
        finally:
            parallel.configure(workers=None, cache=None)

    def test_env_cache_dir(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert parallel.default_cache() is None
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        cache = parallel.default_cache()
        assert cache is not None
        assert str(cache.root).endswith("envcache")


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
