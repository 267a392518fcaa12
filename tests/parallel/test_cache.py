"""Tests for the content-addressed on-disk result cache."""

import dataclasses
import json
import math

from repro.experiments import ExperimentConfig, run_config
from repro.parallel import CACHE_SALT, ResultCache, config_key


def cfg(**overrides) -> ExperimentConfig:
    base = dict(
        experiment="test",
        workload="image",
        overlap="high",
        num_tasks=8,
        storage="xio",
        scheme="bipartition",
        seed=0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigKey:
    def test_stable_across_calls(self):
        assert config_key(cfg(), "high") == config_key(cfg(), "high")

    def test_sensitive_to_every_field(self):
        base = config_key(cfg(), "high")
        assert config_key(cfg(seed=1), "high") != base
        assert config_key(cfg(num_tasks=9), "high") != base
        assert config_key(cfg(scheme="minmin"), "high") != base
        assert config_key(cfg(storage="osumed"), "high") != base
        assert config_key(cfg(allow_replication=False), "high") != base
        assert config_key(cfg(scheduler_kwargs={"time_limit": 5.0}), "high") != base

    def test_telemetry_flag_is_non_semantic(self):
        # Observability toggles don't change the Record, so they must not
        # invalidate cached cells.
        assert config_key(cfg(timeseries=True), "high") == config_key(cfg(), "high")

    def test_sensitive_to_x(self):
        assert config_key(cfg(), "high") != config_key(cfg(), "medium")
        assert config_key(cfg(), 100) != config_key(cfg(), 200)

    def test_infinite_disk_is_hashable(self):
        # The default disk_space_mb is math.inf, which JSON cannot spell.
        key = config_key(cfg(disk_space_mb=math.inf))
        assert key != config_key(cfg(disk_space_mb=1000.0))

    def test_scheduler_kwargs_order_irrelevant(self):
        a = cfg(scheduler_kwargs={"a": 1, "b": 2})
        b = cfg(scheduler_kwargs={"b": 2, "a": 1})
        assert config_key(a) == config_key(b)

    def test_fault_spec_is_semantic(self):
        # Regression guard: a faulty run must never collide with its
        # fault-free twin's cached Record (CACHE_SALT was bumped to v2
        # when the faults field was added for exactly this reason).
        base = config_key(cfg(), "high")
        flaky = config_key(cfg(faults={"transfer_failure_rate": 0.2}), "high")
        assert flaky != base
        assert (
            config_key(cfg(faults={"transfer_failure_rate": 0.4}), "high")
            != flaky
        )
        assert (
            config_key(cfg(faults={"transfer_failure_rate": 0.2}), "high")
            == flaky
        )
        crash = config_key(
            cfg(faults={"node_crashes": [{"node": 1, "time": 5.0}]}), "high"
        )
        assert crash not in (base, flaky)

    def test_salt_invalidates_pre_fault_entries(self):
        assert CACHE_SALT != "repro-cache-v1"


class TestResultCache:
    def test_miss_then_hit_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        c = cfg()
        assert cache.get(c, "high") is None
        assert cache.stats.misses == 1

        record = run_config(c, "high")
        cache.put(c, "high", record)
        assert cache.stats.stores == 1

        replayed = cache.get(c, "high")
        assert replayed == record
        assert cache.stats.hits == 1
        assert len(cache) == 1

    def test_invalidated_when_config_field_changes(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        c = cfg()
        cache.put(c, "high", run_config(c, "high"))
        changed = dataclasses.replace(c, seed=7)
        assert cache.get(changed, "high") is None

    def test_entry_records_provenance(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        c = cfg()
        path = cache.put(c, "high", run_config(c, "high"))
        doc = json.loads(path.read_text())
        assert doc["salt"] == CACHE_SALT
        assert doc["config"]["scheme"] == "bipartition"
        assert doc["key"] == config_key(c, "high")
        assert "manifest" not in doc

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        c = cfg()
        path = cache.put(c, "high", run_config(c, "high"))
        path.write_text("{not json")
        assert cache.get(c, "high") is None

    def test_clear_removes_everything(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        for seed in range(3):
            c = cfg(seed=seed)
            cache.put(c, "high", run_config(c, "high"))
        assert len(cache) == 3
        assert cache.clear() == 3
        assert len(cache) == 0
        assert cache.get(cfg(seed=0), "high") is None

    def test_clear_on_missing_dir(self, tmp_path):
        assert ResultCache(tmp_path / "nope").clear() == 0
