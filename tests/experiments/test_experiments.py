"""Tests for the experiment runner, figure builders and reporting."""

import dataclasses
import math

import pytest

from repro.experiments import (
    ExperimentConfig,
    Record,
    StreamConfig,
    Table,
    default_scheduler_kwargs,
    fig3_image_overlap,
    fig5a_replication_benefit,
    run_config,
    stream_config_from_dict,
)
from repro.online import ARRIVAL_KINDS, POLICIES, make_policy


class TestConfig:
    def test_platform_construction(self):
        cfg = ExperimentConfig(
            experiment="t", workload="image", overlap="high",
            num_tasks=10, storage="xio", num_compute=3, num_storage=5,
        )
        p = cfg.platform()
        assert p.num_compute == 3
        assert p.num_storage == 5
        assert p.shared_link_bw is None

    def test_osumed_platform(self):
        cfg = ExperimentConfig(
            experiment="t", workload="sat", overlap="low",
            num_tasks=10, storage="osumed",
        )
        assert cfg.platform().shared_link_bw is not None

    def test_batch_generation(self):
        cfg = ExperimentConfig(
            experiment="t", workload="sat", overlap="high",
            num_tasks=12, storage="xio",
        )
        assert len(cfg.batch()) == 12

    def test_disk_space_applied(self):
        cfg = ExperimentConfig(
            experiment="t", workload="image", overlap="high",
            num_tasks=10, storage="xio", disk_space_mb=5000.0,
        )
        assert cfg.platform().aggregate_disk_space == 20000.0

    def test_default_kwargs(self):
        assert default_scheduler_kwargs("ip")["time_limit"] == 30.0
        assert default_scheduler_kwargs("bipartition") == {}


class TestStreamConfig:
    # The names of examples/streams/poisson-osumed.json, which perfbench's
    # stream workload runs.
    SPEC = {
        "experiment": "t", "workload": "sat", "overlap": "high",
        "num_jobs": 4, "storage": "osumed",
    }

    def test_valid_spec(self):
        cfg = stream_config_from_dict(self.SPEC)
        assert cfg.platform().shared_link_bw is not None

    @pytest.mark.parametrize(
        "key, value", [("storage", "XIO"), ("workload", "nosuch")]
    )
    def test_unknown_names_fail_like_experiment_config(self, key, value):
        with pytest.raises(ValueError) as stream_err:
            stream_config_from_dict({**self.SPEC, key: value})
        cell = {**self.SPEC, "num_tasks": 4, key: value}
        del cell["num_jobs"]
        with pytest.raises(ValueError) as cell_err:
            ExperimentConfig(**cell)
        assert str(stream_err.value) == str(cell_err.value)
        assert f"unknown {key} {value!r}" in str(stream_err.value)


class TestFromDict:
    """One loader reads a config file and, through it, a stream spec."""

    CELL = {
        "experiment": "t", "workload": "image", "overlap": "high",
        "num_tasks": 8, "storage": "xio",
    }

    @pytest.mark.parametrize(
        "extra, disk_mb",
        [
            ({"disk_gb": 1.5}, 1500.0),
            ({"disk_gb": "inf"}, math.inf),
            ({"disk_space_mb": "inf"}, math.inf),
            ({"disk_space_mb": 4000.0}, 4000.0),
            ({}, math.inf),
        ],
    )
    def test_disk(self, extra, disk_mb):
        cfg = ExperimentConfig.from_dict({**self.CELL, **extra})
        assert cfg.disk_space_mb == disk_mb

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match=r"unknown config keys: \['num_taks'\]"):
            ExperimentConfig.from_dict({**self.CELL, "num_taks": 8})

    def test_stream_spec_is_a_config_plus_arrival_and_policy(self):
        cfg = stream_config_from_dict(
            {**TestStreamConfig.SPEC, "disk_gb": 2, "policy": "size", "max_window": 3}
        )
        assert (cfg.num_tasks, cfg.disk_space_mb, cfg.policy) == (4, 2000.0, "size")
        assert len(cfg.stream().batch.tasks) == 4
        names = [f.name for f in dataclasses.fields(StreamConfig)]
        base = [f.name for f in dataclasses.fields(ExperimentConfig)]
        assert names == base + ["arrival", "policy", "max_window"]

    def test_stream_spec_names_num_tasks_once(self):
        with pytest.raises(ValueError, match="num_jobs or num_tasks"):
            stream_config_from_dict({**TestStreamConfig.SPEC, "num_tasks": 4})

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"num_tasks": "eight"}, "num_tasks must be an integer >= 1, got 'eight'"),
            ({"num_tasks": 8.0}, "num_tasks must be an integer >= 1"),
            ({"num_tasks": True}, "num_tasks must be an integer >= 1, got True"),
            ({"num_compute": 0}, "num_compute must be an integer >= 1, got 0"),
            ({"num_storage": -1}, "num_storage must be an integer >= 1"),
            ({"candidate_limit": 0}, "candidate_limit must be an integer >= 1"),
            ({"scheme": "nosuch"}, "unknown scheme 'nosuch'"),
            ({"faults": {"transfer_failure_rate": 2.0}}, r"must be in \[0, 1\]"),
            ({"faults": {"node_crashes": [{"node": -1, "time": 1}]}}, "node must be >= 0"),
            ({"faults": {"nosuch": 1}}, "unknown fault-spec key"),
        ],
    )
    def test_bad_value_rejected(self, bad, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_dict({**self.CELL, **bad})

    def test_good_values_kept_as_given(self):
        faults = {"node_crashes": [{"node": 1, "time": 5.0}]}
        cfg = ExperimentConfig.from_dict(
            {**self.CELL, "candidate_limit": 25, "scheme": "jdp", "faults": faults}
        )
        assert (cfg.candidate_limit, cfg.scheme, cfg.faults) == (25, "jdp", faults)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"policy": "nosuch"}, r"policy 'nosuch'; use fifo\|size\|locality$"),
            ({"arrival": {"kind": "nosuch"}}, r"kind 'nosuch'; use poisson\|bursty\|trace$"),
            ({"arrival": "poisson"}, "arrival must be an object"),
            ({"max_window": 0}, "max_window must be an integer >= 1"),
            ({"num_jobs": "four"}, "num_tasks must be an integer >= 1"),
        ],
    )
    def test_bad_stream_value_rejected(self, bad, message):
        with pytest.raises(ValueError, match=message):
            stream_config_from_dict({**TestStreamConfig.SPEC, **bad})

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("kind", ARRIVAL_KINDS)
    def test_every_accepted_name_builds(self, policy, kind):
        arrival = {"kind": kind, "rate": 0.02, "times": [0.0, 5.0]}
        cfg = stream_config_from_dict(
            {**TestStreamConfig.SPEC, "policy": policy, "arrival": arrival}
        )
        make_policy(cfg.policy, cfg.max_window)
        assert len(cfg.stream().arrivals) == cfg.num_tasks


class TestRunConfig:
    def test_produces_record(self):
        cfg = ExperimentConfig(
            experiment="unit", workload="image", overlap="high",
            num_tasks=8, storage="xio", scheme="bipartition",
        )
        rec = run_config(cfg, x="high")
        assert rec.experiment == "unit"
        assert rec.makespan_s > 0
        assert rec.scheme == "bipartition"

    def test_norep_scheme_label(self):
        cfg = ExperimentConfig(
            experiment="unit", workload="image", overlap="high",
            num_tasks=8, storage="xio", scheme="bipartition",
            allow_replication=False,
        )
        rec = run_config(cfg)
        assert rec.scheme == "bipartition-norep"
        assert rec.replications == 0


class TestFigureBuilders:
    def test_fig3_reduced(self):
        t = fig3_image_overlap(
            storage="xio", num_tasks=8, schemes=("bipartition", "minmin"),
        )
        assert len(t.records) == 6  # 3 overlap levels x 2 schemes
        overlaps = {r.x for r in t.records}
        assert overlaps == {"high", "medium", "zero"}

    def test_fig5a_reduced(self):
        t = fig5a_replication_benefit(num_tasks=8)
        assert len(t.records) == 4  # 2 workloads x (rep, norep)
        schemes = {r.scheme for r in t.records}
        assert "bipartition" in schemes
        assert "bipartition-norep" in schemes


class TestTable:
    def _table(self):
        t = Table("demo")
        t.add(
            Record(
                experiment="e", workload="w", scheme="s", x=1,
                makespan_s=2.5, scheduling_ms_per_task=0.1,
            )
        )
        return t

    def test_render_contains_title_and_data(self):
        out = self._table().render()
        assert "demo" in out
        assert "2.50" in out

    def test_render_custom_columns(self):
        out = self._table().render(columns=("scheme", "makespan_s"))
        assert "scheme" in out
        assert "workload" not in out

    def test_csv(self):
        csv = self._table().to_csv(("scheme", "makespan_s"))
        assert csv.splitlines()[0] == "scheme,makespan_s"
        assert csv.splitlines()[1] == "s,2.50"

    def test_empty_table_renders(self):
        t = Table("empty")
        assert "empty" in t.render()
