"""ClusterSession end to end: queueing metrics, warm-vs-cold, manifest.

The warm-beats-cold assertions here are the acceptance criterion of the
online subsystem: on a seeded Poisson stream at moderate load, warm
carryover must give strictly lower mean response time and strictly more
cross-batch cache-hit bytes than the cold baseline, for at least two
schemes, with every batch passing the E1-E8 audit.
"""

import pytest

from repro.cluster.platform import osc_osumed
from repro.obs import build_stream_manifest, validate_manifest
from repro.online import (
    ClusterSession,
    FIFOWindow,
    SizeCappedWindow,
    isolated_service_time,
    poisson_arrivals,
    stream_from_batch,
)
from repro.workloads import generate_sat_batch

GB = 1000.0


def _stream(num_jobs=24, rate=0.02, seed=0):
    batch = generate_sat_batch(num_jobs, "high", 4, seed)
    return stream_from_batch(batch, poisson_arrivals(num_jobs, rate, seed))


def _platform():
    return osc_osumed(num_compute=4, num_storage=4, disk_space_mb=20 * GB)


def _session(scheme, warm, **kw):
    kw.setdefault("policy", SizeCappedWindow(max_jobs=6))
    return ClusterSession(_platform(), _stream(), scheme, warm=warm, **kw)


class TestWarmBeatsCold:
    @pytest.mark.parametrize("scheme", ["bipartition", "minmin"])
    def test_response_and_reuse(self, scheme):
        warm = _session(scheme, warm=True, audit=True).run()
        cold = _session(scheme, warm=False, audit=True).run()
        assert warm.num_jobs == cold.num_jobs == 24
        # Same stream, same windows: the dispatch schedule may differ only
        # through makespans, but the comparison below is the criterion.
        assert warm.mean_response_s < cold.mean_response_s
        assert warm.cross_batch_hit_volume_mb > cold.cross_batch_hit_volume_mb
        assert cold.cross_batch_hits == 0
        assert cold.cross_batch_hit_volume_mb == 0.0


class TestRecords:
    def test_job_records_consistent(self):
        res = _session("bipartition", warm=True).run()
        stream = _stream()
        arrivals = {a.task_id: a.arrival for a in stream.arrivals}
        assert sorted(j.task_id for j in res.jobs) == sorted(arrivals)
        for j in res.jobs:
            assert j.arrival == arrivals[j.task_id]
            assert j.arrival <= j.dispatch <= j.completion
            assert j.response_s == j.queueing_delay_s + j.service_s
            assert j.slowdown > 0.0
        # Batches partition the job set, dispatches are non-decreasing.
        ids = [t for b in res.batches for t in b.task_ids]
        assert sorted(ids) == sorted(arrivals)
        dispatches = [b.dispatch for b in res.batches]
        assert dispatches == sorted(dispatches)

    def test_per_batch_stats_sum_to_total(self):
        res = _session("minmin", warm=True).run()
        total = sum(b.stats.remote_volume_mb for b in res.batches)
        assert total == pytest.approx(res.stats.remote_volume_mb)
        xb = sum(b.stats.cross_batch_hit_volume_mb for b in res.batches)
        assert xb == pytest.approx(res.cross_batch_hit_volume_mb)

    def test_isolated_time_lower_bounds_cold_service(self):
        res = _session("bipartition", warm=False).run()
        stream = _stream()
        platform = _platform()
        for j in res.jobs:
            iso = isolated_service_time(platform, stream.batch, j.task_id)
            assert j.service_s >= iso - 1e-9

    def test_empty_stream(self):
        stream = _stream()
        empty = stream_from_batch(stream.batch.subset([]), [])
        res = ClusterSession(_platform(), empty, "minmin").run()
        assert res.num_jobs == 0
        assert res.batches == []

    @pytest.mark.parametrize("option", ["telemetry", "ordering", "audti"])
    def test_only_run_options_are_accepted(self, option):
        # A session takes ExperimentConfig.run_options() and nothing else;
        # any other keyword fails at construction, even for an empty stream.
        stream = _stream()
        empty = stream_from_batch(stream.batch.subset([]), [])
        with pytest.raises(TypeError, match=option):
            ClusterSession(_platform(), empty, "minmin", **{option: True})

    def test_starvation_guard(self):
        class Starver:
            name = "starver"

            def select(self, queued, batch, now):
                return [queued[-1].task_id] if len(queued) > 1 else [
                    queued[0].task_id
                ]

        with pytest.raises(RuntimeError, match="starved"):
            ClusterSession(
                _platform(), _stream(), "minmin", policy=Starver()
            ).run()

    def test_dispatched_job_guard(self):
        # A policy that adds the first job to every later window would
        # re-run a dispatched job; the session names the policy instead.
        class Replayer(FIFOWindow):
            name = "replayer"
            first = None

            def select(self, queued, batch, now):
                chosen = super().select(queued, batch, now)
                if self.first is None:
                    self.first = chosen[0]
                elif self.first not in chosen:
                    chosen.append(self.first)
                return chosen

        with pytest.raises(RuntimeError, match="replayer.*not queued"):
            ClusterSession(
                _platform(), _stream(num_jobs=6), "minmin", policy=Replayer()
            ).run()


class TestManifest:
    @pytest.mark.parametrize("warm", [True, False])
    def test_validates_against_schema(self, warm):
        res = _session("bipartition", warm=warm, timeseries=True).run()
        manifest = build_stream_manifest(
            res, config={"experiment": "test"}, config_digest="abc"
        )
        assert validate_manifest(manifest) == []
        online = manifest["online"]
        assert online["mode"] == ("warm" if warm else "cold")
        assert online["queueing"]["num_jobs"] == 24
        assert len(online["jobs"]) == 24
        # Stitched timeseries marks every dispatch with a batch event.
        marks = [e for e in manifest["timeseries"]["events"]
                 if e["kind"] == "batch"]
        assert len(marks) == len(online["batches"])

    def test_timeseries_on_stream_clock(self):
        res = _session("minmin", warm=True, timeseries=True).run()
        assert res.timeseries is not None
        last_dispatch = res.batches[-1].dispatch
        marks = [e for e in res.timeseries["events"] if e["kind"] == "batch"]
        assert [m["t"] for m in marks] == [b.dispatch for b in res.batches]
        # At least one series carries samples from the last batch (offsets
        # applied), even though sparse series may end earlier.
        latest = max(
            s["points"][-1][0]
            for s in res.timeseries["series"].values()
            if s["points"]
        )
        assert latest >= last_dispatch
