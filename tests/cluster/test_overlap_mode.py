"""Tests for the I/O-compute overlap extension (relaxed Eq. 12 model)."""

import pytest

from repro.batch import Batch, FileInfo, Task
from repro.cluster import ClusterState, Runtime, osc_osumed, osc_xio, trace_events
from repro.core import run_batch
from repro.workloads import generate_synthetic_batch


def make(platform, tasks, files):
    batch = Batch(tasks, files)
    state = ClusterState.initial(platform, batch)
    return batch, state


class TestOverlapRuntime:
    def test_staging_overlaps_execution(self):
        # Two tasks on one node, each with one 210 MB file (1s transfer at
        # 210 MB/s, ~1.05s read, 0.21s compute). In the paper's model the
        # second transfer waits for the first execution; with overlap it
        # proceeds during it.
        platform = osc_xio(num_compute=1, num_storage=2)
        files = {
            "a": FileInfo("a", 210.0, 0),
            "b": FileInfo("b", 210.0, 1),
        }
        tasks = [Task("t0", ("a",), 0.21), Task("t1", ("b",), 0.21)]

        batch, state = make(platform, tasks, files)
        strict = Runtime(platform, state)
        strict_res = strict.execute(batch.tasks, {"t0": 0, "t1": 0})

        batch, state = make(platform, tasks, files)
        relaxed = Runtime(platform, state, overlap_io_compute=True)
        relaxed_res = relaxed.execute(batch.tasks, {"t0": 0, "t1": 0})

        assert relaxed_res.makespan < strict_res.makespan - 1e-6

    def test_strict_mode_keeps_port_cpu_exclusive(self):
        platform = osc_xio(num_compute=1, num_storage=2)
        files = {"a": FileInfo("a", 210.0, 0), "b": FileInfo("b", 210.0, 1)}
        tasks = [Task("t0", ("a",), 0.5), Task("t1", ("b",), 0.5)]
        batch, state = make(platform, tasks, files)
        rt = Runtime(platform, state)
        rt.execute(batch.tasks, {"t0": 0, "t1": 0})
        ivs = sorted(rt.node_tl[0].intervals, key=lambda iv: iv.start)
        for a, b in zip(ivs, ivs[1:]):
            assert a.end <= b.start + 1e-9

    def test_overlap_mode_has_cpu_timelines(self):
        platform = osc_xio(num_compute=2, num_storage=1)
        files = {"a": FileInfo("a", 50.0, 0)}
        batch, state = make(platform, [Task("t", ("a",), 1.0)], files)
        rt = Runtime(platform, state, overlap_io_compute=True)
        rt.execute(batch.tasks, {"t": 0})
        assert rt.exec_tl is not rt.node_tl
        # Executions land on the cpu timeline, transfers on the port.
        exec_events = [
            e for e in trace_events(rt) if e.kind == "exec"
        ]
        assert exec_events
        assert all(e.resource.startswith("cpu") for e in exec_events)

    @pytest.mark.parametrize("overlap", [False, True])
    @pytest.mark.parametrize("make_platform", [osc_xio, osc_osumed])
    def test_timelines_list_each_resource_once_in_trace_order(
        self, overlap, make_platform
    ):
        platform = make_platform(num_compute=2, num_storage=2)
        rt = Runtime(
            platform, ClusterState(platform, {}), overlap_io_compute=overlap
        )
        tls = rt.timelines()
        assert len({id(tl) for tl in tls}) == len(tls)
        cpus = ["cpu0", "cpu1"] if overlap else []
        link = ["shared-link"] if platform.shared_link_bw is not None else []
        assert [tl.name for tl in tls] == [
            "compute0", "compute1", *cpus, "storage0", "storage1", *link
        ]
        # Execution shares the port timeline exactly when the paper's
        # non-overlap assumption holds.
        assert (rt.exec_tl is rt.node_tl) == (not overlap)
        assert all(tl in tls for tl in rt.exec_tl)

    def test_overlap_never_slower(self):
        platform = osc_xio(num_compute=2, num_storage=2)
        batch = generate_synthetic_batch(
            14, 18, 3, 2, hot_probability=0.5, seed=5
        )
        strict = run_batch(batch, platform, "bipartition")
        relaxed = run_batch(
            batch, platform, "bipartition", overlap_io_compute=True
        )
        assert relaxed.makespan <= strict.makespan * 1.01

    def test_invalid_ordering_rejected(self):
        platform = osc_xio(num_compute=1, num_storage=1)
        state = ClusterState(platform, {})
        with pytest.raises(ValueError):
            Runtime(platform, state, ordering="lifo")
