"""Hand-computed verification of the Eq. 25/26 execution-time estimate."""

import numpy as np
import pytest

from repro.batch import Batch, FileInfo, Task
from repro.cluster import ComputeNode, Platform, StorageNode
from repro.core import estimated_exec_times


@pytest.fixture
def platform():
    # BW_s = 100 (storage disk), BW_c = 400 (interconnect),
    # BW_l = 200 (local disk), C = 0.001 s/MB.
    return Platform(
        compute_nodes=(
            ComputeNode(0, local_disk_bw=200.0),
            ComputeNode(1, local_disk_bw=200.0),
        ),
        storage_nodes=(StorageNode(0, disk_bw=100.0),),
        storage_network_bw=1000.0,
        compute_network_bw=400.0,
    )


def test_single_unshared_file(platform):
    # s_j = 1: Prob_FNE = 1 -> Tr = 1/BW_s; second term vanishes.
    files = {"f": FileInfo("f", 100.0, 0)}
    batch = Batch([Task("t", ("f",), 0.5)], files)
    est = estimated_exec_times(batch, list(batch.tasks), platform)
    expected = 100.0 * (1 / 100.0 + 1 / 200.0 + 0.001)
    assert est[0] == pytest.approx(expected)


def test_shared_file_two_tasks(platform):
    # Two tasks share f: s_j = 2, T = 2, K = 2.
    # Prob_FNE = 1/2; Prob_FE = (2/2) * (1/2) = 1/2.
    # Tr = 0.5/100 + 0.5 * 0.5 / min(100, 400) = 0.005 + 0.0025 = 0.0075.
    files = {"f": FileInfo("f", 100.0, 0)}
    batch = Batch(
        [Task("t0", ("f",), 0.0), Task("t1", ("f",), 0.0)], files
    )
    est = estimated_exec_times(batch, list(batch.tasks), platform)
    expected = 100.0 * (0.0075 + 1 / 200.0 + 0.001)
    assert est[0] == pytest.approx(expected)
    assert est[1] == pytest.approx(expected)


def test_mixed_shared_and_private(platform):
    # t0 reads shared f (s=2) and private g (s=1); t1 reads f only.
    files = {"f": FileInfo("f", 50.0, 0), "g": FileInfo("g", 200.0, 0)}
    batch = Batch(
        [Task("t0", ("f", "g"), 0.0), Task("t1", ("f",), 0.0)], files
    )
    est = estimated_exec_times(batch, list(batch.tasks), platform)
    tr_f = 0.5 / 100.0 + 0.5 * (1 - 0.5) / 100.0  # s=2, T=2, K=2
    tr_g = 1.0 / 100.0
    local_comp = 1 / 200.0 + 0.001
    exp_t0 = 50.0 * (tr_f + local_comp) + 200.0 * (tr_g + local_comp)
    exp_t1 = 50.0 * (tr_f + local_comp)
    assert est[0] == pytest.approx(exp_t0)
    assert est[1] == pytest.approx(exp_t1)


def test_bw_mix_uses_minimum(platform):
    """Eq. 25's second term divides by min(BW_s, BW_c), per the paper."""
    fast_interconnect = platform  # BW_c=400 > BW_s=100 -> min is BW_s
    files = {"f": FileInfo("f", 100.0, 0)}
    batch = Batch(
        [Task("t0", ("f",), 0.0), Task("t1", ("f",), 0.0)], files
    )
    est_fast = estimated_exec_times(batch, list(batch.tasks), fast_interconnect)

    slow = Platform(
        compute_nodes=(
            ComputeNode(0, local_disk_bw=200.0),
            ComputeNode(1, local_disk_bw=200.0),
        ),
        storage_nodes=(StorageNode(0, disk_bw=100.0),),
        storage_network_bw=1000.0,
        compute_network_bw=50.0,  # now min(BW_s, BW_c) = 50
    )
    est_slow = estimated_exec_times(batch, list(batch.tasks), slow)
    assert est_slow[0] > est_fast[0]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_matches_the_per_task_reference(seed):
    """Each file's term is worked out once and added to each reader's total
    in file order: the same bits as the per-(task, file) loop it replaced,
    on a random subset of tasks and mixed node speeds and disks."""
    from repro.cluster.platform import osc_osumed, osc_xio
    from repro.workloads import make_batch

    from ..hypergraph.partition_reference import estimated_exec_times as reference

    batch = make_batch("image", 80, "high", 4, seed=seed)
    rng = np.random.default_rng(seed)
    tasks = [batch.tasks[i] for i in rng.permutation(len(batch.tasks))[:50]]
    mixed = Platform(
        compute_nodes=tuple(
            ComputeNode(i, speed=0.7 + 0.3 * i, local_disk_bw=110.0 + 7.3 * i)
            for i in range(3)
        ),
        storage_nodes=(StorageNode(0, disk_bw=93.1), StorageNode(1, disk_bw=210.0)),
        storage_network_bw=1000.0,
        compute_network_bw=61.7,
    )
    for platform in (osc_xio(4, 4), osc_osumed(5, 4), mixed):
        got = estimated_exec_times(batch, tasks, platform)
        want = reference(batch, tasks, platform)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
