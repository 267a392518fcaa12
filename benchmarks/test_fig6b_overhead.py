"""Figure 6(b): per-task scheduling time (ms) vs number of compute nodes.

Paper shape: the IP scheme's overhead is orders of magnitude above every
other scheme and grows with the configuration size; BiPartition and JDP
stay near-zero; MinMin sits in between (it iterates over all task-node
pairs at every step).

As in the paper, the IP scheme cannot be run at the full batch size — it
is measured on a truncated batch and reported per task.
"""

from repro.experiments import fig6b_scheduling_overhead

from conftest import overhead_series, paper_scale

if paper_scale():
    N_TASKS = 1000
    NODES = (2, 4, 8, 16, 32)
    IP_CAP = 48
else:
    N_TASKS = 200
    NODES = (2, 8, 32)
    IP_CAP = 16


def test_fig6b(benchmark, show, fan):
    table = benchmark.pedantic(
        fig6b_scheduling_overhead,
        kwargs=dict(
            node_counts=NODES,
            num_tasks=N_TASKS,
            ip_task_cap=IP_CAP,
            ip_time_limit=10.0,
        **fan,
        ),
        rounds=1,
        iterations=1,
    )
    show(table)

    ip = overhead_series(table, "ip")
    bp = overhead_series(table, "bipartition")
    mm = overhead_series(table, "minmin")
    jdp = overhead_series(table, "jdp")

    for c in NODES:
        # IP is orders of magnitude above everything else.
        assert ip[c] > 20 * max(bp[c], mm[c], jdp[c]), (c, ip, bp, mm, jdp)
        # BiPartition and JDP stay tiny (well under 50 ms/task even scaled).
        assert bp[c] < 50.0
        assert jdp[c] < 50.0

    # IP overhead grows with the configuration size (more Y variables).
    assert ip[max(NODES)] > ip[min(NODES)]


def test_fig6b_minmin_overhead_grows_with_batch(benchmark):
    """The paper's MinMin-vs-JDP overhead gap comes from MinMin's O(T^2 C)
    rescans: its *per-task* scheduling time grows with the batch size while
    JDP's stays flat. Check the growth ratio directly on the mapping step.
    """
    import time

    from repro.cluster import ClusterState, osc_xio
    from repro.core import JobDataPresentScheduler, MinMinScheduler
    from repro.workloads import generate_image_batch

    platform = osc_xio(num_compute=4, num_storage=4)
    sizes = (100, 400) if not paper_scale() else (250, 1000)

    def measure():
        out = {}
        for scheme_name, scheduler in (
            ("minmin", MinMinScheduler()),
            ("jdp", JobDataPresentScheduler()),
        ):
            per_task = []
            for n in sizes:
                batch = generate_image_batch(n, "high", 4, seed=0)
                state = ClusterState.initial(platform, batch)
                pending = [t.task_id for t in batch.tasks]
                t0 = time.perf_counter()
                scheduler.next_subbatch(batch, pending, platform, state)
                per_task.append((time.perf_counter() - t0) / n)
            out[scheme_name] = per_task[1] / per_task[0]  # growth factor
        return out

    growth = benchmark.pedantic(measure, rounds=1, iterations=1)
    print(f"\nper-task overhead growth {sizes[0]}->{sizes[1]}: {growth}\n")
    # MinMin's per-task cost grows (quadratic term in its argmin scan,
    # linear here thanks to vectorisation); JDP's stays near-flat, so
    # MinMin's growth factor must exceed JDP's.
    assert growth["minmin"] > growth["jdp"]
    assert growth["minmin"] > 1.05
