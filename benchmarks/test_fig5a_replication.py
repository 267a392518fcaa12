"""Figure 5(a): benefit of compute-to-compute replication.

8 compute nodes + 4 OSUMED storage nodes, high-overlap 100-task batches of
IMAGE and SAT. Paper shape: disabling replication costs clearly measurable
time, because every re-read of a shared file must then cross the contended
storage cluster (and its shared 100 Mbps uplink).
"""

from repro.experiments import fig5a_replication_benefit

from conftest import paper_scale, series

N_TASKS = 100 if paper_scale() else 60


def test_fig5a(benchmark, show, fan):
    table = benchmark.pedantic(
        fig5a_replication_benefit,
        kwargs=dict(num_tasks=N_TASKS, **fan),
        rounds=1,
        iterations=1,
    )
    show(table)

    rep = series(table, "bipartition")
    norep = series(table, "bipartition-norep")

    for workload in ("image", "sat"):
        # Replication never hurts, and helps visibly on at least one app.
        assert norep[workload] >= rep[workload] * 0.999
    improvements = [norep[w] / rep[w] for w in ("image", "sat")]
    assert max(improvements) >= 1.15, improvements

    # No replications may occur in the disabled runs.
    for r in table.records:
        if r.scheme.endswith("-norep"):
            assert r.replications == 0
