"""Figure 4: SAT batch execution time vs overlap, OSUMED and XIO storage.

Same shape as Figure 3 for the satellite-data workload: affinity-aware
schemes win, most at high overlap; everything is an order of magnitude
slower on OSUMED because of the shared 100 Mbps link.
"""

import pytest

from repro.experiments import fig4_sat_overlap

from conftest import paper_scale, series

N_TASKS = 100 if paper_scale() else 40
IP_LIMIT = 60.0 if paper_scale() else 15.0


@pytest.mark.parametrize("storage", ["osumed", "xio"])
def test_fig4(benchmark, show, fan, storage):
    table = benchmark.pedantic(
        fig4_sat_overlap,
        kwargs=dict(storage=storage, num_tasks=N_TASKS, ip_time_limit=IP_LIMIT, **fan),
        rounds=1,
        iterations=1,
    )
    show(table)

    bp = series(table, "bipartition")
    mm = series(table, "minmin")
    ip = series(table, "ip")

    for overlap in ("high", "medium"):
        assert bp[overlap] <= mm[overlap] * 1.05
        assert ip[overlap] <= mm[overlap] * 1.10

    # Makespan grows as sharing drops (more distinct bytes to move).
    assert bp["high"] < bp["medium"] < bp["low"]

    # BiPartition tracks IP within ~15% (paper: 5-10%).
    for overlap in ("high", "medium", "low"):
        assert bp[overlap] <= ip[overlap] * 1.15


def test_fig4_osumed_slower_than_xio(benchmark):
    """Cross-check of the two testbeds at high overlap (paper: OSUMED bars
    are an order of magnitude taller than XIO's)."""
    from repro.experiments import ExperimentConfig, run_config

    def run_pair():
        out = {}
        for storage in ("osumed", "xio"):
            cfg = ExperimentConfig(
                experiment="fig4-crosscheck",
                workload="sat",
                overlap="high",
                num_tasks=N_TASKS,
                storage=storage,
                scheme="bipartition",
            )
            out[storage] = run_config(cfg)
        return out

    pair = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    assert pair["osumed"].makespan_s > 3 * pair["xio"].makespan_s
