"""Figure 5(b): batch execution time vs batch size under disk pressure.

Paper setup: high-overlap IMAGE, 500-4000 tasks, 4 compute + 4 XIO storage
nodes with 40 GB disks (aggregate footprint grows from ~40 GB to ~330 GB).
Paper shape: base schemes degrade faster as the working set outgrows the
caches and evictions mount; BiPartition's disk-aware sub-batches keep it
cheapest; the IP scheme is absent (prohibitive scheduling overhead).

At the reduced scale the disk size is shrunk proportionally so the
pressure ratio (working set / aggregate disk) matches the paper's sweep.
"""

from repro.experiments import fig5b_batch_size

from conftest import paper_scale, series

if paper_scale():
    SIZES = (500, 1000, 2000, 4000)
    DISK_MB = 40_000.0
else:
    SIZES = (100, 200, 400)
    DISK_MB = 4_000.0


def test_fig5b(benchmark, show, fan):
    table = benchmark.pedantic(
        fig5b_batch_size,
        kwargs=dict(batch_sizes=SIZES, disk_space_mb=DISK_MB, **fan),
        rounds=1,
        iterations=1,
    )
    show(table)

    bp = series(table, "bipartition")
    mm = series(table, "minmin")
    jdp = series(table, "jdp")

    # Execution time grows with batch size for every scheme.
    for s in (bp, mm, jdp):
        xs = sorted(s)
        assert all(s[a] < s[b] for a, b in zip(xs, xs[1:]))

    # At the largest size (max disk pressure) BiPartition beats MinMin and
    # is at worst within a few per cent of JDP (paper: best overall).
    top = max(SIZES)
    assert bp[top] <= mm[top] * 1.02
    assert bp[top] <= jdp[top] * 1.10

    # The baselines' relative degradation from the smallest to the largest
    # batch exceeds BiPartition's (the figure's defining feature).
    lo = min(SIZES)
    bp_growth = bp[top] / bp[lo]
    mm_growth = mm[top] / mm[lo]
    assert mm_growth >= bp_growth * 0.95

    # MinMin suffers the most evictions at the top size.
    by_scheme = {
        r.scheme: r.evictions for r in table.records if r.x == top
    }
    assert by_scheme["minmin"] >= by_scheme["bipartition"]
