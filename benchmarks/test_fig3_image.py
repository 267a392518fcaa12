"""Figure 3: IMAGE batch execution time vs overlap, OSUMED and XIO storage.

Paper shape: the proposed schemes (IP, BiPartition) beat MinMin and
JDP+DLL at every overlap level; the advantage is largest at high overlap
and vanishes at zero overlap; BiPartition stays within ~10 % of IP.
"""

import pytest

from repro.experiments import fig3_image_overlap

from conftest import paper_scale, series

N_TASKS = 100 if paper_scale() else 40
IP_LIMIT = 60.0 if paper_scale() else 15.0


@pytest.mark.parametrize("storage", ["osumed", "xio"])
def test_fig3(benchmark, show, fan, storage):
    table = benchmark.pedantic(
        fig3_image_overlap,
        kwargs=dict(storage=storage, num_tasks=N_TASKS, ip_time_limit=IP_LIMIT, **fan),
        rounds=1,
        iterations=1,
    )
    show(table)

    bp = series(table, "bipartition")
    mm = series(table, "minmin")
    ip = series(table, "ip")
    jdp = series(table, "jdp")

    # Proposed schemes beat MinMin wherever sharing exists.
    for overlap in ("high", "medium"):
        assert bp[overlap] <= mm[overlap] * 1.05, (overlap, bp, mm)
        assert ip[overlap] <= mm[overlap] * 1.10, (overlap, ip, mm)

    # BiPartition within ~15% of (possibly time-limited) IP everywhere.
    for overlap in ("high", "medium", "zero"):
        assert bp[overlap] <= ip[overlap] * 1.15

    # At zero overlap there is nothing to exploit: schemes converge.
    assert bp["zero"] == pytest.approx(mm["zero"], rel=0.30)
    assert bp["zero"] == pytest.approx(jdp["zero"], rel=0.30)

    # Less sharing means more I/O: makespans rise as overlap falls.
    assert bp["high"] < bp["zero"]
