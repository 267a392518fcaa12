"""Reproducibility: identical inputs must give identical results.

The whole pipeline is seeded (generators and schedulers use
``numpy.random.Generator``; the runtime is deterministic given a plan), so
experiment records must be bit-for-bit repeatable — a requirement for a
reproduction repository.
"""

import pytest

from repro.cluster import osc_osumed, osc_xio
from repro.core import run_batch
from repro.io import batch_to_dict
from repro.workloads import generate_image_batch, generate_sat_batch

SCHEMES = ("bipartition", "minmin", "jdp", "maxmin", "sufferage")


@pytest.mark.parametrize("scheme", SCHEMES)
def test_run_twice_identical(scheme):
    platform = osc_xio(4, 4)
    batch = generate_image_batch(24, "high", 4, seed=5)
    a = run_batch(batch, platform, scheme, scheduler_kwargs={"seed": 3})
    b = run_batch(batch, platform, scheme, scheduler_kwargs={"seed": 3})
    # Wall-clock scheduling time differs; everything else must match:
    # each sub-batch's plan and execution (every TaskRecord), the transfer
    # statistics and the makespan.
    assert [(sb.plan, sb.execution) for sb in a.sub_batches] == [
        (sb.plan, sb.execution) for sb in b.sub_batches
    ]
    assert a.stats == b.stats
    assert a.makespan == b.makespan


def test_generators_stable_across_calls():
    for gen, level in (
        (generate_image_batch, "medium"),
        (generate_sat_batch, "low"),
    ):
        a = gen(30, level, 4, seed=9)
        b = gen(30, level, 4, seed=9)
        assert batch_to_dict(a) == batch_to_dict(b)


def test_platform_presets_are_value_objects():
    assert osc_xio(4, 4) == osc_xio(4, 4)
    assert osc_osumed(2, 3) == osc_osumed(2, 3)
    assert osc_xio(4, 4) != osc_xio(4, 2)


def test_seed_changes_scheduler_not_simulation():
    """Different scheduler seeds may give different mappings, but the same
    mapping always simulates to the same makespan."""
    platform = osc_xio(4, 4)
    batch = generate_image_batch(24, "high", 4, seed=5)
    r1 = run_batch(batch, platform, "bipartition", scheduler_kwargs={"seed": 1})
    r2 = run_batch(batch, platform, "bipartition", scheduler_kwargs={"seed": 1})
    assert r1.makespan == pytest.approx(r2.makespan, abs=0)
