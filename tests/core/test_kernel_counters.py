"""MCT mapping work counters: pinned values, decision neutrality.

:class:`repro.core.mct_kernel.KernelStats` counts what the mapping loop
does: ``rounds`` (one commit each), ``stage_rows_refreshed`` (staging rows
computed: every task once, then each pending co-reader of a commit) and
``pair_evaluations`` (the full ``n * c`` matrix every round, plus ``c`` per
staging row). They are pure accumulators, so on a fixed cell their values
are exact and recording them changes no decision. ``repro profile`` and the
run manifest surface them through the ``kernel/*`` telemetry counters.
"""

import pytest

from repro.cluster.platform import osc_xio
from repro.cluster.state import ClusterState
from repro.core.base import make_scheduler
from repro.core.driver import run_batch
from repro.obs.core import telemetry
from repro.workloads.image import generate_image_batch


@pytest.fixture(autouse=True)
def clean_registry():
    telemetry.reset()
    telemetry.disable()
    yield
    telemetry.reset()
    telemetry.disable()


def map_once(scheme="minmin", n=200, c=8):
    batch = generate_image_batch(n, "high", num_storage=8, seed=0)
    platform = osc_xio(num_compute=c, num_storage=8)
    state = ClusterState.initial(platform, batch)
    sched = make_scheduler(scheme, seed=0)
    plan = sched.next_subbatch(
        batch, [t.task_id for t in batch.tasks], platform, state
    )
    return plan.mapping, sched.kernel_stats


class TestCounters:
    def test_pinned_values_on_fixed_cell(self):
        # Exact values: the loop is deterministic.
        _, stats = map_once()
        assert stats.to_dict() == {
            "rounds": 200,
            "stage_rows_refreshed": 486,
            "pair_evaluations": 323_888,
        }
        assert stats.pair_evaluations == 200 * 200 * 8 + 486 * 8

    def test_counters_are_decision_neutral(self):
        # Recording the counters (and the DecisionLog) under telemetry
        # must not move a decision or a count, for any MCT-family rule.
        for scheme in ("minmin", "maxmin", "sufferage"):
            plain, plain_stats = map_once(scheme)
            telemetry.reset()
            telemetry.enable()
            try:
                traced, traced_stats = map_once(scheme)
                counters = telemetry.snapshot()["counters"]
            finally:
                telemetry.disable()
            assert traced == plain, scheme
            assert traced_stats == plain_stats, scheme
            assert {
                k[len("kernel/"):]: v
                for k, v in counters.items() if k.startswith("kernel/")
            } == plain_stats.to_dict(), scheme

    def test_counters_flow_into_telemetry(self):
        batch = generate_image_batch(16, "high", 4, seed=0)
        platform = osc_xio(num_compute=4, num_storage=4)
        result = run_batch(
            batch, platform, "minmin", candidate_limit=25, telemetry=True
        )
        counters = result.telemetry["counters"]
        kernel = {k for k in counters if k.startswith("kernel/")}
        assert kernel == {
            "kernel/rounds",
            "kernel/stage_rows_refreshed",
            "kernel/pair_evaluations",
        }
        assert counters["kernel/rounds"] == 16.0
