"""Decision equivalence: the MCT kernel against its oracle, whole batches
against a recorded fixture.

Two layers, both exact (not tolerance bands):

* kernel: one whole-batch ``next_subbatch`` per MCT-family scheme, which
  runs :func:`~repro.core.mct_kernel.incremental_mct_map`, against a direct
  call of :func:`~repro.core.mct_kernel.reference_mct_map` (the original
  full-rescan loop) on the same inputs. Mappings, DecisionLog records and
  telemetry counters must match. Pre-placed replicas keep the
  replica-aware staging terms live; one case crashes a node first, so the
  surviving-node column set is covered too.
* whole batch: ``run_batch`` for MinMin, MaxMin, Sufferage, BiPartition
  and JDP, each plain and under fault injection (crash + flaky network +
  link-slowdown window), plus disk pressure (eviction order), a
  ``candidate_limit`` (the runtime's missing-volume pre-filter) and JDP's
  proactive pushes, against ``golden_run_batch.json``: makespan, every
  sub-batch mapping, every TaskRecord, TransferStats and FaultStats.

The fixture is a pure function of the cases below; it must not depend on
``PYTHONHASHSEED``. After a deliberate behaviour change, regenerate it with
``PYTHONPATH=src python -m tests.core.test_differential_kernels`` and
explain the diff in the commit.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro.cluster.platform import osc_xio
from repro.cluster.state import ClusterState
from repro.core.base import make_scheduler
from repro.core.driver import run_batch
from repro.core.mct_kernel import build_mct_setup, reference_mct_map
from repro.obs.core import telemetry
from repro.obs.decisions import DecisionLog
from repro.workloads.image import generate_image_batch

GOLDEN_PATH = Path(__file__).with_name("golden_run_batch.json")

FAULTS = {
    "seed": 7,
    "transfer_failure_rate": 0.2,
    "node_crashes": [{"node": 1, "time": 18.0}],
    "link_slowdowns": [{"start": 4.0, "end": 12.0, "factor": 2.5}],
}

# Disks small enough to force on-demand and between-sub-batch eviction.
DISK_MB = 700.0


# -- kernel: incremental vs reference_mct_map ----------------------------------
def _kernel_inputs(n: int, c: int, overlap: str, seed: int, crash: int | None):
    batch = generate_image_batch(n, overlap, num_storage=4, seed=seed)
    platform = osc_xio(num_compute=c, num_storage=4)
    state = ClusterState.initial(platform, batch)
    # Pre-place some files so on_node / any_copy / replica costs differ
    # from the cold-start case.
    rng = np.random.default_rng(seed + 99)
    fids = sorted(batch.files)
    for f in rng.choice(fids, size=min(20, len(fids)), replace=False):
        state.place(int(rng.integers(c)), f)
    if crash is not None:
        state.mark_dead(crash)
    return batch, [t.task_id for t in batch.tasks], platform, state


def _traced(fn):
    """Run ``fn`` with fresh telemetry; return (its result, counters)."""
    telemetry.reset()
    telemetry.enable()
    try:
        out = fn()
        counters = telemetry.snapshot().get("counters", {})
    finally:
        telemetry.disable()
        telemetry.reset()
    return out, counters


def _check_kernel(scheme: str, n: int, c: int, overlap: str, seed: int,
                  crash: int | None = None) -> None:
    batch, pending, platform, state = _kernel_inputs(n, c, overlap, seed, crash)
    sched = make_scheduler(scheme, seed=0)
    plan, opt_counters = _traced(
        lambda: sched.next_subbatch(batch, list(pending), platform, state)
    )
    assert sched.decision_log is not None
    # kernel/* counters account for the incremental kernel's own work;
    # the oracle has no such counters by design.
    opt_counters = {
        k: v for k, v in opt_counters.items() if not k.startswith("kernel/")
    }
    ref_log = DecisionLog(scheme=sched.name)
    ref_mapping, ref_counters = _traced(
        lambda: reference_mct_map(
            build_mct_setup(batch, pending, platform, state),
            sched._pick, sched.pick_rule, ref_log,
        )
    )
    assert plan.mapping == ref_mapping, "mapping diverged"
    assert [d.to_dict() for d in sched.decision_log.decisions] == [
        d.to_dict() for d in ref_log.decisions
    ], "DecisionLog diverged"
    assert opt_counters == ref_counters, "telemetry counters diverged"
    if crash is not None:
        assert crash not in set(plan.mapping.values())


@pytest.mark.parametrize("scheme", ["minmin", "maxmin", "sufferage"])
@pytest.mark.parametrize(
    "n,c,overlap,seed",
    [
        (40, 4, "high", 0),
        (40, 4, "zero", 1),
        (25, 1, "high", 2),
        (7, 3, "low", 3),
        # Large enough that the incremental kernel compacts its live rows
        # (twice: 150 -> 75 -> 37) mid-mapping.
        (150, 4, "high", 4),
    ],
)
def test_kernel_decision_identity(scheme, n, c, overlap, seed):
    _check_kernel(scheme, n, c, overlap, seed)


@pytest.mark.parametrize("scheme", ["minmin", "maxmin", "sufferage"])
def test_kernel_decision_identity_crashed_node(scheme):
    # Only surviving nodes are matrix columns.
    _check_kernel(scheme, 40, 4, "high", 5, crash=1)


# -- whole batch: run_batch vs the recorded fixture -----------------------------
_SCHEMES = ["minmin", "maxmin", "sufferage", "bipartition", "jdp"]

CASES: dict[str, dict] = {
    **{s: {"scheme": s} for s in _SCHEMES},
    **{f"{s}+faults": {"scheme": s, "faults": FAULTS} for s in _SCHEMES},
    "minmin+disk": {"scheme": "minmin", "disk_space_mb": DISK_MB},
    "minmin+cl3": {"scheme": "minmin", "candidate_limit": 3},
    "minmin+cl3+faults": {
        "scheme": "minmin", "candidate_limit": 3, "faults": FAULTS,
    },
    # JDP's proactive pushes mutate placement before the first commit.
    "jdp+cl3": {"scheme": "jdp", "candidate_limit": 3},
    "jdp+faults+cl3+disk": {
        "scheme": "jdp", "faults": FAULTS, "candidate_limit": 3,
        "disk_space_mb": DISK_MB,
    },
    # BiPartition's disk repair (Section 5.3) breaks ties between equally
    # shared, equally sized files in set order, which follows
    # PYTHONHASHSEED. On batch seed 3 every binding disk size cuts inside
    # such a tie; on batch seed 5 at 700 MB no repair does, so these two
    # cases are hash-seed independent.
    "bipartition+disk": {
        "scheme": "bipartition", "disk_space_mb": DISK_MB, "batch_seed": 5,
    },
    "bipartition+disk+faults": {
        "scheme": "bipartition", "disk_space_mb": DISK_MB, "batch_seed": 5,
        "faults": FAULTS,
    },
}


def _signature(result) -> dict:
    """Everything decision-shaped about a BatchResult, JSON-normalised."""
    doc = {
        "makespan": result.makespan,
        "sub_batches": [
            {
                "mapping": sb.plan.mapping,
                "records": [
                    [r.task_id, r.node, r.transfers_done, r.exec_start,
                     r.completion]
                    for r in sb.execution.records
                ],
            }
            for sb in result.sub_batches
        ],
        "stats": dataclasses.asdict(result.stats),
        "faults": result.fault_stats.to_dict() if result.fault_stats else None,
    }
    return json.loads(json.dumps(doc))


def run_case(name: str) -> dict:
    kwargs = dict(CASES[name])
    scheme = kwargs.pop("scheme")
    batch = generate_image_batch(
        36, "high", num_storage=4, seed=kwargs.pop("batch_seed", 3)
    )
    platform = osc_xio(
        num_compute=4, num_storage=4,
        disk_space_mb=kwargs.pop("disk_space_mb", float("inf")),
    )
    return _signature(run_batch(batch, platform, scheme, **kwargs))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def _check_golden(name: str, golden: dict) -> None:
    want = golden[name]
    # Guard against vacuous stress cases.
    if "disk" in name:
        assert want["stats"]["evictions"] > 0
    if "faults" in name:
        assert want["faults"]["node_crashes"] >= 1
    assert run_case(name) == want


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize(
    "name",
    [
        *_SCHEMES,
        *(f"{s}+faults" for s in _SCHEMES if s != "minmin"),
        "jdp+faults+cl3+disk",
        "bipartition+disk",
        "bipartition+disk+faults",
    ],
)
def test_run_batch_identity(name, golden):
    _check_golden(name, golden)


def test_identity_under_disk_pressure(golden):
    # Disks sized to force on-demand eviction.
    _check_golden("minmin+disk", golden)


def test_identity_with_candidate_limit(golden):
    # candidate_limit < group size: the missing-volume pre-filter runs.
    _check_golden("minmin+cl3", golden)


def test_identity_under_faults(golden):
    _check_golden("minmin+faults", golden)


def test_identity_faults_and_candidate_limit(golden):
    # Crash + retries + the pre-filter, together.
    _check_golden("minmin+cl3+faults", golden)


def test_identity_jdp_pushes_with_candidate_limit(golden):
    _check_golden("jdp+cl3", golden)


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps({name: run_case(name) for name in sorted(CASES)}, indent=1)
        + "\n"
    )
