"""Fault counters in the run manifest: present only for faulty runs.

The golden-manifest test (test_manifest.py) pins the fault-free shape; here
the other side of the contract is pinned: a run with an active fault spec
gains a ``faults`` object that validates against the schema and never
appears on fault-free runs.
"""

import json

import pytest

from repro.cluster.platform import osc_xio
from repro.core.driver import run_batch
from repro.obs import build_manifest, validate_manifest
from repro.obs.core import telemetry
from repro.workloads import generate_image_batch

FAULTS = {
    "node_crashes": [{"node": 1, "time": 5.0}],
    "transfer_failure_rate": 0.2,
    "seed": 3,
}


@pytest.fixture(autouse=True)
def clean_registry():
    telemetry.reset()
    telemetry.disable()
    yield
    telemetry.reset()
    telemetry.disable()


def faulty_result(faults=FAULTS):
    batch = generate_image_batch(16, "high", 4, seed=0)
    platform = osc_xio(num_compute=4, num_storage=4, disk_space_mb=4000.0)
    return run_batch(
        batch, platform, "minmin", candidate_limit=25,
        telemetry=True, faults=faults,
    )


class TestFaultsInManifest:
    def test_faulty_run_carries_faults_and_validates(self):
        manifest = build_manifest(faulty_result(), config_digest="0" * 64)
        assert validate_manifest(manifest) == []
        faults = manifest["faults"]
        assert faults["transfer_failures"] > 0
        assert faults["retries"] == faults["transfer_failures"]
        assert faults["tasks_rescheduled"] >= 0
        # Strictly JSON-serialisable (no NaN/inf literals).
        json.dumps(manifest, allow_nan=False)

    def test_fault_free_run_omits_the_key(self):
        manifest = build_manifest(faulty_result(faults=None), config_digest="0" * 64)
        assert "faults" not in manifest
        assert validate_manifest(manifest) == []

    def test_null_spec_omits_the_key(self):
        # A null spec resolves to "no fault model", so the manifest must be
        # byte-identical to a fault-free run's — including the absent key.
        manifest = build_manifest(
            faulty_result(faults={"transfer_failure_rate": 0.0}),
            config_digest="0" * 64,
        )
        assert "faults" not in manifest

    def test_schema_rejects_malformed_faults(self):
        manifest = build_manifest(faulty_result(), config_digest="0" * 64)
        wrong = json.loads(json.dumps(manifest))
        wrong["faults"]["node_crashes"] = -1
        assert validate_manifest(wrong)
        extra = json.loads(json.dumps(manifest))
        extra["faults"]["surprise"] = 1
        assert validate_manifest(extra)
