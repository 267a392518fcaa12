"""Tests for the declarative fault-spec layer (repro.faults.spec)."""

import pytest

from repro.faults import (
    DiskLoss,
    FaultSpec,
    LinkSlowdown,
    NodeCrash,
    resolve_spec,
)


class TestValidation:
    def test_default_is_null(self):
        assert FaultSpec().is_null

    def test_rate_out_of_range(self):
        with pytest.raises(ValueError, match="transfer_failure_rate"):
            FaultSpec(transfer_failure_rate=1.5)
        with pytest.raises(ValueError, match="transfer_failure_rate"):
            FaultSpec(transfer_failure_rate=-0.1)

    def test_duplicate_crash_rejected(self):
        with pytest.raises(ValueError, match="duplicate crash"):
            FaultSpec(node_crashes=(NodeCrash(1, 5.0), NodeCrash(1, 9.0)))

    def test_bad_crash_fields(self):
        with pytest.raises(ValueError):
            NodeCrash(-1, 5.0)
        with pytest.raises(ValueError):
            NodeCrash(0, -1.0)

    def test_bad_slowdown(self):
        with pytest.raises(ValueError, match="end must be after"):
            LinkSlowdown(5.0, 5.0, 2.0)
        with pytest.raises(ValueError, match="factor"):
            LinkSlowdown(0.0, 5.0, 0.5)
        with pytest.raises(ValueError, match="scope"):
            LinkSlowdown(0.0, 5.0, 2.0, scope="uplink")

    def test_bad_disk_loss(self):
        with pytest.raises(ValueError, match="lost_mb"):
            DiskLoss(0, 1.0, 0.0)

    def test_bad_backoff(self):
        with pytest.raises(ValueError, match="max_transfer_attempts"):
            FaultSpec(max_transfer_attempts=0)
        with pytest.raises(ValueError, match="backoff_factor"):
            FaultSpec(backoff_factor=0.5)

    def test_lists_normalised_to_tuples(self):
        spec = FaultSpec(node_crashes=[NodeCrash(0, 1.0)])  # type: ignore[arg-type]
        assert isinstance(spec.node_crashes, tuple)


class TestSerialisation:
    def full_spec(self) -> FaultSpec:
        return FaultSpec(
            node_crashes=(NodeCrash(1, 5.0),),
            transfer_failure_rate=0.25,
            max_transfer_attempts=3,
            link_slowdowns=(LinkSlowdown(2.0, 8.0, 2.0, scope="remote"),),
            disk_losses=(DiskLoss(0, 1.0, 500.0),),
            seed=7,
        )

    def test_round_trip(self):
        spec = self.full_spec()
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown fault-spec key"):
            FaultSpec.from_dict({"transfer_failure_rate": 0.1, "typo": 1})


class TestResolveSpec:
    def test_none_resolves_to_none(self):
        assert resolve_spec(None) is None

    def test_null_spec_resolves_to_none(self):
        # The null model must take the exact fault-free code paths, so a
        # spec that injects nothing collapses to "no fault model at all".
        assert resolve_spec(FaultSpec()) is None
        assert resolve_spec({}) is None
        assert resolve_spec({"transfer_failure_rate": 0.0}) is None

    def test_active_spec_passes_through(self):
        spec = FaultSpec(transfer_failure_rate=0.1)
        assert resolve_spec(spec) is spec
        resolved = resolve_spec({"transfer_failure_rate": 0.1})
        assert resolved == spec
