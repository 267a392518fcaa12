"""Tests for the deterministic fault model (repro.faults.model)."""

import math

from repro.faults import FaultModel, FaultSpec, LinkSlowdown, NodeCrash


def model(**kwargs) -> FaultModel:
    return FaultModel(FaultSpec(**kwargs))


class TestTransferFailures:
    def test_pure_function_of_arguments(self):
        m = model(transfer_failure_rate=0.5, seed=1)
        draws = [m.transfer_fails("f", 0, 0, 0) for _ in range(10)]
        assert len(set(draws)) == 1  # same key -> same outcome, always

    def test_same_seed_same_outcomes_across_instances(self):
        a = model(transfer_failure_rate=0.5, seed=9)
        b = model(transfer_failure_rate=0.5, seed=9)
        keys = [("f%d" % i, i % 3, i % 2, i % 4) for i in range(50)]
        assert [a.transfer_fails(*k) for k in keys] == [
            b.transfer_fails(*k) for k in keys
        ]

    def test_seed_changes_outcomes(self):
        keys = [("f%d" % i, 0, 0, 0) for i in range(200)]
        a = [model(transfer_failure_rate=0.5, seed=0).transfer_fails(*k) for k in keys]
        b = [model(transfer_failure_rate=0.5, seed=1).transfer_fails(*k) for k in keys]
        assert a != b

    def test_rate_zero_never_fails(self):
        m = model(transfer_failure_rate=0.0)
        assert not any(
            m.transfer_fails("f%d" % i, 0, 0, 0) for i in range(100)
        )

    def test_final_attempt_never_fails(self):
        # No livelock: attempt max_transfer_attempts-1 always succeeds,
        # even at rate 1.0.
        m = model(transfer_failure_rate=1.0, max_transfer_attempts=3)
        for i in range(20):
            assert m.transfer_fails("f%d" % i, 0, 0, 0)
            assert m.transfer_fails("f%d" % i, 0, 0, 1)
            assert not m.transfer_fails("f%d" % i, 0, 0, 2)

    def test_empirical_frequency_tracks_rate(self):
        m = model(transfer_failure_rate=0.3, seed=5)
        n = 4000
        fails = sum(m.transfer_fails("f%d" % i, i % 4, 0, 0) for i in range(n))
        assert abs(fails / n - 0.3) < 0.03

    def test_fresh_instance_redraws(self):
        # Advancing the staging-instance counter must give an independent
        # draw (otherwise a re-staged file repeats its fate forever).
        m = model(transfer_failure_rate=0.5, seed=2)
        outcomes = {
            m.transfer_fails("f", 0, inst, 0) for inst in range(64)
        }
        assert outcomes == {True, False}


class TestBackoff:
    def test_exponential_then_capped(self):
        m = model(
            transfer_failure_rate=0.5,
            backoff_base_s=2.0,
            backoff_factor=2.0,
            backoff_cap_s=10.0,
        )
        assert m.backoff(0) == 2.0
        assert m.backoff(1) == 4.0
        assert m.backoff(2) == 8.0
        assert m.backoff(3) == 10.0  # capped, not 16
        assert m.backoff(10) == 10.0


class TestCrashes:
    def test_crash_time_defaults_to_inf(self):
        m = model()
        assert m.crash_time(0) == math.inf

    def test_crash_time_and_crashed_by(self):
        m = model(node_crashes=(NodeCrash(1, 5.0),))
        assert m.crash_time(1) == 5.0
        assert m.crash_time(0) == math.inf


class TestSlowdowns:
    def test_window_and_scope(self):
        m = model(
            link_slowdowns=(
                LinkSlowdown(2.0, 8.0, 2.0, scope="remote"),
            )
        )
        assert m.slowdown_factor("remote", 5.0) == 2.0
        assert m.slowdown_factor("replica", 5.0) == 1.0  # wrong scope
        assert m.slowdown_factor("remote", 1.0) == 1.0  # before window
        assert m.slowdown_factor("remote", 8.0) == 1.0  # end-exclusive

    def test_overlapping_windows_compound(self):
        m = model(
            link_slowdowns=(
                LinkSlowdown(0.0, 10.0, 2.0),
                LinkSlowdown(5.0, 15.0, 3.0),
            )
        )
        assert m.slowdown_factor("remote", 2.0) == 2.0
        assert m.slowdown_factor("remote", 7.0) == 6.0
        assert m.slowdown_factor("remote", 12.0) == 3.0

