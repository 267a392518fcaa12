"""Unit tests for the telemetry registry (counters, gauges, spans)."""

import math

import pytest

from repro.obs.core import SpanStats, Telemetry, _NULL_SPAN, telemetry


@pytest.fixture
def reg() -> Telemetry:
    return Telemetry(enabled=True)


class TestDisabledOverhead:
    def test_disabled_span_is_the_shared_null_object(self):
        t = Telemetry(enabled=False)
        assert t.span("a") is _NULL_SPAN
        assert t.span("b") is t.span("c")

    def test_disabled_collects_nothing(self):
        t = Telemetry(enabled=False)
        t.count("c")
        t.gauge("g", 1.0)
        with t.span("s"):
            pass
        assert t.counters == {} and t.gauges == {} and t.spans == {}

    def test_module_singleton_starts_disabled(self):
        assert telemetry.enabled is False

    def test_timed_calls_through_when_disabled(self):
        t = Telemetry(enabled=False)

        @t.timed("f")
        def f(x):
            return x + 1

        assert f(1) == 2
        assert t.spans == {}


class TestSpans:
    def test_nesting_aggregates_under_joined_path(self, reg):
        with reg.span("a"):
            with reg.span("b"):
                pass
            with reg.span("b"):
                pass
        assert set(reg.spans) == {"a", "a/b"}
        assert reg.spans["a/b"].count == 2
        assert reg.spans["a"].count == 1

    def test_stack_unwinds_on_exception(self, reg):
        with pytest.raises(ValueError):
            with reg.span("outer"):
                with reg.span("inner"):
                    raise ValueError("boom")
        # Both spans completed (exceptions propagate but still pop the stack).
        assert set(reg.spans) == {"outer", "outer/inner"}
        with reg.span("after"):
            pass
        assert "after" in reg.spans  # not "outer/after"

    def test_keep_events_records_each_occurrence(self):
        t = Telemetry(enabled=True, keep_events=True)
        with t.span("a"):
            with t.span("b"):
                pass
        paths = [path for path, _, _ in t.events]
        assert paths == ["a/b", "a"]  # inner finishes first
        for _, start, dur in t.events:
            assert start >= 0.0 and dur >= 0.0

    def test_timed_decorator_uses_given_name(self, reg):
        @reg.timed("work")
        def f():
            return 7

        assert f() == 7
        assert reg.spans["work"].count == 1

    def test_top_spans_orders_by_total(self, reg):
        reg.spans["x"] = SpanStats(count=1, total_s=0.5, min_s=0.5, max_s=0.5)
        reg.spans["y"] = SpanStats(count=2, total_s=1.5, min_s=0.5, max_s=1.0)
        assert [p for p, _ in reg.top_spans(2)] == ["y", "x"]


class TestScalars:
    def test_counters_accumulate(self, reg):
        reg.count("n")
        reg.count("n", 4)
        assert reg.counters["n"] == 5

    def test_gauges_keep_last(self, reg):
        reg.gauge("g", 1.0)
        reg.gauge("g", 3.0)
        assert reg.gauges["g"] == 3.0

    def test_reset_clears_data_not_enabled_flag(self, reg):
        reg.count("n")
        with reg.span("s"):
            pass
        reg.reset()
        assert reg.counters == {} and reg.spans == {} and reg.events == []
        assert reg.enabled is True

    def test_snapshot_is_json_ready(self, reg):
        reg.count("c", 2)
        reg.gauge("g", 0.5)
        with reg.span("s"):
            pass
        snap = reg.snapshot()
        assert snap["counters"] == {"c": 2}
        assert snap["gauges"] == {"g": 0.5}
        assert set(snap["spans"]["s"]) == {"count", "total_s", "mean_s", "min_s", "max_s"}


class TestSpanStats:
    def test_add_and_mean(self):
        s = SpanStats()
        s.add(1.0)
        s.add(3.0)
        assert s.count == 2 and s.total_s == 4.0 and s.mean_s == 2.0
        assert s.min_s == 1.0 and s.max_s == 3.0

    def test_empty_to_dict_has_no_inf(self):
        assert not any(math.isinf(v) for v in SpanStats().to_dict().values())
