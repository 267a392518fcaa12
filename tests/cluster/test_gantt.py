"""Unit tests for Gantt-chart timelines, overlays and common-slot search."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Interval, Overlay, Timeline, earliest_common_slot
from repro.cluster.gantt import _SCAN_VECTOR_MIN


class TestInterval:
    def test_duration(self):
        assert Interval(1.0, 3.5).duration == 2.5

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

    def test_ordering_by_start(self):
        assert Interval(1.0, 2.0) < Interval(3.0, 4.0)


class TestTimeline:
    def test_empty_is_free(self):
        tl = Timeline("t")
        assert tl.is_free(0.0, 100.0)
        assert tl.earliest_slot(5.0) == 0.0
        assert tl.horizon == 0.0

    def test_reserve_and_conflict(self):
        tl = Timeline("t")
        tl.reserve(1.0, 2.0)
        assert not tl.is_free(0.0, 1.5)
        assert not tl.is_free(2.5, 3.5)
        assert tl.is_free(3.0, 5.0)
        with pytest.raises(ValueError):
            tl.reserve(2.0, 1.0)

    def test_adjacent_reservations_allowed(self):
        tl = Timeline("t")
        tl.reserve(0.0, 1.0)
        tl.reserve(1.0, 1.0)  # back-to-back is fine
        assert len(tl) == 2

    def test_earliest_slot_in_gap(self):
        tl = Timeline("t")
        tl.reserve(0.0, 1.0)
        tl.reserve(3.0, 1.0)
        assert tl.earliest_slot(2.0) == 1.0
        assert tl.earliest_slot(2.5) == 4.0  # gap too small

    def test_earliest_slot_not_before(self):
        tl = Timeline("t")
        tl.reserve(0.0, 1.0)
        assert tl.earliest_slot(1.0, not_before=0.5) == 1.0
        assert tl.earliest_slot(1.0, not_before=2.0) == 2.0

    def test_earliest_slot_inside_busy(self):
        tl = Timeline("t")
        tl.reserve(0.0, 10.0)
        assert tl.earliest_slot(1.0, not_before=5.0) == 10.0

    def test_next_free(self):
        tl = Timeline("t")
        tl.reserve(1.0, 2.0)
        assert tl.next_free(0.0) == 0.0
        assert tl.next_free(1.5) == 3.0

    def test_zero_duration(self):
        tl = Timeline("t")
        tl.reserve(0.0, 2.0)
        assert tl.earliest_slot(0.0, not_before=1.0) == 2.0

    def test_busy_time_and_horizon(self):
        tl = Timeline("t")
        tl.reserve(0.0, 1.0)
        tl.reserve(5.0, 2.0)
        assert tl.busy_time() == 3.0
        assert tl.horizon == 7.0

    def test_many_reservations_sorted(self):
        tl = Timeline("t")
        for start in (6.0, 2.0, 4.0, 0.0):
            tl.reserve(start, 1.0)
        starts = [iv.start for iv in tl.intervals]
        assert starts == sorted(starts)

    def test_tag_preserved(self):
        tl = Timeline("t")
        iv = tl.reserve(0.0, 1.0, tag="xfer:f1")
        assert iv.tag == "xfer:f1"


class TestOverlay:
    def test_virtual_blocks_slot(self):
        tl = Timeline("t")
        ov = Overlay(tl)
        ov.reserve(0.0, 2.0)
        assert ov.earliest_slot(1.0) == 2.0
        # base is untouched
        assert tl.earliest_slot(1.0) == 0.0

    def test_combines_base_and_virtual(self):
        tl = Timeline("t")
        tl.reserve(0.0, 1.0)
        ov = Overlay(tl)
        ov.reserve(1.0, 1.0)
        assert ov.earliest_slot(1.0) == 2.0

    def test_gap_between_base_and_virtual(self):
        tl = Timeline("t")
        tl.reserve(0.0, 1.0)
        tl.reserve(5.0, 1.0)
        ov = Overlay(tl)
        ov.reserve(1.0, 1.0)
        assert ov.earliest_slot(2.0) == 2.0  # gap [2,5)
        assert ov.earliest_slot(4.0) == 6.0

    def test_conflicting_virtual_rejected(self):
        tl = Timeline("t")
        ov = Overlay(tl)
        ov.reserve(0.0, 2.0)
        with pytest.raises(ValueError):
            ov.reserve(1.0, 1.0)

    def test_commit_writes_through(self):
        tl = Timeline("t")
        ov = Overlay(tl)
        ov.reserve(0.0, 2.0, tag="a")
        ov.reserve(3.0, 1.0, tag="b")
        ov.commit()
        assert len(tl) == 2
        assert not ov.virtual
        assert not tl.is_free(0.5, 1.0)


class TestCommonSlot:
    def test_single_resource(self):
        tl = Timeline("a")
        tl.reserve(0.0, 3.0)
        assert earliest_common_slot([tl], 1.0) == 3.0

    def test_two_resources_interleaved(self):
        a = Timeline("a")
        b = Timeline("b")
        a.reserve(0.0, 2.0)
        b.reserve(2.0, 2.0)
        # a free from 2, b free [0,2) and from 4 -> first common 1.0-slot: 4.0
        assert earliest_common_slot([a, b], 1.0) == 4.0

    def test_fits_common_gap(self):
        a = Timeline("a")
        b = Timeline("b")
        a.reserve(0.0, 1.0)
        a.reserve(4.0, 1.0)
        b.reserve(0.0, 2.0)
        # common gap [2,4) fits 2.0
        assert earliest_common_slot([a, b], 2.0) == 2.0
        assert earliest_common_slot([a, b], 3.0) == 5.0

    def test_not_before_respected(self):
        a = Timeline("a")
        assert earliest_common_slot([a], 1.0, not_before=7.5) == 7.5

    def test_empty_resources(self):
        assert earliest_common_slot([], 1.0, not_before=3.0) == 3.0

    def test_with_overlays(self):
        a = Timeline("a")
        ov = Overlay(a)
        ov.reserve(0.0, 5.0)
        b = Timeline("b")
        b.reserve(5.0, 1.0)
        assert earliest_common_slot([ov, b], 1.0) == 6.0


# -- property: slot search against a brute-force scan ----------------------------
@st.composite
def resource(draw, min_intervals=0, max_intervals=12, gaps=st.integers(0, 3)):
    """A Timeline, or an Overlay over one, with integer-endpoint reservations.

    Returns ``(resource, busy)``: ``busy`` lists every ``(start, end)`` the
    resource must treat as occupied, base and virtual alike. Reservations
    are made in a random order so out-of-order inserts are exercised.
    """
    n = draw(st.integers(min_intervals, max_intervals))
    busy = []
    t = 0
    for _ in range(n):
        t += draw(gaps)  # 0 = adjacent to the previous one
        length = draw(st.integers(1, 4))
        busy.append((t, t + length))
        t += length
    overlay = draw(st.booleans())
    virtual = [overlay and draw(st.booleans()) for _ in busy]
    order = draw(st.permutations(range(n)))
    tl = Timeline("r")
    for k in order:
        if not virtual[k]:
            tl.reserve(busy[k][0], busy[k][1] - busy[k][0])
    if not overlay:
        return tl, busy
    ov = Overlay(tl)
    for k in order:
        if virtual[k]:
            ov.reserve(busy[k][0], busy[k][1] - busy[k][0])
    return ov, busy


def brute_force_slot(busy, duration, not_before):
    """Earliest integer start >= ``not_before`` whose window
    ``[s, s + duration)`` overlaps none of ``busy``, by scanning every
    integer start. With integer endpoints the true answer is an integer."""
    horizon = max((end for _, end in busy), default=0)
    cell_busy = [False] * horizon
    for start, end in busy:
        for k in range(start, end):
            cell_busy[k] = True
    s = not_before
    while any(cell_busy[s : s + duration]):
        s += 1
    return s


class TestSlotSearchOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        resources=st.lists(resource(), min_size=1, max_size=3),
        duration=st.integers(1, 6),
        not_before=st.integers(0, 30),
    )
    def test_matches_brute_force(self, resources, duration, not_before):
        busy = [iv for _, ivs in resources for iv in ivs]
        got = earliest_common_slot([r for r, _ in resources], duration, not_before)
        assert got == brute_force_slot(busy, duration, not_before)

    @settings(max_examples=150, deadline=None)
    @given(
        resources=st.lists(
            resource(
                min_intervals=_SCAN_VECTOR_MIN + 12,
                max_intervals=120,
                # Mostly short gaps, so the first few rarely fit and the
                # search reaches the long tail.
                gaps=st.sampled_from([0, 0, 1, 1, 2, 3]),
            ),
            min_size=1,
            max_size=2,
        ),
        duration=st.integers(2, 4),
        not_before=st.integers(0, 10),
    )
    def test_long_timelines_match_brute_force(self, resources, duration, not_before):
        # A plain Timeline here holds more than _SCAN_VECTOR_MIN
        # reservations past not_before, so its earliest_slot takes the
        # vectorised tail scan.
        busy = [iv for _, ivs in resources for iv in ivs]
        got = earliest_common_slot([r for r, _ in resources], duration, not_before)
        assert got == brute_force_slot(busy, duration, not_before)
