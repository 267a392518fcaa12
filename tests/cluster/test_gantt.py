"""Unit tests for Gantt-chart timelines, releases and common-slot search."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Interval, Timeline, earliest_common_slot

#: Reservations past ``not_before`` that make a timeline's tail "long": the
#: walk runs past the short tails that most runtime queries see.
LONG_TAIL = 48


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

    def test_zero_length_reservation_occupies_nothing(self):
        # A zero-length reservation inside a busy interval used to be
        # stored, hiding the enclosing interval from later queries.
        tl = Timeline("t")
        tl.reserve(0.0, 10.0)
        tl.reserve(5.0, 0.0)
        assert len(tl) == 1
        assert tl.earliest_slot(1.5, 5.0) == 10.0
        assert not tl.is_free(5.0, 6.5)

    def test_zero_length_reservation_in_gap_blocks_nothing(self):
        tl = Timeline("t")
        tl.reserve(0.0, 1.0)
        tl.reserve(2.0, 0.0)
        tl.reserve(4.0, 1.0)
        assert tl.earliest_slot(3.0) == 1.0

    def test_free_time_end(self):
        tl = Timeline("t")
        tl.reserve(1.0, 1.0)  # gaps from 0: [0,1) [2,4) [5,inf)
        tl.reserve(4.0, 1.0)
        assert tl.free_time_end(0.5, 0.0, 0.0) == 0.5
        assert tl.free_time_end(2.0, 0.0, 0.0) == 3.0
        assert tl.free_time_end(2.0, 1.5, 0.0) == 4.0  # [0,1) too short
        assert tl.free_time_end(2.0, 0.0, 1.5) == 4.0  # starts inside [1,2)
        assert tl.free_time_end(4.0, 0.0, 0.0) == 6.0
        assert tl.free_time_end(0.0, 0.0, 3.0) == 3.0


class TestRelease:
    def test_release_frees_the_slot(self):
        tl = Timeline("t")
        iv = tl.reserve(0.0, 2.0)
        assert tl.earliest_slot(1.0) == 2.0
        tl.release(iv)
        assert tl.earliest_slot(1.0) == 0.0
        assert len(tl) == 0

    def test_tentative_next_to_base(self):
        tl = Timeline("t")
        tl.reserve(0.0, 1.0)
        iv = tl.reserve(1.0, 1.0)
        assert tl.earliest_slot(1.0) == 2.0
        tl.release(iv)
        assert tl.earliest_slot(1.0) == 1.0

    def test_gap_between_base_and_tentative(self):
        tl = Timeline("t")
        tl.reserve(0.0, 1.0)
        tl.reserve(5.0, 1.0)
        iv = tl.reserve(1.0, 1.0)
        assert tl.earliest_slot(2.0) == 2.0  # gap [2,5)
        assert tl.earliest_slot(4.0) == 6.0
        tl.release(iv)
        assert tl.earliest_slot(4.0) == 1.0

    def test_conflict_rejected_until_released(self):
        tl = Timeline("t")
        iv = tl.reserve(0.0, 2.0)
        with pytest.raises(ValueError):
            tl.reserve(1.0, 1.0)
        tl.release(iv)
        tl.reserve(1.0, 1.0)
        assert len(tl) == 1

    def test_release_of_unreserved_interval_rejected(self):
        tl = Timeline("t")
        iv = tl.reserve(0.0, 1.0)
        with pytest.raises(ValueError):
            tl.release(Interval(2.0, 3.0))
        tl.release(iv)
        with pytest.raises(ValueError):
            tl.release(iv)  # already released

    def test_zero_length_release_does_nothing(self):
        tl = Timeline("t")
        tl.reserve(0.0, 10.0)
        tl.release(tl.reserve(5.0, 0.0))  # never stored
        assert len(tl) == 1

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_release_leaves_the_survivors(self, data):
        ivs = data.draw(spans(max_intervals=80))
        order = data.draw(st.permutations(range(len(ivs))))
        released = data.draw(st.permutations(range(len(ivs))))
        released = released[: data.draw(st.integers(0, len(ivs)))]
        tl = Timeline("r")
        made = {
            k: tl.reserve(ivs[k][0], ivs[k][1] - ivs[k][0], f"{k}") for k in order
        }
        for k in released:
            tl.release(made[k])
        survivors = Timeline("r")
        for k, (start, end) in enumerate(ivs):
            if k not in released:
                survivors.reserve(start, end - start, f"{k}")
        assert contents(tl) == contents(survivors)


def contents(tl):
    """A timeline's three views: its intervals and both float lists."""
    return (
        [(iv.start, iv.end, iv.tag) for iv in tl.intervals],
        list(tl._starts),
        list(tl._ends),
    )


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

    def test_with_tentative_reservation(self):
        a = Timeline("a")
        tentative = a.reserve(0.0, 5.0)
        b = Timeline("b")
        b.reserve(5.0, 1.0)
        assert earliest_common_slot([a, b], 1.0) == 6.0
        a.release(tentative)
        assert earliest_common_slot([a, b], 1.0) == 0.0


# -- property: slot search against a brute-force scan ----------------------------
@st.composite
def spans(draw, min_intervals=0, max_intervals=12, gaps=st.integers(0, 3)):
    """Disjoint integer ``(start, end)`` spans in increasing order.

    A gap of 0 makes a span adjacent to the previous one; a zero-length
    span occupies no time.
    """
    n = draw(st.integers(min_intervals, max_intervals))
    out = []
    t = 0
    for _ in range(n):
        t += draw(gaps)
        length = draw(st.integers(0, 4))
        out.append((t, t + length))
        t += length
    return out


@st.composite
def resource(draw, min_intervals=0, max_intervals=12, gaps=st.integers(0, 3)):
    """A Timeline with integer-endpoint reservations, some then released.

    Returns ``(timeline, busy)``: ``busy`` lists every ``(start, end)`` the
    timeline must treat as occupied. Reservations are made in a random
    order, so out-of-order inserts are exercised. Up to about a quarter
    more are made among them and released again in a random order, as an
    ECT evaluation does with its tentative reservations, so queries also
    run on timelines that releases have shifted.
    """
    kept = draw(st.integers(min_intervals, max_intervals))
    extra = draw(st.integers(0, max(3, kept // 4)))
    ivs = draw(spans(kept + extra, kept + extra, gaps))
    released = draw(st.permutations(range(kept + extra)))[:extra]
    tl = Timeline("r")
    made = {
        k: tl.reserve(ivs[k][0], ivs[k][1] - ivs[k][0])
        for k in draw(st.permutations(range(kept + extra)))
    }
    for k in released:
        tl.release(made[k])
    return tl, [iv for k, iv in enumerate(ivs) if k not in released]


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
                min_intervals=LONG_TAIL + 12,
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
        # A plain Timeline here holds more than LONG_TAIL reservations
        # past not_before, so the walk can run far down the tail.
        busy = [iv for _, ivs in resources for iv in ivs]
        got = earliest_common_slot([r for r, _ in resources], duration, not_before)
        assert got == brute_force_slot(busy, duration, not_before)


# -- early-exit common-slot search against the round-based fixpoint -------------
class Spy:
    """Records every ``earliest_slot`` call made on a resource."""

    def __init__(self, res, calls):
        self.res = res
        self.calls = calls

    def earliest_slot(self, duration, not_before=0.0):
        result = self.res.earliest_slot(duration, not_before)
        self.calls.append((id(self.res), duration, not_before, result))
        return result


def round_based_common_slot(resources, duration, not_before=0.0):
    """The fixpoint in whole rounds: stop after a round that moved nothing."""
    t = max(0.0, not_before)
    while True:
        t_new = t
        for res in resources:
            t_new = max(t_new, res.earliest_slot(duration, t_new))
        if t_new <= t + 1e-9:
            return t_new
        t = t_new


class TestEarlyExit:
    @settings(max_examples=300, deadline=None)
    @given(
        resources=st.lists(resource(), min_size=1, max_size=4),
        duration=st.integers(0, 6),
        not_before=st.integers(0, 30),
    )
    def test_prefix_of_round_based_calls(self, resources, duration, not_before):
        plain = [r for r, _ in resources]
        got_calls, want_calls = [], []
        got = earliest_common_slot(
            [Spy(r, got_calls) for r in plain], duration, not_before
        )
        want = round_based_common_slot(
            [Spy(r, want_calls) for r in plain], duration, not_before
        )
        assert got == want
        assert got_calls == want_calls[: len(got_calls)]
        # It saves at most the confirming round.
        assert len(want_calls) - len(got_calls) < len(plain)
