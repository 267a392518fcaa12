"""Unit tests for Gantt-chart timelines, releases and common-slot search."""

import math
import random
from bisect import bisect_right

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Interval, Timeline, earliest_common_slot
from repro.cluster.gantt import _EPS
from repro.cluster.runtime import _MIN_DURATION

from . import overlay_reference

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

    def test_earliest_slot_starts_no_earlier_than_zero(self):
        # A negative not_before searches from 0, for short queries too.
        tl = Timeline("t")
        tl.reserve(1.0, 1.0)
        for duration in (0.0, _EPS, 0.5):
            got = tl.earliest_slot(duration, not_before=-5e-324)
            assert got.hex() == (0.0).hex()
            want = overlay_reference.timeline_earliest_slot(tl, duration, -5e-324)
            assert want.hex() == got.hex()

    def test_earliest_slot_inside_busy(self):
        tl = Timeline("t")
        tl.reserve(0.0, 10.0)
        assert tl.earliest_slot(1.0, not_before=5.0) == 10.0

    def test_zero_duration(self):
        tl = Timeline("t")
        tl.reserve(0.0, 2.0)
        assert tl.earliest_slot(0.0, not_before=1.0) == 2.0

    def test_short_query_leaves_one_reservation(self):
        # A query no longer than _EPS only leaves the reservation it starts
        # in, even where the next one overlaps that one's end (by less than
        # _EPS); the common-slot search then leaves the next one too.
        tl = Timeline("t")
        tl.reserve(0.0, 1.0)
        nxt = tl.reserve(1.0 - 0.5e-9, 1.0)
        assert tl.earliest_slot(_EPS, 0.5) == 1.0
        assert earliest_common_slot([tl], _EPS, 0.5) == nxt.end

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


# -- the joint walk against the per-timeline fixpoint ----------------------------
#: Durations for float timelines: zero, at most ``2 * _EPS`` (where a
#: timeline's own search need not be idempotent), and longer ones.
DURATIONS = [0.0, _EPS, 1.5 * _EPS, 2 * _EPS, 3 * _EPS, 0.5, 1.0, 2.5]


@st.composite
def float_resource(draw, duration, min_intervals=LONG_TAIL, max_intervals=80):
    """A Timeline with float endpoints, some reservations released.

    Gaps are often ``duration - _EPS`` or ``duration``, the two thresholds
    of the walk's comparisons, and every start is then moved a few ulps
    either way, so the float rounding of ``t + duration`` and
    ``start + _EPS`` decides whether a gap fits. Up to a quarter more
    reservations are made in between and released again, in a random
    order, as an ECT evaluation does with its tentative ones. The
    endpoints come from a seeded generator: drawing each one through
    Hypothesis makes a long timeline slow to build.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kept = draw(st.integers(min_intervals, max_intervals))
    extra = rng.randint(0, kept // 4)
    tl = Timeline("f")
    t = rng.choice([0.0, 0.75, 3.0])
    made = []
    for _ in range(kept + extra):
        start = max(t, t + rng.choice([0.0, duration - _EPS, duration, 0.25, 1.0]))
        for _ in range(rng.randint(0, 3)):
            start = math.nextafter(start, rng.choice([-math.inf, math.inf]))
        made.append(tl.reserve(start, rng.choice([0.5, 1.0, 2.0, 3 * _EPS])))
        t = made[-1].end
    rng.shuffle(made)
    for iv in made[:extra]:
        tl.release(iv)
    return tl


@st.composite
def common_slot_query(draw, durations=DURATIONS):
    """1-3 float timelines, a duration, and a start no later than the end
    of some timeline's eighth reservation, so that the searches run down
    long tails."""
    duration = draw(st.sampled_from(durations))
    resources = draw(st.lists(float_resource(duration), min_size=1, max_size=3))
    early = [iv for tl in resources for iv in tl.intervals[:8]]
    not_before = draw(
        st.one_of(
            st.just(0.0),
            st.sampled_from([iv.start for iv in early] + [iv.end for iv in early]),
            st.floats(0.0, min(iv.end for iv in early)),
        )
    )
    return resources, duration, not_before


def reference_common_slot(resources, duration, not_before):
    """The reference's fixpoint over the timelines, seen through overlays
    that add nothing."""
    views = [overlay_reference.Overlay(tl) for tl in resources]
    return overlay_reference.earliest_common_slot(views, duration, not_before)


class TestJointWalk:
    @settings(max_examples=150, deadline=None)
    @given(common_slot_query())
    def test_matches_per_timeline_fixpoint(self, query):
        # Bit for bit what walking each timeline in turn, each from a
        # fresh bisection, until none moves returns.
        resources, duration, not_before = query
        got = earliest_common_slot(resources, duration, not_before)
        assert got.hex() == reference_common_slot(resources, duration, not_before).hex()
        # So is each timeline's own search.
        for tl in resources:
            want = overlay_reference.timeline_earliest_slot(tl, duration, not_before)
            assert tl.earliest_slot(duration, not_before).hex() == want.hex()

    @settings(max_examples=150, deadline=None)
    @given(common_slot_query([d for d in DURATIONS if d > 2 * _EPS]))
    def test_search_from_the_first_timelines_slot(self, query):
        # The runtime starts a transfer's search at its port's own slot;
        # transfers last longer than 2 * _EPS.
        # Counting the first timeline's answer there, as the runtime does,
        # changes nothing either.
        resources, duration, not_before = query
        head = resources[0].earliest_slot(duration, not_before)
        want = earliest_common_slot(resources, duration, not_before).hex()
        assert earliest_common_slot(resources, duration, head).hex() == want
        assert earliest_common_slot(resources, duration, head, True).hex() == want

    def test_search_from_the_confirmed_head(self):
        # The runtime's call: the port's own slot, with the port's answer
        # counted, so the cycle begins at the second timeline.
        tl_port, tl_storage = Timeline("port"), Timeline("storage")
        tl_port.reserve(0.0, 2.0)
        tl_storage.reserve(2.5, 1.0)
        head = tl_port.earliest_slot(1.0, 0.0)
        assert head == 2.0
        assert earliest_common_slot([tl_port, tl_storage], 1.0, head, True) == 3.5
        # Counted as confirmed at a start that is not the port's slot, the
        # port is never asked, and the search lands inside its reservation.
        assert earliest_common_slot([tl_port, tl_storage], 1.0, 0.0, True) == 0.0

    def test_a_search_is_not_resumed_from_an_earlier_slot(self):
        # The common slot is not monotone in the reservations: one more
        # reservation on the port moves it one ulp earlier, onto that
        # reservation's end, which the storage reservation ending one ulp
        # later (by less than _EPS) does not block. So every search starts
        # at its head, never at the slot an earlier round found.
        port, storage = Timeline("port"), Timeline("storage")
        port.reserve(0.19047619047619047, 0.40647619047619044 - 0.19047619047619047)
        for start, end in [
            (0.38742857142857146, 0.4064761904761905),
            (0.4064761904761905, 0.4255238095238095),
            (0.44457142857142856, 0.4636190476190476),
        ]:
            storage.reserve(start, end - start)
        duration, not_before = 0.01904761904761905, 0.19047619047619047
        before = earliest_common_slot([port, storage], duration, not_before)
        assert before.hex() == (0.4255238095238095).hex()
        port.reserve(0.40647619047619044, duration)
        after = earliest_common_slot([port, storage], duration, not_before)
        assert after.hex() == (0.42552380952380947).hex()
        assert math.nextafter(after, math.inf) == before
        head = port.earliest_slot(duration, not_before)
        assert earliest_common_slot([port, storage], duration, head, True) == after
        assert earliest_common_slot([port, storage], duration, before) == before


# -- a port walk resumed from an earlier head ------------------------------------
#: Offsets from an anchor for a new reservation's endpoint: on it, and
#: ±ε, ±1.5ε and 2ε away, the thresholds of the walk's comparisons.
NEAR = [0.0, _EPS, -_EPS, 1.5 * _EPS, -1.5 * _EPS, 2 * _EPS]

#: New reservations last longer than this, the runtime's floor on every
#: transfer and execution. The resume rule needs every reservation longer
#: than 2ε, as Lemma 1 does, and in floats by more than a rounding: one that
#: lasts 2ε plus a rounding can end within ε of the reservation before it,
#: and a fresh walk steps onto that end while the resumed one does not
#: (``test_a_reservation_within_a_rounding_of_2eps``). The floor, 3ε, keeps
#: a margin of ε.
SHORTEST = _MIN_DURATION


def brute_force_float_slot(tl, duration, not_before):
    """The least candidate start, ``not_before`` (clamped at 0) or a later
    reservation end, that no reservation blocks: none ends more than
    ``_EPS`` after it and starts more than ``_EPS`` before it ends. Every
    candidate is checked against every reservation."""
    t = max(0.0, not_before)
    spans = list(zip(tl._starts, tl._ends))
    for c in sorted({t, *(e for _, e in spans if e > t)}):
        if not any(e > c + _EPS and c + duration > s + _EPS for s, e in spans):
            return c
    raise AssertionError("the last end is always free")


class TestResumedWalk:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_walk_from_an_earlier_head_is_the_fresh_walk(self, data):
        # The runtime walks a port for a transfer from the head it found
        # for the same (duration, not_before) before the port gained more
        # reservations. Gaining reservations never moves the earliest slot
        # earlier, so from the old head the walk lands where a fresh one
        # does, bit for bit, however close to the head, the head's slot
        # end and the existing ends the new reservations start or end.
        duration = data.draw(st.sampled_from([d for d in DURATIONS if d > 2 * _EPS]))
        tl = data.draw(float_resource(duration, min_intervals=4, max_intervals=40))
        edges = [x for iv in tl.intervals for x in (iv.start, iv.end)]
        not_before = data.draw(
            st.one_of(st.sampled_from(edges), st.floats(0.0, max(edges)))
        )
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))

        def near(anchors):
            x = rng.choice(anchors) + rng.choice(NEAR)
            for _ in range(rng.randint(0, 3)):
                x = math.nextafter(x, rng.choice([-math.inf, math.inf]))
            return x

        head = tl.earliest_slot(duration, not_before)
        for _ in range(data.draw(st.integers(1, 3))):
            ends = tl._ends
            k = bisect_right(ends, head)
            anchors = [
                head, head + duration, head + duration - _EPS,
                *ends[max(0, k - 2) : k + 3],
            ]
            for _ in range(rng.randint(1, 6)):
                start = near(anchors)
                if rng.random() < 0.5:
                    end = near(anchors)
                else:
                    end = start + rng.choice(
                        [3 * _EPS, duration - _EPS, duration, 0.5, 1.0]
                    )
                length = end - start
                if start < 0.0 or length <= SHORTEST:
                    continue
                if tl.is_free(start, start + length):
                    tl.reserve(start, length)
            fresh = tl.earliest_slot(duration, not_before)
            assert tl.earliest_slot(duration, head).hex() == fresh.hex()
            assert brute_force_float_slot(tl, duration, not_before).hex() == fresh.hex()
            head = fresh

    @staticmethod
    def three_reservations(third):
        """A timeline whose third reservation, lasting ``third``, overlaps
        the second by ``_EPS``, and the head a ``3 * _EPS`` query from 4.0
        found before the third was reserved: the second's end."""
        tl = Timeline("t")
        tl.reserve(4.0, 6.000000001000001 - 4.0)
        tl.reserve(6.000000001000001, 6.0000000045 - 6.000000001000001)
        head = tl.earliest_slot(3 * _EPS, 4.0)
        tl.reserve(6.0000000035, third)
        return tl, head

    def test_a_reservation_within_a_rounding_of_2eps(self):
        # The third lasts 2ε plus a rounding and ends within a rounding of
        # ε after the head. The fresh walk meets it ahead of the second's
        # end and steps onto its end; from the head, the walk and is_free
        # find that it ends by head + ε and leave the head where it is.
        tl, head = self.three_reservations(6.0000000055000005 - 6.0000000035)
        assert head == 6.0000000045
        assert tl.earliest_slot(3 * _EPS, 4.0) == 6.0000000055000005
        assert tl.earliest_slot(3 * _EPS, head) == head
        assert tl.is_free(head, head + 3 * _EPS)

    def test_a_reservation_at_the_floor(self):
        # Lasting the runtime's floor, the third ends a full ε after that:
        # both walks step onto its end, as a scan of every candidate does.
        tl, head = self.three_reservations(_MIN_DURATION)
        fresh = tl.earliest_slot(3 * _EPS, 4.0)
        assert fresh == 6.0000000035 + _MIN_DURATION
        assert tl.earliest_slot(3 * _EPS, head).hex() == fresh.hex()
        assert brute_force_float_slot(tl, 3 * _EPS, 4.0).hex() == fresh.hex()
