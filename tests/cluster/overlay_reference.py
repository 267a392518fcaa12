"""Reference ECT evaluation that keeps tentative reservations off the charts.

This is how ``Runtime.evaluate`` worked before tentative reservations were
placed on the real timelines: each timeline a task's staging touches gets an
:class:`Overlay` holding the task's own reservations, and slot searches see
the timeline and its overlay together. ``test_ect_search.py`` checks the
runtime against it. It reads the runtime's state and never modifies it.
Its slot searches are its own, so it shares none with the code it checks:
each timeline is walked from a fresh bisection, and a common slot is the
fixpoint over the resources' ``earliest_slot`` calls.
"""

from bisect import bisect_right

from repro.cluster.gantt import _EPS, Interval


def timeline_earliest_slot(tl, duration, not_before):
    """Earliest start >= ``not_before`` and >= 0 of a free gap of
    ``duration`` on timeline ``tl``: the first start that no reservation
    overlaps by more than ``_EPS`` (for ``duration <= _EPS``, the first
    instant not inside one)."""
    starts, ends = tl._starts, tl._ends
    t = max(0.0, not_before)
    i = bisect_right(starts, t + _EPS)
    if i > 0 and ends[i - 1] > t + _EPS:
        t = ends[i - 1]
    if duration <= _EPS:
        return t
    while i < len(starts) and t + duration > starts[i] + _EPS:
        t = max(t, ends[i])
        i += 1
    return t


def earliest_common_slot(resources, duration, not_before=0.0):
    """Call the resources' ``earliest_slot`` in turn, from ``not_before``,
    until every resource in a row returns the candidate start unchanged."""
    t = max(0.0, not_before)
    count = len(resources)
    unchanged = 0
    while unchanged < count:
        for res in resources:
            t_new = res.earliest_slot(duration, t)
            if t_new > t:
                t = t_new
                unchanged = 0
            else:
                unchanged += 1
                if unchanged == count:
                    break
    return t


class Overlay:
    """A timeline plus reservations that exist only in this view."""

    def __init__(self, base):
        self.base = base
        self.virtual = []

    def is_free(self, start, end):
        if not self.base.is_free(start, end):
            return False
        return all(
            iv.end <= start + _EPS or iv.start >= end - _EPS for iv in self.virtual
        )

    def earliest_slot(self, duration, not_before=0.0):
        t = max(0.0, not_before)
        # Alternate between the base timeline and the virtual intervals
        # until both agree on a start.
        while True:
            t2 = timeline_earliest_slot(self.base, duration, t)
            bumped = False
            for iv in self.virtual:
                if iv.start < t2 + duration - _EPS and iv.end > t2 + _EPS:
                    t2 = max(t2, iv.end)
                    bumped = True
            if not bumped:
                return t2
            t = t2

    def reserve(self, start, duration, tag=""):
        iv = Interval(start, start + duration, tag)
        if iv.end - iv.start <= _EPS:
            return iv
        if not self.is_free(iv.start, iv.end):
            raise ValueError(f"overlay of {self.base.name!r}: slot busy")
        self.virtual.append(iv)
        return iv


def _overlay(overlays, tl):
    if tl.name not in overlays:
        overlays[tl.name] = Overlay(tl)
    return overlays[tl.name]


def _transfer_resources(rt, kind, source_node, dest, file_id, overlays):
    dest_ov = _overlay(overlays, rt.node_tl[dest])
    if kind == "remote":
        storage = rt.state.storage_node_of(file_id)
        res = [dest_ov, _overlay(overlays, rt.storage_tl[storage])]
        if rt.link_tl is not None:
            res.append(_overlay(overlays, rt.link_tl))
        return res, rt.platform.remote_bandwidth(storage), rt.clock
    res = [dest_ov, _overlay(overlays, rt.node_tl[source_node])]
    return res, rt.platform.replication_bandwidth, rt._avail_time(source_node, file_id)


def _best_source(rt, file_id, node, plan, overlays, floor, exclude=frozenset()):
    faults = rt.faults
    size = rt.state.size_of(file_id)
    best = None
    for kind, src in rt._sources_for(file_id, node, plan):
        if exclude and (kind, src) in exclude:
            continue
        res, bw, ready = _transfer_resources(rt, kind, src, node, file_id, overlays)
        not_before = max(floor, ready)
        if faults is None:
            duration = size / bw
        else:
            duration = size * faults.slowdown_factor(kind, not_before) / bw
        start = earliest_common_slot(res, duration, not_before)
        tct = start + duration
        if faults is not None and kind == "replica":
            if tct > faults.crash_time(src):
                continue
        if best is None or tct < best[0]:
            best = (tct, kind, src, start, duration, res)
    return best


def _retry_until_staged(rt, file_id, node, plan, overlays, first, failed):
    faults = rt.faults
    size = rt.state.size_of(file_id)
    instance = faults.staging_instances.get((file_id, node), 0)
    tried = set()
    opt = first
    attempt = 0
    while faults.transfer_fails(file_id, node, instance, attempt):
        _tct, kind, src, start, duration, res = opt
        for ov in res:
            ov.reserve(start, duration, tag=f"xfail:{file_id}->{node}")
        failed.append((file_id, size, kind, src, start, start + duration, attempt))
        tried.add((kind, src))
        floor = start + duration + faults.backoff(attempt)
        attempt += 1
        nxt = _best_source(rt, file_id, node, plan, overlays, floor, tried)
        if nxt is None:
            tried.clear()
            nxt = _best_source(rt, file_id, node, plan, overlays, floor)
        if nxt is None:
            nxt = _best_source(rt, file_id, node, None, overlays, floor)
        opt = nxt
    return opt


def evaluate(rt, task, node, plan=None):
    """Tentatively schedule ``task`` on ``node`` of runtime ``rt``.

    Returns ``(transfers, failed_attempts, transfers_done, exec_start, ect,
    reservations)``; ``reservations`` maps each timeline's name to the
    intervals the schedule adds to it, in the order they were made.
    """
    overlays = {}
    missing = [f for f in task.files if not rt.state.has_file(node, f)]
    transfers_done = max(
        (rt._avail_time(node, f) for f in task.files if f not in missing),
        default=rt.clock,
    )
    transfers = []
    failed_attempts = []
    remaining = list(missing)
    while remaining:
        pick = None
        for f in remaining:
            opt = _best_source(rt, f, node, plan, overlays, rt.clock)
            if opt is None:
                opt = _best_source(rt, f, node, None, overlays, rt.clock)
            if pick is None or opt[0] < pick[0][0]:
                pick = (opt, f)
        opt, f = pick
        if rt.faults is not None:
            opt = _retry_until_staged(
                rt, f, node, plan, overlays, opt, failed_attempts
            )
        tct, kind, src, start, duration, res = opt
        for ov in res:
            ov.reserve(start, duration, tag=f"xfer:{f}->{node}")
        transfers.append((f, kind, src, start, duration))
        transfers_done = max(transfers_done, tct)
        remaining.remove(f)

    exec_dur = rt._exec_duration(task, node)
    dest_ov = _overlay(overlays, rt.exec_tl[node])
    exec_start = dest_ov.earliest_slot(exec_dur, max(transfers_done, rt.clock))
    dest_ov.reserve(exec_start, exec_dur, tag=f"exec:{task.task_id}")
    reservations = {
        name: [(iv.start, iv.end, iv.tag) for iv in ov.virtual]
        for name, ov in overlays.items()
        if ov.virtual
    }
    return (
        transfers,
        failed_attempts,
        transfers_done,
        exec_start,
        exec_start + exec_dur,
        reservations,
    )
