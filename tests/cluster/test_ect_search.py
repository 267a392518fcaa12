"""The runtime's least-ECT search and ECT evaluation against references.

``Runtime._least_ect`` evaluates candidates in order of
:meth:`Runtime.ect_bound` and skips those that provably cannot win.
``Runtime.evaluate`` places a candidate's tentative reservations on the real
timelines and releases them before it returns. On small random problems
covering every runtime feature (replication on and off, disk pressure, IP
staging plans, overlapped I/O, FIFO ordering, candidate limits, slowdowns,
transfer failures and crashes), every search is checked at its commit point
against a brute-force ``min`` over every candidate's evaluation, every
candidate's bound against its evaluated ECT, and every evaluation against
the overlay-based reference in ``overlay_reference.py``. Each evaluation
must also leave every timeline exactly as it found it, including when a
reservation fails midway. The problems include exact copies of tasks,
which the search evaluates once per class, and near-copies, which it must
keep apart.
"""

import contextlib
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.batch import Batch, FileInfo, Task
from repro.cluster import (
    ClusterState,
    ComputeNode,
    PlannedSource,
    Platform,
    Runtime,
    StagingPlan,
    StorageNode,
    Timeline,
    runtime,
)
from repro.cluster.platform import osc_xio
from repro.core.driver import run_batch
from repro.faults import FaultModel, FaultSpec, LinkSlowdown, NodeCrash
from repro.obs.core import telemetry
from repro.workloads import generate_image_batch

from . import overlay_reference
from .test_gantt import contents


def brute_force_least_ect(rt, pairs, plan):
    """Evaluate every candidate; ``min`` keeps the first on ties."""
    return min((rt.evaluate(t, n, plan) for t, n in pairs), key=lambda x: x.ect)


def outcome(tent):
    """Everything a committed tentative writes through, as one tuple."""
    return (
        tent.task.task_id,
        tent.node,
        tent.transfers,
        tent.transfers_done,
        tent.exec_start,
        tent.ect,
        tent.failed_attempts,
    )


def snapshot(rt):
    """Every timeline's three views: its intervals and both float lists."""
    return [(tl.name, contents(tl)) for tl in rt.timelines()]


def reservations(tent):
    """The tentative's reservations per timeline name, in placement order."""
    out = {}
    for tl, iv in tent.reservations:
        out.setdefault(tl.name, []).append((iv.start, iv.end, iv.tag))
    return out


class InjectedFailure(Exception):
    pass


def checked_evaluate(rt, task, node, plan, fail_at):
    """``rt.evaluate``, checked against the overlay-based reference.

    Then evaluates again with the ``fail_at``-th reservation (modulo the
    number the evaluation places) raising, and checks that the timelines
    are restored either way.
    """
    before = snapshot(rt)
    want = overlay_reference.evaluate(rt, task, node, plan)
    got = rt.evaluate(task, node, plan)
    assert snapshot(rt) == before
    assert (
        got.transfers,
        got.failed_attempts,
        got.transfers_done,
        got.exec_start,
        got.ect,
        reservations(got),
    ) == want
    placed = len(got.reservations) - 1  # the execution is recorded, not placed
    if placed:
        reserve = Timeline.reserve
        calls = itertools.count()

        def failing(tl, *args, **kwargs):
            if next(calls) == fail_at % placed:
                raise InjectedFailure
            return reserve(tl, *args, **kwargs)

        with mock.patch.object(Timeline, "reserve", failing):
            with pytest.raises(InjectedFailure):
                rt.evaluate(task, node, plan)
        assert snapshot(rt) == before
    return got


@contextlib.contextmanager
def checked_searches():
    """Patch ``Runtime._least_ect`` to check every search it runs.

    Pairs with the same node, ordered inputs and compute time form a class;
    every member must have the bound and the evaluation of the class's
    first pair, apart from the task id. Yields two lists: every checked
    search's candidate count and its number of classes.
    """
    search = Runtime._least_ect
    sizes = []
    class_counts = []
    evaluations = itertools.count()

    def checked(rt, pairs, plan):
        got = search(rt, pairs, plan)
        classes = {}
        for task, node in pairs:
            tent = checked_evaluate(rt, task, node, plan, next(evaluations))
            bound = rt.ect_bound(task, node)
            assert bound <= tent.ect
            shared = (bound, outcome(tent)[1:])
            key = (node, task.files, task.compute_time)
            assert classes.setdefault(key, shared) == shared
        assert outcome(got) == outcome(brute_force_least_ect(rt, pairs, plan))
        sizes.append(len(pairs))
        class_counts.append(len(classes))
        return got

    with mock.patch.object(Runtime, "_least_ect", checked):
        yield sizes, class_counts


# -- random problems ---------------------------------------------------------------
@st.composite
def problem(draw):
    """A small platform, two mapped sub-batches and the runtime's options."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    num_compute = draw(st.integers(1, 4))
    num_storage = draw(st.integers(1, 3))
    num_files = draw(st.integers(1, 8))
    num_tasks = draw(st.integers(1, 10))
    # Few distinct sizes, costs and speeds make exact ECT ties common,
    # which exercises the first-occurrence tie-break.
    ties = draw(st.booleans())

    def value(low, high, choices):
        return float(rng.choice(choices) if ties else rng.uniform(low, high))

    files = {
        f"f{i}": FileInfo(
            f"f{i}",
            value(10.0, 200.0, [50.0, 100.0]),
            int(rng.integers(0, num_storage)),
        )
        for i in range(num_files)
    }
    tasks = []
    mapping = {}
    # Copies of earlier tasks, usually on the same node: exact ones (same
    # ordered inputs and compute time) share one evaluation in a search;
    # near-copies (inputs reordered, or another compute time) must not.
    copies = draw(st.booleans())
    for k in range(num_tasks):
        if copies and tasks and rng.uniform() < 0.6:
            like = tasks[int(rng.integers(0, len(tasks)))]
            inputs, compute = like.files, like.compute_time
            variant = int(rng.integers(0, 4))  # 0 and 1: an exact copy
            if variant == 2:
                inputs = inputs[::-1]
            elif variant == 3:
                compute += 1.0
            task = Task(f"t{k}", inputs, compute)
            node = (
                mapping[like.task_id]
                if rng.uniform() < 0.8
                else int(rng.integers(0, num_compute))
            )
        else:
            size = int(rng.integers(1, min(4, num_files) + 1))
            chosen = rng.choice(num_files, size=size, replace=False)
            task = Task(
                f"t{k}",
                tuple(f"f{i}" for i in sorted(chosen)),
                value(0.0, 5.0, [0.0, 1.0]),
            )
            node = int(rng.integers(0, num_compute))
        tasks.append(task)
        mapping[task.task_id] = node
    batch = Batch(tasks, files)
    # Disk pressure: room for the largest task's inputs and a little more.
    largest = max(sum(files[f].size_mb for f in t.files) for t in tasks)
    disk = largest * float(rng.uniform(1.0, 1.5)) if draw(st.booleans()) else math.inf
    platform = Platform(
        compute_nodes=tuple(
            ComputeNode(
                i,
                speed=value(0.5, 2.0, [1.0]),
                disk_space_mb=disk,
                local_disk_bw=value(100, 400, [200.0]),
            )
            for i in range(num_compute)
        ),
        storage_nodes=tuple(
            StorageNode(s, disk_bw=value(20, 300, [100.0]))
            for s in range(num_storage)
        ),
        storage_network_bw=value(50, 1000, [100.0, 400.0]),
        compute_network_bw=value(50, 1000, [100.0, 400.0]),
        shared_link_bw=value(10, 100, [50.0]) if draw(st.booleans()) else None,
    )
    # Replicas present before the first sub-batch (unlimited disks only).
    preplaced = (
        [
            (int(rng.integers(0, num_compute)), f)
            for f in files
            if rng.uniform() < 0.3
        ]
        if disk == math.inf
        else []
    )
    plan = None
    if draw(st.booleans()):  # an IP-style plan fixing some sources
        plan = StagingPlan()
        for t in tasks:
            for f in t.files:
                if rng.uniform() < 0.5:
                    plan.sources[(f, mapping[t.task_id])] = (
                        PlannedSource("remote")
                        if rng.uniform() < 0.5
                        else PlannedSource("replica", int(rng.integers(0, num_compute)))
                    )
    faults = None
    if draw(st.booleans()):
        crash = (
            (NodeCrash(int(rng.integers(0, num_compute)), float(rng.uniform(0, 20))),)
            if draw(st.booleans())
            else ()
        )
        start = float(rng.uniform(0, 10))
        faults = FaultSpec(
            node_crashes=crash,
            transfer_failure_rate=float(rng.uniform(0.0, 0.6)),
            backoff_base_s=float(rng.uniform(0.0, 2.0)),
            link_slowdowns=(
                LinkSlowdown(
                    start,
                    start + float(rng.uniform(1, 20)),
                    float(rng.uniform(1.0, 4.0)),
                    draw(st.sampled_from(["all", "remote", "replica"])),
                ),
            ),
            seed=int(rng.integers(0, 1000)),
        )
    options = {
        "allow_replication": draw(st.booleans()),
        "overlap_io_compute": draw(st.booleans()),
        "ordering": draw(st.sampled_from(["ect", "ect", "fifo"])),
        "candidate_limit": draw(st.sampled_from([None, None, 1, 2, 3])),
    }
    split = draw(st.integers(0, num_tasks))
    return platform, batch, mapping, preplaced, plan, faults, options, split


@settings(max_examples=150, deadline=None)
@given(problem())
def test_search_matches_brute_force(prob):
    platform, batch, mapping, preplaced, plan, spec, options, split = prob
    state = ClusterState.initial(platform, batch)
    for node, f in preplaced:
        state.place(node, f)
    faults = FaultModel(spec) if spec is not None else None
    rt = Runtime(platform, state, faults=faults, **options)
    with checked_searches() as (sizes, class_counts):
        for part in (batch.tasks[:split], batch.tasks[split:]):
            rt.execute(part, {t.task_id: mapping[t.task_id] for t in part}, plan)
    assert rt.candidates == sum(sizes)
    assert rt.duplicates == sum(sizes) - sum(class_counts)
    assert rt.evaluations <= sum(class_counts)


def one_node_runtime(files, tasks):
    """A runtime over one compute node and one storage node (100 MB/s)."""
    platform = Platform(
        compute_nodes=(ComputeNode(0),),
        storage_nodes=(StorageNode(0, disk_bw=100.0),),
        storage_network_bw=1000.0,
        compute_network_bw=1000.0,
    )
    state = ClusterState.initial(
        platform, Batch(tasks, {f.file_id: f for f in files})
    )
    return Runtime(platform, state)


def one_task_runtime(size_mb, compute_s):
    task = Task("t0", ("f0",), compute_s)
    return one_node_runtime([FileInfo("f0", size_mb, 0)], [task]), task


def test_identical_tasks_share_one_evaluation():
    # "b" and "a" differ only in their ids: the first search evaluates
    # the first of them once and commits it; the second search, after
    # it completes, evaluates the other.
    tasks = [Task("b", ("f0",), 1.0), Task("a", ("f0",), 1.0)]
    rt = one_node_runtime([FileInfo("f0", 100.0, 0)], tasks)
    evaluate = Runtime.evaluate
    evaluated = []

    def counted(self, task, node, plan=None):
        evaluated.append(task.task_id)
        return evaluate(self, task, node, plan)

    with mock.patch.object(Runtime, "evaluate", counted):
        result = rt.execute(tasks, {"a": 0, "b": 0})
    assert evaluated == ["b", "a"]
    assert [r.task_id for r in result.records] == ["b", "a"]
    assert (rt.candidates, rt.duplicates, rt.evaluations) == (3, 1, 2)


def test_near_copies_are_separate_classes():
    # The same inputs in another order can be staged in another order
    # (min-TCT ties follow the task's file order), and another compute
    # time gives another ECT: only "t3" copies "t0".
    files = [FileInfo("f0", 100.0, 0), FileInfo("f1", 100.0, 0)]
    tasks = [
        Task("t0", ("f0", "f1"), 1.0),
        Task("t1", ("f1", "f0"), 1.0),
        Task("t2", ("f0", "f1"), 2.0),
        Task("t3", ("f0", "f1"), 1.0),
    ]
    rt = one_node_runtime(files, tasks)
    rt._least_ect([(t, 0) for t in tasks], None)
    assert (rt.candidates, rt.duplicates) == (4, 1)
    staged = [[f for f, *_ in rt.evaluate(t, 0).transfers] for t in tasks[:2]]
    assert staged == [["f0", "f1"], ["f1", "f0"]]


def test_identical_slot_queries_share_one_search_per_round():
    # f0-f2 have one size and one storage node, so in every min-TCT round
    # they ask the same slot query; f3 is shorter and staged first. Ties
    # between f0-f2 go to the task's file order.
    files = [FileInfo(f"f{i}", 100.0, 0) for i in range(3)]
    files.append(FileInfo("f3", 50.0, 0))
    task = Task("t0", ("f0", "f1", "f2", "f3"), 1.0)
    rt = one_node_runtime(files, [task])
    calls = []
    search = runtime.earliest_common_slot

    def counted(res, duration, not_before):
        calls.append((tuple(tl.name for tl in res), duration, not_before))
        return search(res, duration, not_before)

    want = overlay_reference.evaluate(rt, task, 0, None)
    with mock.patch.object(runtime, "earliest_common_slot", counted):
        tent = rt.evaluate(task, 0)
    assert [f for f, *_ in tent.transfers] == ["f3", "f0", "f1", "f2"]
    query = ("compute0", "storage0")
    # Round 1: one search for f0-f2 and one for f3; rounds 2-4: one each.
    assert calls == [(query, 1.0, 0.0), (query, 0.5, 0.0), *[(query, 1.0, 0.0)] * 3]
    assert (rt.slot_searches, rt.slot_reuses) == (5, 2 + 2 + 1)
    assert (
        tent.transfers,
        tent.failed_attempts,
        tent.transfers_done,
        tent.exec_start,
        tent.ect,
        reservations(tent),
    ) == want


def test_bound_allows_eps_overlap():
    # The port's only gap before t=0.03 is 0.9e-9 shorter than the 0.01 s
    # transfer; is_free's _EPS tolerance still fits the transfer there, so
    # the bound must count that gap. Times stay small so the relative
    # rounding slack does not cover the difference.
    rt, task = one_task_runtime(size_mb=1.0, compute_s=1.0)
    rt.node_tl[0].reserve(0.0, 0.01)
    rt.node_tl[0].reserve(0.02 - 0.9e-9, 0.01)
    tent = rt.evaluate(task, 0)
    assert [start for *_, start, _duration in tent.transfers] == [0.01]
    assert rt.ect_bound(task, 0) <= tent.ect


class TestGanttTolerance:
    """Transfers and executions must last longer than ``2 * _EPS``."""

    def test_short_query_is_where_overlay_and_timeline_differ(self):
        # A zero-length query at the start of an adjacent tentative
        # reservation: the overlay lets it start there, the timeline
        # holding the same reservation does not.
        tl = Timeline("t")
        ov = overlay_reference.Overlay(tl)
        ov.reserve(1.0, 1.0)
        assert ov.earliest_slot(0.0, 1.0) == 1.0
        tl.reserve(1.0, 1.0)
        assert tl.earliest_slot(0.0, 1.0) == 2.0

    def test_short_transfer_rejected(self):
        rt, task = one_task_runtime(size_mb=1e-9, compute_s=1.0)
        with pytest.raises(ValueError, match="transfers must last"):
            rt.evaluate(task, 0)

    def test_short_execution_rejected(self):
        rt, task = one_task_runtime(size_mb=1e-9, compute_s=0.0)
        rt.state.place(0, "f0")
        with pytest.raises(ValueError, match="executions must last"):
            rt.evaluate(task, 0)


# -- work counters -----------------------------------------------------------------
def golden_run(telemetry_on=False):
    """The fixed run behind tests/obs/golden_manifest.json."""
    batch = generate_image_batch(16, "high", 4, seed=0)
    platform = osc_xio(num_compute=4, num_storage=4, disk_space_mb=4000.0)
    return run_batch(
        batch, platform, "minmin", candidate_limit=25, telemetry=telemetry_on
    )


def records(result):
    return [r for sb in result.sub_batches for r in sb.execution.records]


class TestCounters:
    def setup_method(self):
        telemetry.reset()
        telemetry.disable()

    def teardown_method(self):
        telemetry.reset()
        telemetry.disable()

    def test_pinned_values_on_fixed_case(self):
        # Exact values: the search is deterministic. 16 tasks on 4 nodes
        # give 63 candidate pairs over 16 searches; 6 copy an earlier pair
        # of their search, and the bound order skips 22 of the other 57.
        counters = golden_run(telemetry_on=True).telemetry["counters"]
        assert counters["runtime/candidates"] == 63.0
        assert counters["runtime/duplicates"] == 6.0
        assert counters["runtime/evaluations"] == 35.0
        # One common-slot search per distinct (timelines, duration, start)
        # query per min-TCT round of every evaluation; the round's repeats
        # reuse its answer.
        assert counters["runtime/slot_searches"] == 2165.0
        assert counters["runtime/slot_reuses"] == 553.0

    def test_slot_searches_count_every_common_slot_call(self):
        calls = []
        search = runtime.earliest_common_slot

        def counted(*args):
            calls.append(args)
            return search(*args)

        with mock.patch.object(runtime, "earliest_common_slot", counted):
            counters = golden_run(telemetry_on=True).telemetry["counters"]
        assert counters["runtime/slot_searches"] == len(calls)

    def test_counters_are_decision_neutral(self):
        # The counters only accumulate: the bound-ordered search commits
        # exactly what evaluating every candidate commits, with telemetry
        # on or off.
        with_counters = records(golden_run(telemetry_on=True))
        assert records(golden_run()) == with_counters
        with mock.patch.object(
            Runtime, "_least_ect", brute_force_least_ect
        ):
            assert records(golden_run()) == with_counters
