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
keep apart; and shape-heavy problems, whose tasks read distinct files of
one size on nodes that are still blank, which the search evaluates once
per shape.
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


def keyed_by_node(rt, plan):
    """Whether a fault model or planned sources read file and node ids."""
    return rt.faults is not None or (plan is not None and bool(plan.sources))


def node_key(rt, node, plan):
    """The node as the search tells nodes apart: all blank nodes (nothing
    reserved, nothing cached) of one speed and local disk are one, unless
    something is keyed by node."""
    if (
        keyed_by_node(rt, plan)
        or rt.node_tl[node].intervals
        or rt.exec_tl[node].intervals
        or rt.state.files_on(node)
    ):
        return node
    spec = rt.platform.compute_nodes[node]
    return ("blank", spec.speed, spec.local_disk_bw)


def shape(rt, task, node, plan):
    """What evaluating ``task`` on ``node`` reads, file and task ids aside.

    Of an input on the node: its size and availability time; of a missing
    one: its size, storage node, and every other holder with its ready
    time, in source order. Without a fault model or planned sources, pairs
    of one shape must evaluate alike; with one, only the same task inputs
    on the same node must.
    """
    if keyed_by_node(rt, plan):
        return (node, task.files, task.compute_time)
    state = rt.state
    inputs = []
    for f in task.files:
        if state.has_file(node, f):
            inputs.append(("on node", state.size_of(f), rt._avail_time(node, f)))
        else:
            holders = tuple(
                (h, rt._avail_time(h, f)) for h in state.holders(f) if h != node
            )
            inputs.append(
                ("missing", state.size_of(f), state.storage_node_of(f), holders)
            )
    return (node_key(rt, node, plan), task.compute_time, tuple(inputs))


@contextlib.contextmanager
def checked_searches():
    """Patch ``Runtime._least_ect`` to check every search it runs.

    Pairs with the same ordered inputs and compute time on one node, or on
    two blank nodes of one speed and local disk, are copies; pairs of one
    :func:`shape` must have the bound, ECT, execution start, transfer end,
    failed attempts and transfers (file ids aside) of the shape's first
    pair. Yields two lists: every checked search's candidate count and its
    number of classes of copies.
    """
    search = Runtime._least_ect
    sizes = []
    class_counts = []
    evaluations = itertools.count()

    def checked(rt, pairs, plan):
        got = search(rt, pairs, plan)
        copies = set()
        shapes = {}
        for task, node in pairs:
            tent = checked_evaluate(rt, task, node, plan, next(evaluations))
            bound = rt.ect_bound(task, node)
            assert bound <= tent.ect
            copies.add((node_key(rt, node, plan), task.files, task.compute_time))
            shared = (
                bound,
                tent.ect,
                tent.exec_start,
                tent.transfers_done,
                [transfer[1:] for transfer in tent.transfers],
                tent.failed_attempts,
            )
            assert shapes.setdefault(shape(rt, task, node, plan), shared) == shared
        assert outcome(got) == outcome(brute_force_least_ect(rt, pairs, plan))
        sizes.append(len(pairs))
        class_counts.append(len(copies))
        return got

    with mock.patch.object(Runtime, "_least_ect", checked):
        yield sizes, class_counts


# -- random problems ---------------------------------------------------------------
@st.composite
def problem(draw):
    """A small platform, two mapped sub-batches and the runtime's options."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    # Shape-heavy problems: distinct files of one size on 2-3 storage
    # nodes, and 3-4 compute nodes of which only the first holds replicas,
    # all ready at once, so the others are blank at the first commits.
    shapes = draw(st.booleans())
    num_compute = draw(st.integers(3, 4) if shapes else st.integers(1, 4))
    num_storage = draw(st.integers(2, 3) if shapes else st.integers(1, 3))
    num_files = draw(st.integers(1, 8))
    num_tasks = draw(st.integers(1, 10))
    # Few distinct sizes, costs and speeds make exact ECT ties common,
    # which exercises the first-occurrence tie-break.
    ties = shapes or draw(st.booleans())

    def value(low, high, choices):
        return float(rng.choice(choices) if ties else rng.uniform(low, high))

    files = {
        f"f{i}": FileInfo(
            f"f{i}",
            100.0 if shapes else value(10.0, 200.0, [50.0, 100.0]),
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
            (0 if shapes else int(rng.integers(0, num_compute)), f)
            for f in files
            if rng.uniform() < (0.5 if shapes else 0.3)
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
    # Each class reached is evaluated or skipped for its shape.
    assert rt.evaluations + rt.shape_skips <= sum(class_counts)
    assert rt.first_evaluations <= rt.evaluations


def small_runtime(files, tasks, num_compute=1, num_storage=1, **options):
    """A runtime over alike compute and storage nodes: remote transfers at
    100 MB/s, replication at 1000 MB/s."""
    platform = Platform(
        compute_nodes=tuple(ComputeNode(i) for i in range(num_compute)),
        storage_nodes=tuple(
            StorageNode(s, disk_bw=100.0) for s in range(num_storage)
        ),
        storage_network_bw=1000.0,
        compute_network_bw=1000.0,
    )
    state = ClusterState.initial(
        platform, Batch(tasks, {f.file_id: f for f in files})
    )
    return Runtime(platform, state, **options)


def one_task_runtime(size_mb, compute_s):
    task = Task("t0", ("f0",), compute_s)
    return small_runtime([FileInfo("f0", size_mb, 0)], [task]), task


def least_ect(rt, pairs, plan=None):
    """The task the search commits, checked against brute force."""
    got = rt._least_ect(pairs, plan)
    assert outcome(got) == outcome(brute_force_least_ect(rt, pairs, plan))
    return got.task.task_id


def test_identical_tasks_share_one_evaluation():
    # "b" and "a" differ only in their ids: the first search evaluates
    # the first of them once and commits it; the second search, after
    # it completes, evaluates the other. Each search has one class, so
    # neither needs a bound.
    tasks = [Task("b", ("f0",), 1.0), Task("a", ("f0",), 1.0)]
    rt = small_runtime([FileInfo("f0", 100.0, 0)], tasks)
    evaluate = Runtime.evaluate
    evaluated = []

    def counted(self, task, node, plan=None):
        evaluated.append(task.task_id)
        return evaluate(self, task, node, plan)

    with (
        mock.patch.object(Runtime, "evaluate", counted),
        mock.patch.object(Runtime, "ect_bound", side_effect=AssertionError),
    ):
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
    rt = small_runtime(files, tasks)
    rt._least_ect([(t, 0) for t in tasks], None)
    assert (rt.candidates, rt.duplicates) == (4, 1)
    staged = [[f for f, *_ in rt.evaluate(t, 0).transfers] for t in tasks[:2]]
    assert staged == [["f0", "f1"], ["f1", "f0"]]


def test_copies_on_blank_nodes_share_one_evaluation():
    # Nodes 0 and 1 have nothing reserved and nothing cached, and one
    # speed and local disk: "a" on node 1 and its copy "b" on node 0 are
    # one class, and the first pair wins without a bound.
    a, b = Task("a", ("f0",), 1.0), Task("b", ("f0",), 1.0)
    rt = small_runtime([FileInfo("f0", 100.0, 0)], [a, b], num_compute=2)
    with mock.patch.object(Runtime, "ect_bound", side_effect=AssertionError):
        assert least_ect(rt, [(a, 1), (b, 0)]) == "a"
    assert (rt.candidates, rt.duplicates, rt.evaluations) == (2, 1, 1)


def test_tied_candidates_of_one_shape_share_one_evaluation():
    # "a" and "b" read distinct files of one size from one storage node:
    # tied on their bound, "b" has the shape of "a" and is skipped. "c"
    # reads from the other storage node, another shape, and is evaluated
    # to the same ECT at a later index.
    files = [
        FileInfo("f0", 100.0, 0), FileInfo("f1", 100.0, 0), FileInfo("f2", 100.0, 1)
    ]
    a, b, c = (Task(t, (f,), 1.0) for t, f in zip("abc", ("f0", "f1", "f2")))
    rt = small_runtime(files, [a, b, c], num_storage=2)
    assert least_ect(rt, [(a, 0), (b, 0), (c, 0)]) == "a"
    assert (rt.duplicates, rt.shape_skips, rt.evaluations) == (0, 1, 2)


class TestNearShapesStayApart:
    """Near-shapes that must stay separate classes: in each case the first
    pair, "a", completes later than "b", so merging the two would commit
    "a". Where only a shape could merge them, their bounds tie."""

    def test_another_storage_node(self):
        # Storage node 0 is busy for 5 s: "a" stages its input after it.
        files = [FileInfo("f0", 100.0, 0), FileInfo("f1", 100.0, 1)]
        a, b = Task("a", ("f0",), 1.0), Task("b", ("f1",), 1.0)
        rt = small_runtime(files, [a, b], num_storage=2)
        rt.storage_tl[0].reserve(0.0, 5.0)
        assert least_ect(rt, [(a, 0), (b, 0)]) == "b"
        assert rt.shape_skips == 0

    def test_another_holder_ready_time(self):
        # Node 1 holds both inputs, but its copy of f0 is ready only at
        # 5 s: "a" fetches f0 from storage (1 s) instead, while "b" copies
        # f1 from node 1 (0.1 s).
        files = [FileInfo("f0", 100.0, 0), FileInfo("f1", 100.0, 0)]
        a, b = Task("a", ("f0",), 1.0), Task("b", ("f1",), 1.0)
        rt = small_runtime(files, [a, b], num_compute=2)
        for f in ("f0", "f1"):
            rt.state.place(1, f)
        rt._avail[(1, "f0")] = 5.0
        assert least_ect(rt, [(a, 0), (b, 0)]) == "b"
        assert rt.shape_skips == 0

    def test_input_on_the_node_or_not(self):
        # An input ready at 10 s on node 0 sets both bounds. The other
        # input of "a" is missing, and storage is busy until 20 s; the
        # other input of "b" is on the node.
        files = [FileInfo(f, 100.0, 0) for f in ("r0", "m", "r1", "r2")]
        a, b = Task("a", ("r0", "m"), 1.0), Task("b", ("r1", "r2"), 1.0)
        rt = small_runtime(files, [a, b])
        for f in ("r0", "r1", "r2"):
            rt.state.place(0, f)
        rt._avail[(0, "r0")] = rt._avail[(0, "r1")] = 10.0
        rt.storage_tl[0].reserve(0.0, 20.0)
        assert rt.ect_bound(a, 0) == rt.ect_bound(b, 0)
        assert least_ect(rt, [(a, 0), (b, 0)]) == "b"
        assert rt.shape_skips == 0

    def test_busy_cpu_under_overlapped_io(self):
        # Node 1 executes on its own CPU timeline, busy for 50 s; its port
        # and cache are empty, but it is not blank.
        a, b = Task("a", ("f0",), 1.0), Task("b", ("f0",), 1.0)
        rt = small_runtime(
            [FileInfo("f0", 100.0, 0)], [a, b], num_compute=2,
            overlap_io_compute=True,
        )
        rt.exec_tl[1].reserve(0.0, 50.0)
        assert least_ect(rt, [(a, 1), (b, 0)]) == "b"
        assert rt.duplicates == 0

    def test_file_in_cache_on_idle_node(self):
        # Node 1's timelines are empty, but it holds f0 from an earlier
        # batch, so "b" there needs no transfer.
        a, b = Task("a", ("f0",), 1.0), Task("b", ("f0",), 1.0)
        rt = small_runtime([FileInfo("f0", 100.0, 0)], [a, b], num_compute=2)
        rt.state.place(1, "f0")
        assert least_ect(rt, [(a, 0), (b, 1)]) == "b"
        assert rt.duplicates == 0

    def test_plan_with_sources(self):
        # Nodes 0 and 1 are blank, but the plan fetches f0 onto node 1
        # from storage (1 s), while node 0 copies it from node 2 (0.1 s).
        a, b = Task("a", ("f0",), 1.0), Task("b", ("f0",), 1.0)
        rt = small_runtime([FileInfo("f0", 100.0, 0)], [a, b], num_compute=3)
        rt.state.place(2, "f0")
        plan = StagingPlan(sources={("f0", 1): PlannedSource("remote")})
        assert least_ect(rt, [(a, 1), (b, 0)], plan) == "b"
        assert rt.duplicates == 0

    def test_fault_model(self):
        # Nodes 0 and 1 are blank, but the first attempt to stage f0 onto
        # node 1 fails, and onto node 0 it does not.
        def draws(spec):
            model = FaultModel(spec)
            return [model.transfer_fails("f0", node, 0, 0) for node in (0, 1)]

        spec = next(
            spec
            for spec in (
                FaultSpec(transfer_failure_rate=0.5, seed=seed)
                for seed in range(100)
            )
            if draws(spec) == [False, True]
        )
        a, b = Task("a", ("f0",), 1.0), Task("b", ("f0",), 1.0)
        rt = small_runtime(
            [FileInfo("f0", 100.0, 0)], [a, b], num_compute=2,
            faults=FaultModel(spec),
        )
        assert least_ect(rt, [(a, 1), (b, 0)]) == "b"
        assert rt.duplicates == 0


def counted_searches(rt, task, node, plan=None):
    """``rt.evaluate(task, node, plan)``, checked against the overlay-based
    reference, and the ``(timeline names, duration, head)`` of every
    common-slot search it made. Every search starts at its head, the port's
    own slot, with the port's answer counted."""
    calls = []
    search = runtime.earliest_common_slot

    def counted(res, duration, head, confirmed):
        assert confirmed is True
        assert overlay_reference.timeline_earliest_slot(res[0], duration, head) == head
        calls.append((tuple(tl.name for tl in res), duration, head))
        return search(res, duration, head, confirmed)

    want = overlay_reference.evaluate(rt, task, node, plan)
    with mock.patch.object(runtime, "earliest_common_slot", counted):
        tent = rt.evaluate(task, node, plan)
    assert (
        tent.transfers,
        tent.failed_attempts,
        tent.transfers_done,
        tent.exec_start,
        tent.ect,
        reservations(tent),
    ) == want
    return tent, calls


def test_identical_slot_queries_share_one_search_per_round():
    # f0-f2 have one size and one storage node, so in every min-TCT round
    # they ask the same slot query; f3 is shorter and staged first. Ties
    # between f0-f2 go to the task's file order. The storage node is busy
    # until 0.25 s, so in round 1 the port's slot (0 s) cannot rule out
    # f1 and f2, and they reuse f0's search; from round 2 on the port's
    # slot is the common one, so they cannot beat f0 and are skipped.
    files = [FileInfo(f"f{i}", 100.0, 0) for i in range(3)]
    files.append(FileInfo("f3", 50.0, 0))
    task = Task("t0", ("f0", "f1", "f2", "f3"), 1.0)
    rt = small_runtime(files, [task])
    rt.storage_tl[0].reserve(0.0, 0.25)
    tent, calls = counted_searches(rt, task, 0)
    assert [f for f, *_ in tent.transfers] == ["f3", "f0", "f1", "f2"]
    query = ("compute0", "storage0")
    # Each search starts at the port's slot: round 1 has one search for
    # f0-f2 and one for f3; rounds 2-4 one each.
    assert calls == [
        (query, 1.0, 0.0), (query, 0.5, 0.0),
        (query, 1.0, 0.75), (query, 1.0, 1.75), (query, 1.0, 2.75),
    ]
    assert (rt.slot_searches, rt.slot_reuses, rt.slot_skips) == (5, 2, 2 + 1)


@pytest.mark.parametrize(
    "f0_mb", [pytest.param(50.0, id="faster"), pytest.param(100.0, id="tie")]
)
def test_source_that_cannot_beat_the_round_is_not_searched(f0_mb):
    # f0 and f1 (1 s) come from two storage nodes. In round 1 f1's port
    # slot is 0 s, so f1 cannot complete before f0 does: f0 takes 0.5 s,
    # or 1 s, a tie that f0, first in file order, keeps. f1 is skipped
    # without a search, and searched in round 2 from its port slot.
    files = [FileInfo("f0", f0_mb, 0), FileInfo("f1", 100.0, 1)]
    task = Task("t0", ("f0", "f1"), 1.0)
    rt = small_runtime(files, [task], num_storage=2)
    tent, calls = counted_searches(rt, task, 0)
    f0_s = f0_mb / 100.0
    assert calls == [
        (("compute0", "storage0"), f0_s, 0.0),
        (("compute0", "storage1"), 1.0, f0_s),
    ]
    assert (rt.slot_searches, rt.slot_reuses, rt.slot_skips) == (2, 0, 1)
    assert [(f, start) for f, _kind, _src, start, _d in tent.transfers] == [
        ("f0", 0.0), ("f1", f0_s),
    ]


@pytest.mark.parametrize(
    "crash_s, want",
    [
        # Node 1 dies before the 2 s copy ends: the planned replica is
        # unusable, and the dynamic fallback's remote copy (0.5 s) beats
        # f1 (1 s) in round 1.
        (1.5, [("f0", "remote", None, 0.0, 0.5), ("f1", "remote", None, 0.5, 1.0)]),
        # Node 1 outlives the copy: the planned replica is used, after f1.
        (10.0, [("f1", "remote", None, 0.0, 1.0), ("f0", "replica", 1, 1.0, 2.0)]),
    ],
)
def test_planned_replica_is_costed_whatever_the_round(crash_s, want):
    # The plan fixes f0's source: a replica on node 1, copied at 25 MB/s
    # (2 s). In round 1 its port slot plus duration cannot beat f1's 1 s,
    # but it is costed anyway, since only its search tells whether node 1
    # dies mid-copy and the dynamic fallback must run.
    platform = Platform(
        compute_nodes=(ComputeNode(0), ComputeNode(1)),
        storage_nodes=(StorageNode(0, disk_bw=100.0),),
        storage_network_bw=1000.0,
        compute_network_bw=25.0,
    )
    files = {"f0": FileInfo("f0", 50.0, 0), "f1": FileInfo("f1", 100.0, 0)}
    task = Task("t0", ("f1", "f0"), 1.0)
    state = ClusterState.initial(platform, Batch([task], files))
    faults = FaultModel(FaultSpec(node_crashes=(NodeCrash(1, crash_s),)))
    rt = Runtime(platform, state, faults=faults)
    rt.state.place(1, "f0")
    plan = StagingPlan(sources={("f0", 0): PlannedSource("replica", 1)})
    tent, _calls = counted_searches(rt, task, 0, plan)
    assert tent.transfers == want


@contextlib.contextmanager
def port_walks(port, durations):
    """Record ``(duration, start)`` of every walk of timeline ``port`` for a
    transfer, one of ``durations``, in call order; execution slots, of
    other durations, are left out."""
    walks = []
    walk = Timeline.earliest_slot

    def recorded(tl, duration, not_before=0.0):
        if tl is port and duration in durations:
            walks.append((duration, not_before))
        return walk(tl, duration, not_before)

    with mock.patch.object(Timeline, "earliest_slot", recorded):
        yield walks


class TestResumedHeads:
    """A port walk for a head starts from the last head found for the same
    (duration, not_before): the previous round's, else one found from the
    port's committed reservations alone, else not_before. Every case is
    checked against the overlay-based reference."""

    def test_a_later_evaluation_resumes_from_the_committed_heads(self):
        # The port is busy until 2 s. "a" stages f0 and f1 (1 s each from
        # one storage node): round 1 walks the port from 0 to the head 2,
        # round 2 from 2 to 3, past f0's tentative transfer. Only round 1's
        # head is kept for the node, so "b" walks from 2 and stages f2 there.
        files = [FileInfo(f"f{i}", 100.0, 0) for i in range(3)]
        a, b = Task("a", ("f0", "f1"), 1.0), Task("b", ("f2",), 1.0)
        rt = small_runtime(files, [a, b])
        port = rt.node_tl[0]
        port.reserve(0.0, 2.0)
        with port_walks(port, {1.0}) as walks:
            counted_searches(rt, a, 0)
            assert rt._heads == {0: {(1.0, 0.0): 2.0}}
            tent, _calls = counted_searches(rt, b, 0)
        assert walks == [(1.0, 0.0), (1.0, 2.0), (1.0, 2.0)]
        assert [start for *_, start, _d in tent.transfers] == [2.0]
        assert (rt.head_walks, rt.head_resumes) == (3, 2)

    def test_a_commit_over_a_kept_head(self):
        # The port is busy until 0.5 s. Evaluating "a" keeps the head 0.5
        # for (1 s, 0); committing "a" then reserves its transfer and its
        # execution from 0.5 s on. "b" walks from the kept head, which its
        # port no longer has free, and lands where a fresh walk does.
        files = [FileInfo(f"f{i}", 100.0, 0) for i in range(2)]
        a, b = Task("a", ("f0",), 1.0), Task("b", ("f1",), 1.0)
        rt = small_runtime(files, [a, b])
        port = rt.node_tl[0]
        port.reserve(0.0, 0.5)
        rt._commit(rt.evaluate(a, 0), lambda node, cands: list(cands))
        assert rt._heads == {0: {(1.0, 0.0): 0.5}}
        fresh = port.earliest_slot(1.0, 0.0)
        assert fresh == 3.0  # after the transfer [0.5, 1.5) and execution [1.5, 3)
        with port_walks(port, {1.0}) as walks:
            tent, _calls = counted_searches(rt, b, 0)
        assert walks == [(1.0, 0.5)]
        assert [start for *_, start, _d in tent.transfers] == [fresh]
        assert rt._heads == {0: {(1.0, 0.0): fresh}}

    def test_failed_attempts_reserved_between_rounds(self):
        # f0 (0.5 s) wins round 1, and its first attempt fails: the attempt
        # occupies [0.25, 0.75) and the retry, costed from its own floor
        # after the 2 s backoff, stages f0 at 2.75 s. Round 2 resumes f1's
        # walk from round 1's head, past the failed attempt, into the gap
        # before the retry. The retry's walk starts from its floor, and
        # only round 1's heads are kept for the node.
        def draws(spec):
            model = FaultModel(spec)
            return [
                model.transfer_fails(f, 0, 0, attempt)
                for f, attempt in (("f0", 0), ("f0", 1), ("f1", 0))
            ]

        spec = next(
            spec
            for spec in (
                FaultSpec(transfer_failure_rate=0.5, seed=seed) for seed in range(200)
            )
            if draws(spec) == [True, False, False]
        )
        files = [FileInfo("f0", 50.0, 0), FileInfo("f1", 100.0, 0)]
        task = Task("t0", ("f0", "f1"), 1.0)
        rt = small_runtime(files, [task], faults=FaultModel(spec))
        port = rt.node_tl[0]
        port.reserve(0.0, 0.25)
        with port_walks(port, {0.5, 1.0}) as walks:
            tent, _calls = counted_searches(rt, task, 0)
        assert tent.failed_attempts == [("f0", 50.0, "remote", None, 0.25, 0.75, 0)]
        assert tent.transfers == [
            ("f0", "remote", None, 2.75, 0.5), ("f1", "remote", None, 0.75, 1.0),
        ]
        assert walks == [(0.5, 0.0), (1.0, 0.0), (0.5, 2.75), (1.0, 0.25)]
        assert rt._heads == {0: {(0.5, 0.0): 0.25, (1.0, 0.0): 0.25}}
        assert (rt.head_walks, rt.head_resumes) == (4, 1)

    def test_planned_replica_fallback_resumes_from_the_committed_heads(self):
        # The plan copies f0 from node 1 at 25 MB/s (2 s); node 1 dies at
        # 2.5 s. In round 1 the copy would end at 2.25 s, but f1 (1 s)
        # wins. In round 2 it would end at 3.25 s, so the dynamic fallback
        # runs: its remote source (0.5 s) is new to this evaluation, and
        # walks from the head an earlier evaluation ("c") kept for it.
        platform = Platform(
            compute_nodes=(ComputeNode(0), ComputeNode(1)),
            storage_nodes=(StorageNode(0, disk_bw=100.0),),
            storage_network_bw=1000.0,
            compute_network_bw=25.0,
        )
        files = {
            f: FileInfo(f, size, 0)
            for f, size in (("f0", 50.0), ("f1", 100.0), ("f2", 50.0))
        }
        task, c = Task("t0", ("f1", "f0"), 1.0), Task("c", ("f2",), 1.0)
        state = ClusterState.initial(platform, Batch([task, c], files))
        faults = FaultModel(FaultSpec(node_crashes=(NodeCrash(1, 2.5),)))
        rt = Runtime(platform, state, faults=faults)
        rt.state.place(1, "f0")
        plan = StagingPlan(sources={("f0", 0): PlannedSource("replica", 1)})
        port = rt.node_tl[0]
        port.reserve(0.0, 0.25)
        with port_walks(port, {0.5, 1.0, 2.0}) as walks:
            counted_searches(rt, c, 0, plan)
            tent, _calls = counted_searches(rt, task, 0, plan)
        assert walks == [
            (0.5, 0.0), (1.0, 0.0), (2.0, 0.0), (2.0, 0.25), (0.5, 0.25),
        ]
        assert tent.transfers == [
            ("f1", "remote", None, 0.25, 1.0), ("f0", "remote", None, 1.25, 0.5),
        ]
        assert (rt.head_walks, rt.head_resumes) == (5, 2)

    def test_searches_start_at_the_head_not_at_an_earlier_slot(self):
        # The joint-search counterexample of test_gantt.py's TestJointWalk,
        # on a runtime (2 MB at 105 MB/s). In round 1, fa's common slot is
        # 0.4255238095238095 and fb's replica wins; its transfer on the
        # port moves fa's common slot one ulp earlier in round 2. A search
        # resumed from round 1's slot would stage fa one ulp late.
        platform = Platform(
            compute_nodes=(ComputeNode(0), ComputeNode(1)),
            storage_nodes=(StorageNode(0, disk_bw=105.0),),
            storage_network_bw=1000.0,
            compute_network_bw=105.0,
        )
        files = {f: FileInfo(f, 2.0, 0) for f in ("fa", "fb")}
        task = Task("t0", ("fa", "fb"), 1.0)
        rt = Runtime(platform, ClusterState.initial(platform, Batch([task], files)))
        rt.state.place(1, "fb")
        rt.clock = 0.19047619047619047
        rt.node_tl[0].reserve(rt.clock, 0.40647619047619044 - rt.clock)
        for start, end in [
            (0.38742857142857146, 0.4064761904761905),
            (0.4064761904761905, 0.4255238095238095),
            (0.44457142857142856, 0.4636190476190476),
        ]:
            rt.storage_tl[0].reserve(start, end - start)
        d = 2.0 / 105.0
        tent, calls = counted_searches(rt, task, 0)
        assert tent.transfers == [
            ("fb", "replica", 1, 0.40647619047619044, d),
            ("fa", "remote", None, 0.42552380952380947, d),
        ]
        assert calls == [
            (("compute0", "storage0"), d, 0.40647619047619044),
            (("compute0", "compute1"), d, 0.40647619047619044),
            (("compute0", "storage0"), d, 0.42552380952380947),
        ]


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
    """Transfers and executions must last longer than ``3 * _EPS``: over
    ``2 * _EPS``, as the walk's lemmas need, with a margin of ``_EPS``."""

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

    def test_transfer_inside_the_margin_rejected(self):
        # 2.5e-7 MB at 100 MB/s lasts 2.5 * _EPS: over 2 * _EPS, not over
        # the floor.
        rt, task = one_task_runtime(size_mb=2.5e-7, compute_s=1.0)
        with pytest.raises(ValueError, match="transfers must last"):
            rt.evaluate(task, 0)

    def test_execution_inside_the_margin_rejected(self):
        # A resident 1e-12 MB input and 2.5e-9 s of CPU: about 2.5 * _EPS.
        rt, task = one_task_runtime(size_mb=1e-12, compute_s=2.5e-9)
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
        # give 63 candidate pairs over 16 searches; 24 copy an earlier pair
        # of their search (on the same node, or on another blank one), and
        # of the other 39, no tied candidate shares a shape and the bound
        # order skips 16. The first commits make 9 of the evaluations.
        counters = golden_run(telemetry_on=True).telemetry["counters"]
        assert counters["runtime/candidates"] == 63.0
        assert counters["runtime/duplicates"] == 24.0
        assert counters["runtime/shape_skips"] == 0.0
        assert counters["runtime/evaluations"] == 23.0
        assert counters["runtime/first_evaluations"] == 9.0
        # One common-slot search per distinct (timelines, duration, start)
        # query per min-TCT round of every evaluation, each starting at the
        # destination port's slot; the round's repeats reuse its answer,
        # and sources whose port slot cannot beat the round's best are
        # skipped. Each of the 1 998 costed sources is one of the three.
        assert counters["runtime/slot_searches"] == 569.0
        assert counters["runtime/slot_reuses"] == 288.0
        assert counters["runtime/slot_skips"] == 1141.0
        # One port walk per distinct (duration, not_before) per round heads
        # those sources; all but the first of each key per sub-batch on a
        # node start from the last head found for it.
        assert counters["runtime/head_walks"] == 1073.0
        assert counters["runtime/head_resumes"] == 974.0

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
