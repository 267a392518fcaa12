#!/usr/bin/env python
"""Check that two source trees make the same scheduling decisions.

Usage, from the repository root::

    python3 benchmarks/compare_decisions.py --base ../parent --change . \\
        --workload disk --seed 1
    python3 benchmarks/compare_decisions.py --base ../parent --change . \\
        --fig6b 400 16 --repeat 5

Each tree is a checkout of this repository. For each tree, a fresh
interpreter with ``PYTHONHASHSEED=0`` (as perfbench pins it) imports
``repro`` from the tree's ``src/`` and builds the perfbench workload's jobs
from the seed with the tree's own ``perfbench/bench_workloads.py``. With
``--fig6b N C`` the jobs are instead two whole batches at Fig. 6(b) scale,
``generate_image_batch(N, "high", 8, seed=0)`` on ``osc_xio(C, 8)`` with
``candidate_limit=25``: first under MinMin, then under BiPartition. It
then runs every job once and records every batch the job ran: each
``TaskRecord`` in commit order, the batch's ``TransferStats`` and fault
statistics, its ``timeseries`` block and its audit's ``[checked_events,
violations]`` (both ``None`` unless the job runs with them, as the
``stream`` jobs do), and for an online session also each job record and
the session's totals. Floats are compared exactly, so a difference in the
last bit counts.

A ``--fig6b`` run also prints, for each tree and job, the job's time and
its ``scheduling_seconds`` and the runtime's work counters, which are not
compared. Both times are at nominal machine speed: perfbench's reference
loop (``perfbench/bench_calib.py``) runs just before and just after each
job, each time after a full garbage collection, and the times are scaled
by its nominal over its measured time, so drift in the speed of a shared
machine cancels. Without the collection, the loop after a job could set
off a collection of the whole heap the job left, in one tree and not the
other. ``--repeat K`` runs the
two trees K times, alternating, compares the decisions of the first run
of each, and prints each tree's median times and the change's time over
the base's for each pair of runs.

The report goes to standard output. The exit status is 0 when every job
matches, 1 when any differs and 2 when a tree cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

#: Differences printed per job; the rest are counted.
SHOWN_PER_JOB = 5

# Runs in the tree under test: prints one JSON line per job, each the list
# of the batches that job ran, and its result's own fields. Its arguments
# are the tree's src and perfbench directories, then the workload and the
# seed, or "fig6b", N and C.
_CHILD = r"""
import dataclasses, gc, json, sys, time
src, perfbench, *job_args = sys.argv[1:]
sys.path[:0] = [src, perfbench]
import repro
from pathlib import Path
if Path(repro.__file__).resolve().parent != Path(src).resolve() / "repro":
    sys.exit(f"repro imported from {repro.__file__}, not {src}")
import bench_calib
import bench_workloads
from repro.core import driver
from repro.online import session

def fields(obj):
    if obj is None:
        return None
    return {f.name: repr(getattr(obj, f.name)) for f in dataclasses.fields(obj)}

def batch(result):
    return {
        "records": [
            [r.task_id, r.node, repr(r.transfers_done), repr(r.exec_start),
             repr(r.completion)]
            for sb in result.sub_batches
            for r in sb.execution.records
        ],
        "failed_tasks": [
            t for sb in result.sub_batches for t in sb.execution.failed_tasks
        ],
        "makespan": repr(result.makespan),
        "stats": fields(result.stats),
        "fault_stats": fields(result.fault_stats),
        "timeseries": result.timeseries,
        "audit": None if result.audit_report is None else [
            result.audit_report.checked_events,
            [str(v) for v in result.audit_report.violations],
        ],
    }

batches = []
def capturing(run_batch):
    def run(*args, **kwargs):
        result = run_batch(*args, **kwargs)
        batches.append(batch(result))
        return result
    return run
# bench_workloads looks driver.run_batch up at call time; the online
# session holds its own reference.
driver.run_batch = capturing(driver.run_batch)
session.run_batch = capturing(session.run_batch)

if job_args[0] == "fig6b":
    from repro.cluster.platform import osc_xio
    from repro.workloads import generate_image_batch
    n, c = map(int, job_args[1:])
    images = generate_image_batch(n, "high", 8, seed=0)
    platform = osc_xio(num_compute=c, num_storage=8)
    jobs = [
        lambda scheme=scheme: driver.run_batch(
            images, platform, scheme, candidate_limit=25
        )
        for scheme in ("minmin", "bipartition")
    ]
else:
    workload, seed = job_args
    jobs = [
        lambda job=job: job.run(False)
        for job in bench_workloads.WORKLOADS[workload].build(int(seed))
    ]

def reference():
    # A full collection first: the loop's own allocations must not set off
    # a collection of the job's heap, whose size and generation counts
    # differ from tree to tree and would skew the scale by tens of percent.
    gc.collect()
    return bench_calib.reference()

fig6b = job_args[0] == "fig6b"
for run in jobs:
    batches.clear()
    before = reference() if fig6b else 0.0
    began = time.perf_counter()
    result = run()
    seconds = time.perf_counter() - began
    out = {"batches": list(batches)}
    if hasattr(result, "jobs"):  # an online session's StreamResult
        out["jobs"] = [fields(j) for j in result.jobs]
        out["stats"] = fields(result.stats)
        out["fault_stats"] = fields(result.fault_stats)
    if fig6b:
        # Scale to nominal machine speed, as perfbench does.
        scale = bench_calib.NOMINAL_S / ((before + reference()) / 2)
        rt = result.runtime
        out["work"] = {
            "scheme": result.scheduler,
            "seconds": seconds * scale,
            "scheduling_seconds": result.scheduling_seconds * scale,
        } | {
            name: getattr(rt, name)
            for name in (
                "evaluations", "first_evaluations", "slot_searches", "slot_skips"
            )
            if hasattr(rt, name)
        }
    print(json.dumps(out))
"""


def run_tree(tree: Path, *job_args: object) -> list[Any]:
    """Every job's decisions in ``tree``, in job order: those of a perfbench
    workload and seed, or with ``"fig6b", N, C`` the Fig. 6(b) batch's."""
    src, perfbench = tree / "src", tree / "perfbench"
    if not (src / "repro" / "__init__.py").is_file():
        raise RuntimeError(f"no program source at {src}")
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, str(src), str(perfbench),
         *map(str, job_args)],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    if out.returncode != 0:
        raise RuntimeError(f"{tree}: exit {out.returncode}\n{out.stderr}")
    return [json.loads(line) for line in out.stdout.splitlines()]


def differences(base: Any, change: Any, path: str = "") -> list[str]:
    """Where two decoded JSON values differ, one line per difference."""
    if isinstance(base, dict) and isinstance(change, dict):
        found = []
        for key in sorted(base.keys() | change.keys()):
            if key not in change:
                found.append(f"{path}.{key}: only in base")
            elif key not in base:
                found.append(f"{path}.{key}: only in change")
            else:
                found += differences(base[key], change[key], f"{path}.{key}")
        return found
    if isinstance(base, list) and isinstance(change, list):
        found = []
        for i, (b, c) in enumerate(zip(base, change)):
            found += differences(b, c, f"{path}[{i}]")
        if len(base) != len(change):
            found.append(f"{path}: length {len(base)} in base, {len(change)} in change")
        return found
    return [] if base == change else [f"{path}: {base!r} in base, {change!r} in change"]


def describe(runs: list[dict[str, Any]]) -> str:
    """One ``--fig6b`` job in one tree: its median times over the runs and
    its work counters, which are the same in every run."""
    times = ("scheme", "seconds", "scheduling_seconds")
    seconds = statistics.median(run["seconds"] for run in runs)
    scheduling = statistics.median(run["scheduling_seconds"] for run in runs)
    counters = [f"{k} {v}" for k, v in runs[0].items() if k not in times]
    return ", ".join(
        [f"{runs[0]['scheme']} {seconds:.3f} s (scheduling {scheduling:.4f} s)"]
        + counters
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument(
        "--fig6b", nargs=2, type=int, metavar=("N", "C"),
        help="compare whole-batch MinMin and BiPartition on N Fig. 6(b) "
        "tasks and C compute nodes instead of a perfbench workload",
    )
    parser.add_argument(
        "--repeat", type=int, default=1, metavar="K",
        help="with --fig6b: run the two trees K times, alternating, and "
        "print median times and the ratio of each pair",
    )
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    if args.fig6b is not None:
        if args.workload is not None or args.seed is not None:
            parser.error("--fig6b takes no --workload or --seed")
        job_args = ["fig6b", *args.fig6b]
        name = "fig6b n{}c{}".format(*args.fig6b)
    elif args.workload is None or args.seed is None:
        parser.error("give --workload and --seed, or --fig6b N C")
    elif args.repeat != 1:
        parser.error("--repeat needs --fig6b")
    else:
        job_args = [args.workload, args.seed]
        name = f"{args.workload} seed {args.seed}"

    trees = {"base": args.base.resolve(), "change": args.change.resolve()}
    runs: dict[str, list[list[Any]]] = {"base": [], "change": []}
    try:
        for _ in range(args.repeat):
            for side, tree in trees.items():
                runs[side].append(run_tree(tree, *job_args))
    except RuntimeError as exc:
        print(f"compare_decisions: {exc}")
        return 2
    # Each job's "work" is its times and counters (--fig6b only): the
    # decisions of the first run of each tree are what is compared.
    work = {
        side: [[job.pop("work", None) for job in run] for run in side_runs]
        for side, side_runs in runs.items()
    }
    if args.fig6b is not None:
        for side, side_work in work.items():
            print(f"{side}: " + "; ".join(map(describe, zip(*side_work))))
        if args.repeat > 1:
            for base_runs, change_runs in zip(zip(*work["base"]), zip(*work["change"])):
                ratios = [
                    c["seconds"] / b["seconds"] for b, c in zip(base_runs, change_runs)
                ]
                print(
                    f"{base_runs[0]['scheme']}: change over base per pair "
                    + " ".join(f"{r:.3f}" for r in ratios)
                    + f" (median {statistics.median(ratios):.3f})"
                )
    base, change = runs["base"][0], runs["change"][0]
    differing = 0
    for i, (b, c) in enumerate(zip(base, change)):
        found = differences(b, c, f"job[{i}]")
        if found:
            differing += 1
            for line in found[:SHOWN_PER_JOB]:
                print(line)
            if len(found) > SHOWN_PER_JOB:
                print(f"job[{i}]: {len(found) - SHOWN_PER_JOB} more differences")
    if len(base) != len(change):
        print(f"{len(base)} jobs in base, {len(change)} in change")
        differing += 1
    tasks = sum(len(b["records"]) for job in base for b in job["batches"])
    verdict = "identical" if not differing else f"{differing} differ"
    print(f"{name}: {len(base)} jobs, {tasks} task records: {verdict}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
