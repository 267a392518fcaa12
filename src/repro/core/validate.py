"""Structural validation of sub-batch plans against the paper's constraints.

:func:`validate_plan` checks a :class:`~repro.core.plan.SubBatchPlan`
against the model of Sections 2 and 4, reporting every violation with an
explanation. It is a test oracle, not a driver stage: the tests call it on
one plan per scheduler (each scheme's first sub-batch of a fixed synthetic
batch) and on hand-built plans. The driver never calls it; its own guards
are the not-pending check in :func:`~repro.core.driver.run_batch`, the
over-capacity check in ``_pre_evict`` and the node check in
:meth:`~repro.cluster.runtime.Runtime.execute`.

Checked invariants:

V1. every selected task is mapped to a valid compute node;
V2. no task outside the sub-batch is mapped;
V3. per-node disk capacity covers the files the node must hold (Eq. 16/21),
    and every mapped task's files exist in the batch catalog (an unknown
    file cannot be counted, so it is a violation, not a silent skip);
V4. staging sources reference valid nodes and files;
V5. a replica source either already holds the file or receives it through
    a *realisable* chain of planned transfers (Eq. 1, transitively) — a
    chain is realisable only when it terminates in a current holder, a
    remote transfer or a push, so circular replication (A sources B while
    B sources A) is flagged;
V6. no (file, destination) pair has both a remote transfer and a
    replication (Eq. 5 — one planned source per destination);
V7. planned pushes target valid nodes and known files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..batch import Batch
from ..cluster.platform import Platform
from ..cluster.runtime import PlannedSource
from ..cluster.state import ClusterState
from .plan import SubBatchPlan

__all__ = ["Violation", "ValidationReport", "validate_plan"]


@dataclass(frozen=True)
class Violation:
    """One broken invariant."""

    code: str
    message: str

    def __str__(self) -> str:
        return f"[{self.code}] {self.message}"


@dataclass
class ValidationReport:
    """All violations found in a plan (empty = valid)."""

    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, code: str, message: str) -> None:
        self.violations.append(Violation(code, message))

    def raise_if_invalid(self) -> None:
        if not self.ok:
            summary = "; ".join(str(v) for v in self.violations[:5])
            raise ValueError(
                f"invalid sub-batch plan ({len(self.violations)} violations): "
                f"{summary}"
            )

    def __str__(self) -> str:
        return "\n".join(str(v) for v in self.violations) or "OK"


def validate_plan(
    plan: SubBatchPlan,
    batch: Batch,
    platform: Platform,
    state: ClusterState | None = None,
) -> ValidationReport:
    """Check ``plan`` against the scheduling model; returns a report.

    ``state`` enables the placement-aware checks (V5 considers files
    already cached on compute nodes); without it those checks assume an
    empty compute cluster.
    """
    report = ValidationReport()
    c = platform.num_compute
    selected = set(plan.task_ids)

    # V1 / V2 — mapping domain and range.
    for t in plan.task_ids:
        node = plan.mapping.get(t)
        if node is None:
            report.add("V1", f"task {t} has no node assignment")
        elif not 0 <= node < c:
            report.add("V1", f"task {t} mapped to invalid node {node}")
        try:
            batch.task(t)
        except KeyError:
            report.add("V1", f"task {t} is not in the batch")
    for t in plan.mapping:
        if t not in selected:
            report.add("V2", f"mapping contains unselected task {t}")

    # V3 — per-node disk capacity.
    needed: dict[int, set[str]] = {}
    for t in plan.task_ids:
        node = plan.mapping.get(t)
        if node is None or not 0 <= node < c:
            continue
        try:
            files = batch.task(t).files
        except KeyError:
            continue
        for f in files:
            if f not in batch.files:
                report.add(
                    "V3",
                    f"task {t} references file {f} absent from the batch "
                    f"catalog, so node {node}'s disk demand is unknowable",
                )
        needed.setdefault(node, set()).update(files)
    if plan.staging is not None:
        for f, node in plan.staging.pushes:
            if 0 <= node < c:
                needed.setdefault(node, set()).add(f)
    for node, files in needed.items():
        cap = platform.compute_nodes[node].disk_space_mb
        if math.isinf(cap):
            continue
        total = sum(batch.file_size(f) for f in files if f in batch.files)
        if total > cap + 1e-6:
            report.add(
                "V3",
                f"node {node} must hold {total:.0f} MB but has "
                f"{cap:.0f} MB of disk",
            )

    if plan.staging is None:
        return report

    # V4 / V6 — staging source sanity.
    for (f, dest), src in plan.staging.sources.items():
        if f not in batch.files:
            report.add("V4", f"staging references unknown file {f}")
            continue
        if not 0 <= dest < c:
            report.add("V4", f"staging of {f} targets invalid node {dest}")
            continue
        if src.kind == "replica":
            if src.source_node is None or not 0 <= src.source_node < c:
                report.add(
                    "V4", f"replica of {f} to {dest} has invalid source"
                )
            elif src.source_node == dest:
                report.add(
                    "V4", f"replica of {f} to {dest} sources from itself"
                )

    # V5 — replica sources are satisfiable. A destination is *satisfied*
    # when it already holds the file, receives it from the storage cluster
    # (remote) or a push, or replicates from an already-satisfied node; the
    # fixpoint rejects circular chains (A sources B, B sources A) that a
    # one-step "is it some planned destination?" check would accept.
    sources_of: dict[str, dict[int, PlannedSource]] = {}
    for (f, dest), src in plan.staging.sources.items():
        if f in batch.files and 0 <= dest < c:
            sources_of.setdefault(f, {})[dest] = src
    push_targets: dict[str, set[int]] = {}
    for f, node in plan.staging.pushes:
        if 0 <= node < c:
            push_targets.setdefault(f, set()).add(node)
    for f, dests in sources_of.items():
        satisfied = {d for d, s in dests.items() if s.kind == "remote"}
        satisfied |= push_targets.get(f, set())
        if state is not None:
            satisfied |= {n for n in range(c) if state.has_file(n, f)}
        changed = True
        while changed:
            changed = False
            for d, s in dests.items():
                if (
                    d not in satisfied
                    and s.kind == "replica"
                    and s.source_node in satisfied
                ):
                    satisfied.add(d)
                    changed = True
        for d, s in dests.items():
            if (
                s.kind == "replica"
                and s.source_node is not None
                and 0 <= s.source_node < c
                and s.source_node != d
                and d not in satisfied
            ):
                report.add(
                    "V5",
                    f"replica of {f} to node {d} sources node "
                    f"{s.source_node}, which neither holds the file nor "
                    "receives it through a realisable chain (circular or "
                    "unsatisfiable replication)",
                )

    # V7 — pushes.
    for f, node in plan.staging.pushes:
        if f not in batch.files:
            report.add("V7", f"push references unknown file {f}")
        if not 0 <= node < c:
            report.add("V7", f"push of {f} targets invalid node {node}")

    return report
