"""0-1 Integer Programming scheduler (Section 4 of the paper).

Couples task scheduling and file replication in one exact model. Two modes:

* **Unlimited disk cache** (Section 4.1): one 0-1 IP over the whole pending
  set decides task placement ``T``, file placement ``X``, remote transfers
  ``R`` and compute-to-compute replications ``Y``, minimising the makespan
  (Eqs. 1–13). Used when every compute node's disk is unbounded.
* **Limited disk cache** (Section 4.2): a two-stage solution. Stage one
  selects a maximal, load-balanceable sub-batch whose files fit the disks
  (Eqs. 14–20); stage two re-runs the 4.1 model on the sub-batch with the
  per-node disk-space constraint (Eq. 21) and with credit for the file
  copies already created by earlier sub-batches.

The extracted plan fixes, for every (file, destination) pair, whether the
file arrives by remote transfer or by replication from a specific node; file
placements not demanded by any local task (relay copies) become proactive
pushes. The Section 6 runtime realises the plan on the Gantt charts.

Solvers are pluggable (:mod:`repro.mip`); HiGHS with a time limit is the
default, matching the paper's use of ``lp_solve`` with the caveat that the
IP scheme "has significant scheduling overhead" and is only practical for
small workloads. When the solver fails to produce any incumbent in time, a
greedy fallback keeps the driver making progress.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from ..batch import Batch, Task
from ..cluster.platform import Platform
from ..cluster.runtime import PlannedSource, StagingPlan
from ..cluster.state import ClusterState
from ..mip import LinExpr, Model, Sense, Solution, get_solver
from .base import Scheduler, register_scheduler
from .plan import SubBatchPlan

__all__ = ["IPScheduler"]

#: ``Thresh`` of Eq. 18: the allowed relative deviation of any node's
#: compute load from the mean in sub-batch selection.
_BALANCE_THRESHOLD = 0.5


@dataclass
class _IpInstance:
    """Bookkeeping for one solved allocation model."""

    model: Model
    tvars: dict[tuple[str, int], object]
    xvars: dict[tuple[str, int], object]
    rvars: dict[tuple[str, int], object]
    yvars: dict[tuple[int, int, str], object]


@register_scheduler("ip")
class IPScheduler(Scheduler):
    """The coupled scheduling + replication IP of Section 4.

    Parameters
    ----------
    solver:
        Backend name for :func:`repro.mip.get_solver`.
    time_limit:
        Wall-clock budget per solve (seconds). The allocation IP stops at
        the incumbent when exceeded.
    mip_rel_gap:
        Relative optimality gap accepted by the allocation solve; the paper
        needs exact answers only for tiny instances, and a small gap keeps
        the (already large) scheduling overhead bounded.
    """

    def __init__(
        self,
        seed: int = 0,
        solver: str = "highs",
        time_limit: float | None = 60.0,
        mip_rel_gap: float = 0.02,
    ) -> None:
        super().__init__(seed)
        self.solver_name = solver
        self.time_limit = time_limit
        self.mip_rel_gap = mip_rel_gap
        self.last_solution: Solution | None = None

    # -- helpers ---------------------------------------------------------------
    def _solver(self, time_limit: float | None) -> Any:
        opts: dict[str, Any] = {}
        if self.solver_name == "highs":
            opts["mip_rel_gap"] = self.mip_rel_gap
            opts["time_limit"] = time_limit
        elif time_limit is not None:
            opts["time_limit"] = time_limit
        return get_solver(self.solver_name, **opts)

    @staticmethod
    def _unlimited(platform: Platform) -> bool:
        return all(math.isinf(n.disk_space_mb) for n in platform.compute_nodes)

    # -- public entry ----------------------------------------------------------------
    def next_subbatch(
        self,
        batch: Batch,
        pending: list[str],
        platform: Platform,
        state: ClusterState,
    ) -> SubBatchPlan:
        tasks = [batch.task(t) for t in pending]
        if self._unlimited(platform):
            selected = tasks
        else:
            selected = self._select_subbatch(batch, tasks, platform, state)
        return self._allocate(batch, selected, platform, state)

    # -- stage one: sub-batch selection (Eqs. 14-20) ------------------------------------
    def _select_subbatch(
        self,
        batch: Batch,
        tasks: list[Task],
        platform: Platform,
        state: ClusterState,
    ) -> list[Task]:
        c = platform.num_compute
        files = sorted({f for t in tasks for f in t.files})
        m = Model("subbatch-selection", Sense.MAXIMIZE)

        tvar = {
            (t.task_id, i): m.binary_var(f"T[{t.task_id},{i}]")
            for t in tasks
            for i in range(c)
        }
        xvar = {
            (f, i): m.binary_var(f"X[{f},{i}]")
            for f in files
            for i in range(c)
        }

        # Fault injection: crashed nodes take no tasks and hold no files.
        # Without faults ``dead_nodes`` is empty and the model is untouched.
        if state.dead_nodes:
            for (_, i), var in (*tvar.items(), *xvar.items()):
                if i in state.dead_nodes:
                    m.add_constr(var <= 0)

        # Eq. 15: allocating a task stages all its files on the node.
        for t in tasks:
            for i in range(c):
                for f in t.files:
                    m.add_constr(tvar[(t.task_id, i)] <= xvar[(f, i)])
        # Eq. 16: per-node disk capacity (as shrunk by disk losses).
        for i in range(c):
            cap = state.caches[i].capacity_mb
            usage = LinExpr.from_terms(
                (xvar[(f, i)], batch.file_size(f)) for f in files
            )
            m.add_constr(usage <= cap, name=f"disk[{i}]")
        # Eq. 17: a task is allocated to at most one node.
        for t in tasks:
            m.add_constr(
                LinExpr.from_terms(
                    (tvar[(t.task_id, i)], 1.0) for i in range(c)
                )
                <= 1,
                name=f"once[{t.task_id}]",
            )
        # Eqs. 18-20: compute load within (1 + Thresh) of the average.
        comp = [
            LinExpr.from_terms(
                (tvar[(t.task_id, i)], t.compute_time) for t in tasks
            )
            for i in range(c)
        ]
        total = LinExpr.from_terms(
            ((tvar[(t.task_id, i)], t.compute_time) for t in tasks for i in range(c))
        )
        for i in range(c):
            m.add_constr(
                comp[i] * c <= total * (1.0 + _BALANCE_THRESHOLD),
                name=f"balance[{i}]",
            )
        # Eq. 14: maximise the number of allocated tasks.
        m.set_objective(
            LinExpr.from_terms(
                (tvar[(t.task_id, i)], 1.0) for t in tasks for i in range(c)
            )
        )

        sol = self._solver(self.time_limit).solve(m)
        self.last_solution = sol
        if not sol.status.has_solution:
            return self._greedy_subbatch(batch, tasks, platform, state)
        chosen = [
            t
            for t in tasks
            if any(sol.value(tvar[(t.task_id, i)]) > 0.5 for i in range(c))
        ]
        if not chosen:
            # Balance constraints can zero out tiny instances; fall back so
            # the driver always makes progress.
            return self._greedy_subbatch(batch, tasks, platform, state)
        return chosen

    def _greedy_subbatch(
        self,
        batch: Batch,
        tasks: list[Task],
        platform: Platform,
        state: ClusterState,
    ) -> list[Task]:
        """Capacity-only fallback: pack tasks by increasing footprint."""
        budget = float(sum(state.caches[n].capacity_mb for n in state.alive_nodes()))
        chosen: list[Task] = []
        used: set[str] = set()
        used_mb = 0.0
        for t in sorted(tasks, key=lambda t: batch.task_input_mb(t)):
            extra = sum(
                batch.file_size(f) for f in t.files if f not in used
            )
            if chosen and used_mb + extra > budget:
                continue
            chosen.append(t)
            used.update(t.files)
            used_mb += extra
        return chosen

    # -- stage two: allocation (Eqs. 1-13 + 21) -------------------------------------------
    def _allocate(
        self,
        batch: Batch,
        tasks: list[Task],
        platform: Platform,
        state: ClusterState,
    ) -> SubBatchPlan:
        c = platform.num_compute
        files = sorted({f for t in tasks for f in t.files})
        require: dict[str, list[str]] = {f: [] for f in files}
        for t in tasks:
            for f in t.files:
                require[f].append(t.task_id)
        present = {
            (f, i): state.has_file(i, f) for f in files for i in range(c)
        }

        m = Model("allocation", Sense.MINIMIZE)
        tvar = {
            (t.task_id, i): m.binary_var(f"T[{t.task_id},{i}]")
            for t in tasks
            for i in range(c)
        }
        xvar = {(f, i): m.binary_var(f"X[{f},{i}]") for f in files for i in range(c)}
        rvar = {(f, i): m.binary_var(f"R[{f},{i}]") for f in files for i in range(c)}
        yvar = {
            (i, j, f): m.binary_var(f"Y[{i},{j},{f}]")
            for f in files
            for i in range(c)
            for j in range(c)
            if i != j
        }

        # Fault injection: pin every decision touching a crashed node to
        # zero. No constraints are added when nothing has crashed.
        if state.dead_nodes:
            for (_, i), var in (*tvar.items(), *xvar.items(), *rvar.items()):
                if i in state.dead_nodes:
                    m.add_constr(var <= 0)
            for (i, j, _), var in yvar.items():
                if i in state.dead_nodes or j in state.dead_nodes:
                    m.add_constr(var <= 0)

        # Pre-built demand expressions for Eq. 2: does any task needing f
        # land on node j?
        demand = {
            (f, j): LinExpr.from_terms((tvar[(k, j)], 1.0) for k in require[f])
            for f in files
            for j in range(c)
        }
        for f in files:
            for i in range(c):
                for j in range(c):
                    if i == j:
                        continue
                    # Eq. 1: replicate only what you have.
                    m.add_constr(yvar[(i, j, f)] <= xvar[(f, i)])
                    # Eq. 2: replicate only to nodes that need it.
                    m.add_constr(yvar[(i, j, f)] <= demand[(f, j)])
                inbound = LinExpr.from_terms(
                    (yvar[(j, i, f)], 1.0) for j in range(c) if j != i
                )
                # Eq. 3: at most one replication into (i, f).
                m.add_constr(inbound <= 1)
                # Eq. 4 with presence credit: a placement is backed by a
                # pre-existing copy, a remote transfer or a replication.
                # (Inequality rather than the paper's equality so a stale
                # pre-existing copy may be dropped to free disk space.)
                pre = 1.0 if present[(f, i)] else 0.0
                m.add_constr(xvar[(f, i)] <= pre + rvar[(f, i)] + inbound)
                # Eq. 5: not both remote transfer and replication (and
                # nothing at all when the file is already present).
                m.add_constr(rvar[(f, i)] + inbound <= 1 - pre)

        # Eq. 6: every task on exactly one node.
        for t in tasks:
            m.add_constr(
                sum(tvar[(t.task_id, i)] for i in range(c)) == 1,
                name=f"assign[{t.task_id}]",
            )
        # Eq. 7: a task's node holds all its files.
        for t in tasks:
            for i in range(c):
                for f in t.files:
                    m.add_constr(tvar[(t.task_id, i)] <= xvar[(f, i)])
        # Eq. 8: every referenced file is fetched remotely at least once,
        # unless the compute cluster already holds a copy.
        for f in files:
            if not any(present[(f, i)] for i in range(c)):
                m.add_constr(
                    sum(rvar[(f, i)] for i in range(c)) >= 1,
                    name=f"fetch[{f}]",
                )
        # Eq. 21: per-node disk capacity (limited case only; as shrunk by
        # disk losses).
        for i in range(c):
            cap = state.caches[i].capacity_mb
            if math.isinf(cap):
                continue
            usage = sum(xvar[(f, i)] * batch.file_size(f) for f in files)
            m.add_constr(usage <= cap, name=f"disk[{i}]")

        # Eqs. 9-13: makespan objective.
        t_rep = 1.0 / platform.replication_bandwidth
        makespan = m.continuous_var("makespan", lb=0.0)
        for i in range(c):
            terms: list[tuple[object, float]] = []
            for f in files:
                size = batch.file_size(f)
                t_rem = 1.0 / platform.remote_bandwidth(
                    batch.file(f).storage_node
                )
                terms.append((rvar[(f, i)], t_rem * size))
                for j in range(c):
                    if j == i:
                        continue
                    cost = t_rep * size
                    terms.append((yvar[(j, i, f)], cost))  # inbound
                    terms.append((yvar[(i, j, f)], cost))  # outbound
            for t in tasks:
                # Computation (at the node's speed) plus the local read the
                # runtime charges.
                read = sum(
                    platform.local_read_time(i, batch.file_size(f))
                    for f in t.files
                )
                cost = platform.task_compute_time(i, t.compute_time) + read
                terms.append((tvar[(t.task_id, i)], cost))
            exec_i = LinExpr.from_terms(terms)
            m.add_constr(exec_i <= makespan, name=f"makespan[{i}]")
        m.set_objective(makespan)

        sol = self._solver(self.time_limit).solve(m)
        self.last_solution = sol
        if not sol.status.has_solution:
            return self._greedy_allocation(batch, tasks, platform, state)
        return self._extract_plan(
            sol, tasks, files, c,
            _IpInstance(m, tvar, xvar, rvar, yvar),
            require,
        )

    def _extract_plan(
        self,
        sol: Solution,
        tasks: list[Task],
        files: list[str],
        c: int,
        inst: _IpInstance,
        require: dict[str, list[str]],
    ) -> SubBatchPlan:
        mapping: dict[str, int] = {}
        for t in tasks:
            for i in range(c):
                if sol.value(inst.tvars[(t.task_id, i)]) > 0.5:
                    mapping[t.task_id] = i
                    break
        plan = StagingPlan()
        needed_on: dict[int, set[str]] = {i: set() for i in range(c)}
        for t in tasks:
            needed_on[mapping[t.task_id]].update(t.files)
        for f in files:
            for i in range(c):
                # Eq. 4 is an inequality and Eq. 21 budgets only X, so a
                # transfer into a node without a placement is never
                # budgeted: plan none.
                if sol.value(inst.xvars[(f, i)]) <= 0.5:
                    continue
                src: PlannedSource | None = None
                if sol.value(inst.rvars[(f, i)]) > 0.5:
                    src = PlannedSource("remote")
                else:
                    for j in range(c):
                        if j != i and sol.value(inst.yvars[(j, i, f)]) > 0.5:
                            src = PlannedSource("replica", source_node=j)
                            break
                if src is None:
                    continue
                plan.sources[(f, i)] = src
                if f not in needed_on[i]:
                    # Relay copy: no local task pulls it in; push it.
                    plan.pushes.append((f, i))
        return SubBatchPlan(
            task_ids=[t.task_id for t in tasks], mapping=mapping, staging=plan
        )

    def _greedy_allocation(
        self,
        batch: Batch,
        tasks: list[Task],
        platform: Platform,
        state: ClusterState,
    ) -> SubBatchPlan:
        """Load-balancing fallback when the solver yields no incumbent."""
        nodes = state.alive_nodes()
        if not nodes:
            raise RuntimeError("no surviving compute nodes to schedule on")
        load = {i: 0.0 for i in nodes}
        mapping: dict[str, int] = {}
        for t in sorted(tasks, key=lambda t: -t.compute_time):
            i = min(nodes, key=lambda i: load[i])
            mapping[t.task_id] = i
            load[i] += t.compute_time + batch.task_input_mb(t) / 100.0
        return SubBatchPlan(
            task_ids=[t.task_id for t in tasks], mapping=mapping, staging=None
        )
