"""A from-scratch 0-1/integer branch-and-bound MILP solver.

This backend needs no MILP solver: every model is presolved
(:mod:`repro.mip.presolve`), LP relaxations are solved with
``scipy.optimize.linprog`` (its HiGHS LP method) and integrality is enforced
by best-bound branch and bound with most-fractional branching. It is intended
for the small IP instances the paper can realistically solve (Section 7 shows
the IP scheme is only practical at small scale anyway) and as an independent
check on the HiGHS backend — both must agree on optimal objectives.

Algorithm
---------
* Node relaxation: the model's LP relaxation with tightened variable bounds
  accumulated along the branching path.
* Bounding: a node is pruned when its relaxation objective cannot beat the
  incumbent (within ``_ABS_TOL``).
* Branching: the integer variable whose relaxation value is closest to 0.5
  fractional part ("most fractional").
* Search order: best-bound first via a heap, which keeps the proven gap
  monotone and lets early termination report a meaningful gap.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time

import numpy as np
from scipy import optimize, sparse

from ..analysis.dims import Seconds
from ..obs.core import telemetry
from .highs import record_solve
from .model import Model, StandardForm
from .presolve import presolve
from .solution import Solution, Status

__all__ = ["BranchBoundSolver", "solve_with_branch_bound"]

_INT_TOL = 1e-6
#: Absolute objective tolerance used for pruning and optimality claims.
_ABS_TOL = 1e-6


class _Node:
    """A branch-and-bound node: per-variable bound overrides plus its LP bound."""

    __slots__ = ("bound", "col_lb", "col_ub", "depth")

    def __init__(self, bound: float, col_lb: np.ndarray, col_ub: np.ndarray, depth: int):
        self.bound = bound
        self.col_lb = col_lb
        self.col_ub = col_ub
        self.depth = depth


class BranchBoundSolver:
    """Exact MILP solver via LP-relaxation branch and bound.

    Parameters
    ----------
    node_limit:
        Maximum number of explored nodes before stopping with the incumbent
        (``Status.FEASIBLE``) or ``Status.ERROR`` when none exists.
    time_limit:
        Wall clock budget in seconds.
    """

    name = "branch-bound"

    def __init__(
        self,
        node_limit: int = 200_000,
        time_limit: Seconds | None = None,
    ):
        self.node_limit = node_limit
        self.time_limit = time_limit

    # -- LP relaxation ---------------------------------------------------------
    @staticmethod
    def _build_matrix(sf: StandardForm):
        """Split two-sided rows into A_ub x <= b_ub and A_eq x = b_eq triplets."""
        ub_rows, ub_b = [], []
        eq_rows, eq_b = [], []
        for row, lo, hi in zip(sf.a_rows, sf.row_lb, sf.row_ub, strict=True):
            if lo == hi:
                eq_rows.append(row)
                eq_b.append(lo)
                continue
            if hi != math.inf:
                ub_rows.append(row)
                ub_b.append(hi)
            if lo != -math.inf:
                ub_rows.append({i: -c for i, c in row.items()})
                ub_b.append(-lo)

        def to_csr(rows):
            if not rows:
                return None
            r_idx, c_idx, vals = [], [], []
            for r, row in enumerate(rows):
                for cidx, coef in row.items():
                    r_idx.append(r)
                    c_idx.append(cidx)
                    vals.append(coef)
            return sparse.csr_matrix(
                (vals, (r_idx, c_idx)), shape=(len(rows), sf.num_vars)
            )

        return to_csr(ub_rows), np.array(ub_b), to_csr(eq_rows), np.array(eq_b)

    @staticmethod
    def _round_candidate(model, sf, x, int_cols):
        """Round the relaxation solution; return (objective, x) if feasible.

        The continuous variables are kept as-is; only integer columns are
        snapped. Feasibility is verified against the *original* model, so
        a rounded point can never be accepted wrongly.
        """
        candidate = x.copy()
        candidate[int_cols] = np.round(candidate[int_cols])
        candidate = np.clip(candidate, sf.col_lb, sf.col_ub)
        if model.is_feasible(candidate.tolist()):
            return float(sf.c @ candidate), candidate
        return None

    def _solve_relaxation(self, sf, a_ub, b_ub, a_eq, b_eq, col_lb, col_ub):
        res = optimize.linprog(
            c=sf.c,
            A_ub=a_ub,
            b_ub=b_ub if a_ub is not None else None,
            A_eq=a_eq,
            b_eq=b_eq if a_eq is not None else None,
            bounds=np.column_stack([col_lb, col_ub]),
            method="highs",
        )
        return res

    # -- main loop ---------------------------------------------------------------
    def solve(self, model: Model) -> Solution:
        with telemetry.span("mip-solve"):
            solution = self._solve(model)
        record_solve(self.name, solution)
        return solution

    def _solve(self, model: Model) -> Solution:
        start = time.perf_counter()
        pre = presolve(model)
        if pre.infeasible:
            return Solution(
                status=Status.INFEASIBLE,
                solve_time=time.perf_counter() - start,
                message="presolve proved infeasibility",
            )
        model = pre.model
        sf = model.to_standard_form()
        if sf.num_vars == 0:
            return Solution(
                status=Status.OPTIMAL, objective=sf.objective_constant, values=[]
            )
        a_ub, b_ub, a_eq, b_eq = self._build_matrix(sf)
        int_cols = np.flatnonzero(sf.integrality)

        root = self._solve_relaxation(
            sf, a_ub, b_ub, a_eq, b_eq, sf.col_lb, sf.col_ub
        )
        if root.status == 2:
            return Solution(status=Status.INFEASIBLE, message="root LP infeasible")
        if root.status == 3:
            return Solution(status=Status.UNBOUNDED, message="root LP unbounded")
        if root.status != 0:
            return Solution(status=Status.ERROR, message=str(root.message))

        # Primal rounding heuristic: snap the root relaxation to integers
        # and keep it as the starting incumbent when feasible. Costs one
        # feasibility check and often prunes most of the tree.
        rounded = self._round_candidate(model, sf, root.x, int_cols)

        counter = itertools.count()
        heap: list[tuple[float, int, _Node, np.ndarray]] = []
        heapq.heappush(
            heap,
            (
                root.fun,
                next(counter),
                _Node(root.fun, sf.col_lb.copy(), sf.col_ub.copy(), 0),
                root.x,
            ),
        )

        best_obj = math.inf
        best_x: np.ndarray | None = None
        if rounded is not None:
            best_obj, best_x = rounded
        nodes = 0
        stopped_early = False

        while heap:
            bound, _, node, x = heapq.heappop(heap)
            if bound >= best_obj - _ABS_TOL:
                continue  # cannot improve the incumbent
            nodes += 1
            if nodes > self.node_limit:
                stopped_early = True
                break
            if (
                self.time_limit is not None
                and time.perf_counter() - start > self.time_limit
            ):
                stopped_early = True
                break

            frac = x[int_cols] - np.round(x[int_cols])
            frac_mask = np.abs(frac) > _INT_TOL
            if not frac_mask.any():
                # Integral relaxation solution: new incumbent.
                if bound < best_obj - _ABS_TOL:
                    best_obj = bound
                    best_x = x
                continue

            # Most-fractional branching.
            cand = int_cols[frac_mask]
            pick = cand[np.argmin(np.abs(np.abs(frac[frac_mask]) - 0.5))]
            pivot = x[pick]

            for is_down in (True, False):
                lb = node.col_lb.copy()
                ub = node.col_ub.copy()
                if is_down:
                    ub[pick] = math.floor(pivot)
                else:
                    lb[pick] = math.ceil(pivot)
                if lb[pick] > ub[pick]:
                    continue
                res = self._solve_relaxation(sf, a_ub, b_ub, a_eq, b_eq, lb, ub)
                if res.status != 0:
                    continue  # infeasible child (or numerical failure): prune
                if res.fun >= best_obj - _ABS_TOL:
                    continue
                heapq.heappush(
                    heap,
                    (
                        res.fun,
                        next(counter),
                        _Node(res.fun, lb, ub, node.depth + 1),
                        res.x,
                    ),
                )

        elapsed = time.perf_counter() - start
        if best_x is None:
            if stopped_early:
                return Solution(
                    status=Status.ERROR,
                    nodes_explored=nodes,
                    solve_time=elapsed,
                    message="limit reached before any incumbent was found",
                )
            return Solution(
                status=Status.INFEASIBLE,
                nodes_explored=nodes,
                solve_time=elapsed,
                message="search exhausted with no integral solution",
            )

        # Snap near-integral values so downstream rounding is clean.
        values = best_x.copy()
        values[int_cols] = np.round(values[int_cols])
        remaining_bound = min((entry[0] for entry in heap), default=best_obj)
        gap = max(0.0, best_obj - min(best_obj, remaining_bound))
        objective = sf.sense_mult * best_obj + sf.objective_constant
        return Solution(
            status=Status.FEASIBLE if stopped_early else Status.OPTIMAL,
            objective=objective,
            values=[float(v) for v in values],
            nodes_explored=nodes,
            solve_time=elapsed,
            gap=gap if stopped_early else 0.0,
        )


def solve_with_branch_bound(model: Model, **kwargs) -> Solution:
    """Convenience wrapper: ``BranchBoundSolver(**kwargs).solve(model)``."""
    return BranchBoundSolver(**kwargs).solve(model)
