"""Tests for the MIP presolve pass."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.mip import Model, Sense, Status, presolve, solve


class TestVariableFixing:
    def test_forcing_row_fixes_variables(self):
        # x + y <= 0 with binaries forces both to 0.
        m = Model()
        x = m.binary_var("x")
        y = m.binary_var("y")
        m.add_constr(x + y <= 0)
        res = presolve(m)
        assert not res.infeasible
        assert res.fixed == {"x": 0.0, "y": 0.0}

    def test_lower_forcing(self):
        # x + y >= 2 forces both binaries to 1.
        m = Model()
        x = m.binary_var("x")
        y = m.binary_var("y")
        m.add_constr(x + y >= 2)
        res = presolve(m)
        assert res.fixed == {"x": 1.0, "y": 1.0}

    def test_cascading_fixes(self):
        # z <= x and x <= 0: both end up fixed at 0 after propagation.
        m = Model()
        x = m.binary_var("x")
        z = m.binary_var("z")
        m.add_constr(x <= 0)
        m.add_constr(z <= x)
        res = presolve(m)
        assert res.fixed.get("x") == 0.0
        assert res.fixed.get("z") == 0.0

    def test_integer_rounding(self):
        # 2x <= 5 with x integer tightens to x <= 2.
        m = Model()
        x = m.integer_var("x", lb=0, ub=10)
        m.add_constr(2 * x <= 5)
        res = presolve(m)
        assert res.model.variables[0].ub == 2

    def test_continuous_not_rounded(self):
        m = Model()
        x = m.continuous_var("x", lb=0, ub=10)
        m.add_constr(2 * x <= 5)
        res = presolve(m)
        assert res.model.variables[0].ub == pytest.approx(2.5)


class TestRowHandling:
    def test_redundant_row_removed(self):
        m = Model()
        x = m.binary_var("x")
        y = m.binary_var("y")
        m.add_constr(x + y <= 5)  # always true for binaries
        res = presolve(m)
        assert res.removed_rows == 1
        assert res.model.num_constrs == 0

    def test_binding_row_kept(self):
        m = Model()
        x = m.binary_var("x")
        y = m.binary_var("y")
        m.add_constr(x + y <= 1)
        res = presolve(m)
        assert res.model.num_constrs == 1

    def test_infeasibility_detected(self):
        m = Model()
        x = m.binary_var("x")
        m.add_constr(x >= 2)  # impossible for a binary
        res = presolve(m)
        assert res.infeasible

    def test_conflicting_rows_detected(self):
        m = Model()
        x = m.binary_var("x")
        m.add_constr(x >= 1)
        m.add_constr(x <= 0)
        res = presolve(m)
        assert res.infeasible


class TestSemanticsPreserved:
    def test_objective_preserved(self):
        m = Model(sense=Sense.MAXIMIZE)
        x = m.binary_var("x")
        y = m.binary_var("y")
        m.add_constr(x + y <= 1)
        m.set_objective(3 * x + 2 * y + 1)
        res = presolve(m)
        sol = solve(res.model, "highs")
        assert sol.objective == pytest.approx(4.0)

    def test_paper_eq5_pattern(self):
        # R + Y1 + Y2 <= 1 - 1 (file already present): all zero, and the
        # dependent placement rows become redundant.
        m = Model()
        r = m.binary_var("R")
        y1 = m.binary_var("Y1")
        y2 = m.binary_var("Y2")
        x = m.binary_var("X")
        m.add_constr(r + y1 + y2 <= 0)
        m.add_constr(x <= 1 + r + y1 + y2)  # Eq. 4 with pre=1
        res = presolve(m)
        for name in ("R", "Y1", "Y2"):
            assert res.fixed.get(name) == 0.0
        assert res.model.num_constrs == 0  # both rows resolved

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_models_same_optimum(self, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        m = Model(sense=Sense.MAXIMIZE)
        xs = [m.binary_var(f"x{i}") for i in range(int(rng.integers(2, 6)))]
        for _ in range(int(rng.integers(1, 4))):
            coefs = rng.integers(0, 4, size=len(xs))
            bound = int(rng.integers(0, 8))
            m.add_constr(
                sum(int(c) * x for c, x in zip(coefs, xs)) <= bound
            )
        m.set_objective(
            sum(int(c) * x for c, x in zip(rng.integers(-3, 4, size=len(xs)), xs))
        )
        res = presolve(m)
        direct = solve(m, "highs")
        if res.infeasible:
            assert direct.status is Status.INFEASIBLE
            return
        reduced = solve(res.model, "highs")
        assert reduced.status == direct.status
        if direct.status is Status.OPTIMAL:
            assert reduced.objective == pytest.approx(direct.objective)

    def test_branch_bound_uses_presolve(self):
        m = Model()
        x = m.binary_var("x")
        m.add_constr(x >= 2)
        sol = solve(m, "branch-bound")
        assert sol.status is Status.INFEASIBLE
        assert "presolve" in sol.message
