"""Tests for the SciPy/HiGHS solving backends."""

import importlib
import sys

import pytest

from repro.lpsolver import Model, SolveStatus, SolverOptions, solve_model


class TestLinearPrograms:
    def test_simple_minimisation(self):
        model = Model("lp")
        x = model.add_variable("x")
        y = model.add_variable("y")
        model.add_constraint(x + 2 * y >= 4)
        model.add_constraint(3 * x + y >= 6)
        model.set_objective(x + y)
        result = model.solve()
        assert result.is_optimal
        assert result.solver == "highs-direct"  # the only continuous backend
        # Optimum at the intersection of the two constraints: x=1.6, y=1.2.
        assert result.value(x) == pytest.approx(1.6, abs=1e-6)
        assert result.value(y) == pytest.approx(1.2, abs=1e-6)
        assert result.objective == pytest.approx(2.8, abs=1e-6)

    def test_maximisation(self):
        model = Model("lp-max", sense="max")
        x = model.add_variable("x", upper=4.0)
        y = model.add_variable("y", upper=3.0)
        model.add_constraint(x + y <= 5)
        model.set_objective(2 * x + 3 * y)
        result = model.solve()
        assert result.is_optimal
        assert result.objective == pytest.approx(2 * 2 + 3 * 3, abs=1e-6)

    def test_objective_constant_included(self):
        model = Model("lp-const")
        x = model.add_variable("x", lower=1.0, upper=2.0)
        model.set_objective(x + 100.0)
        result = model.solve()
        assert result.objective == pytest.approx(101.0, abs=1e-6)

    def test_infeasible_detected(self):
        model = Model("lp-infeasible")
        x = model.add_variable("x", upper=1.0)
        model.add_constraint(x >= 2.0)
        model.set_objective(x)
        result = model.solve()
        assert result.status is SolveStatus.INFEASIBLE
        assert not result.is_optimal
        assert result.values == {}

    def test_unbounded_detected(self):
        model = Model("lp-unbounded", sense="max")
        x = model.add_variable("x")
        model.set_objective(x)
        result = model.solve()
        assert result.status in (SolveStatus.UNBOUNDED, SolveStatus.INFEASIBLE, SolveStatus.ERROR)
        assert not result.is_optimal

    def test_solution_satisfies_constraints(self):
        model = Model("lp-feasibility")
        x = model.add_variable("x")
        y = model.add_variable("y")
        model.add_constraint(2 * x + y >= 10)
        model.add_constraint(x + 3 * y >= 15)
        model.set_objective(4 * x + 5 * y)
        result = model.solve()
        assert result.is_optimal
        assert model.check_solution(result.values) == []

    def test_equality_constraints(self):
        model = Model("lp-eq")
        x = model.add_variable("x")
        y = model.add_variable("y")
        model.add_constraint(x + y == 10)
        model.set_objective(x + 2 * y)
        result = model.solve()
        assert result.is_optimal
        assert result.value(x) == pytest.approx(10.0, abs=1e-6)
        assert result.value(y) == pytest.approx(0.0, abs=1e-6)


class TestMixedIntegerPrograms:
    def test_knapsack_milp(self):
        model = Model("knapsack", sense="max")
        values = [10.0, 13.0, 7.0, 4.0]
        weights = [5.0, 6.0, 4.0, 2.0]
        items = [model.add_binary(f"item{i}") for i in range(4)]
        model.add_constraint(
            sum((weights[i] * items[i] for i in range(4)), start=0 * items[0]) <= 10
        )
        model.set_objective(sum((values[i] * items[i] for i in range(4)), start=0 * items[0]))
        result = model.solve()
        assert result.is_optimal
        assert result.solver == "milp"
        chosen = [i for i in range(4) if result.value(items[i]) > 0.5]
        assert chosen == [1, 2] or result.objective == pytest.approx(20.0, abs=1e-6)

    def test_integrality_respected(self):
        model = Model("int")
        n = model.add_integer("n", lower=0, upper=10)
        model.add_constraint(2 * n >= 5)
        model.set_objective(n)
        result = model.solve()
        assert result.is_optimal
        assert result.value(n) == pytest.approx(3.0, abs=1e-6)

    def test_force_continuous_relaxation(self):
        model = Model("relaxed")
        n = model.add_integer("n", lower=0, upper=10)
        model.add_constraint(2 * n >= 5)
        model.set_objective(n)
        result = solve_model(model, SolverOptions(force_continuous=True))
        assert result.solver == "highs-direct"  # the only continuous backend
        assert result.value(n) == pytest.approx(2.5, abs=1e-6)

    def test_milp_infeasible(self):
        model = Model("milp-infeasible")
        b = model.add_binary("b")
        model.add_constraint(b >= 2)
        model.set_objective(b)
        result = model.solve()
        assert result.status is SolveStatus.INFEASIBLE

    def test_time_limit_option_accepted(self):
        model = Model("milp-timelimit")
        b = model.add_binary("b")
        model.add_constraint(b >= 1)
        model.set_objective(b)
        result = model.solve(SolverOptions(time_limit=10.0))
        assert result.is_optimal


class TestResultHelpers:
    def test_value_of_expression(self):
        model = Model("expr-eval")
        x = model.add_variable("x", lower=2.0, upper=2.0)
        y = model.add_variable("y", lower=3.0, upper=3.0)
        model.set_objective(x + y)
        result = model.solve()
        assert result.value(x + 2 * y) == pytest.approx(8.0, abs=1e-6)

    def test_value_rejects_unknown_type(self):
        model = Model("bad-value")
        x = model.add_variable("x", upper=1.0)
        model.set_objective(x)
        result = model.solve()
        with pytest.raises(TypeError):
            result.value("x")  # type: ignore[arg-type]

    def test_values_by_name(self):
        model = Model("by-name")
        x = model.add_variable("x", lower=1.0, upper=1.0)
        y = model.add_variable("y", lower=4.0, upper=4.0)
        model.set_objective(x + y)
        result = model.solve()
        named = result.values_by_name({"x": x, "y": y})
        assert named == {"x": pytest.approx(1.0), "y": pytest.approx(4.0)}


class TestBundledHighsRequired:
    def test_missing_bindings_fail_at_import(self, monkeypatch):
        """No silent fallback: a SciPy without the bindings is a clear error."""
        monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
        monkeypatch.delitem(sys.modules, "repro.lpsolver.highs_backend")
        with pytest.raises(ImportError, match=r"scipy\.optimize\._highspy\._core") as excinfo:
            importlib.import_module("repro.lpsolver.highs_backend")
        assert "scipy>=1.17" in str(excinfo.value)
