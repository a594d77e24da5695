"""Property-based tests for the expression oracle's LP/MILP modelling layer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.lpsolver import SolveStatus

from oracle_model import LinearExpression, Model


coefficients = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False)
small_floats = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False)


class TestExpressionAlgebra:
    @given(a=coefficients, b=coefficients, x_value=small_floats, y_value=small_floats)
    @settings(max_examples=60, deadline=None)
    def test_linearity_of_evaluation(self, a, b, x_value, y_value):
        """Evaluating a*x + b*y equals a*value(x) + b*value(y)."""
        model = Model("prop")
        x = model.add_variable("x", lower=-1000, upper=1000)
        y = model.add_variable("y", lower=-1000, upper=1000)
        expr = a * x + b * y
        values = {x.index: x_value, y.index: y_value}
        assert expr.evaluate(values) == pytest.approx(a * x_value + b * y_value, abs=1e-9)

    @given(constants=st.lists(coefficients, min_size=1, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_sum_of_constants_is_their_sum(self, constants):
        expr = LinearExpression.sum(constants)
        assert expr.is_constant()
        assert expr.constant == pytest.approx(sum(constants), abs=1e-9)

    @given(a=coefficients, scale=st.floats(min_value=-10, max_value=10, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_scaling_commutes_with_evaluation(self, a, scale):
        model = Model("prop")
        x = model.add_variable("x", lower=-10, upper=10)
        expr = a * x + 1.0
        scaled = expr * scale
        values = {x.index: 3.0}
        assert scaled.evaluate(values) == pytest.approx(expr.evaluate(values) * scale, abs=1e-9)


class TestSolverProperties:
    @given(
        demand=st.floats(min_value=1.0, max_value=100.0),
        cost_a=st.floats(min_value=0.1, max_value=10.0),
        cost_b=st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_two_supplier_lp_picks_cheaper_source(self, demand, cost_a, cost_b):
        """min cost_a*a + cost_b*b subject to a + b >= demand uses the cheaper one."""
        model = Model("suppliers")
        a = model.add_variable("a")
        b = model.add_variable("b")
        model.add_constraint(a + b >= demand)
        model.set_objective(cost_a * a + cost_b * b)
        result = model.solve()
        assert result.is_optimal
        expected = min(cost_a, cost_b) * demand
        assert abs(result.objective - expected) <= 1e-6 * max(1.0, expected)
        assert model.check_solution(result.values) == []

    @given(
        bound=st.floats(min_value=0.5, max_value=20.0),
        floor=st.floats(min_value=0.0, max_value=40.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_feasibility_matches_bound_arithmetic(self, bound, floor):
        """x <= bound with x >= floor is feasible iff floor <= bound."""
        model = Model("bounds")
        x = model.add_variable("x", upper=bound)
        model.add_constraint(x >= floor)
        model.set_objective(x)
        result = model.solve()
        if floor <= bound + 1e-9:
            assert result.is_optimal
            assert result.value(x) >= floor - 1e-6
        else:
            assert result.status is SolveStatus.INFEASIBLE

    @given(values=st.lists(st.floats(min_value=0.1, max_value=9.0), min_size=2, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_optimal_solutions_are_feasible(self, values):
        """Whatever the data, an OPTIMAL result must satisfy every constraint."""
        model = Model("random-cover")
        variables = [model.add_variable(f"x{i}", upper=100.0) for i in range(len(values))]
        for i, value in enumerate(values):
            model.add_constraint(variables[i] >= value)
        model.add_constraint(LinearExpression.sum(variables) <= 1000.0)
        model.set_objective(LinearExpression.sum(variables))
        result = model.solve()
        assert result.is_optimal
        assert model.check_solution(result.values) == []
        assert result.objective <= 1000.0 + 1e-6
