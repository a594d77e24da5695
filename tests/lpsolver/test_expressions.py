"""Tests for the linear-expression algebra of the expression oracle."""


import pytest

from oracle_model import (
    Constraint,
    ConstraintSense,
    LinearExpression,
    Model,
    Variable,
    VariableKind,
)


@pytest.fixture()
def xy():
    model = Model("expr")
    return model.add_variable("x"), model.add_variable("y")


class TestVariableArithmetic:
    def test_variable_to_expression(self, xy):
        x, _ = xy
        expr = x.to_expression()
        assert expr.coefficients == {x.index: 1.0}
        assert expr.constant == 0.0

    def test_addition_of_variables(self, xy):
        x, y = xy
        expr = x + y
        assert expr.coefficients == {x.index: 1.0, y.index: 1.0}

    def test_scalar_multiplication(self, xy):
        x, _ = xy
        expr = 3 * x
        assert expr.coefficients == {x.index: 3.0}
        assert (x * 3).coefficients == expr.coefficients

    def test_subtraction_and_negation(self, xy):
        x, y = xy
        expr = x - 2 * y
        assert expr.coefficients == {x.index: 1.0, y.index: -2.0}
        neg = -expr
        assert neg.coefficients == {x.index: -1.0, y.index: 2.0}

    def test_division_by_scalar(self, xy):
        x, _ = xy
        expr = (4 * x) / 2
        assert expr.coefficients == {x.index: 2.0}

    def test_division_by_zero_raises(self, xy):
        x, _ = xy
        with pytest.raises(ZeroDivisionError):
            _ = x.to_expression() / 0

    def test_rsub_with_constant(self, xy):
        x, _ = xy
        expr = 10 - x
        assert expr.constant == 10.0
        assert expr.coefficients == {x.index: -1.0}


class TestLinearExpression:
    def test_sum_of_terms(self, xy):
        x, y = xy
        expr = LinearExpression.sum([x, 2 * y, 5.0])
        assert expr.coefficients == {x.index: 1.0, y.index: 2.0}
        assert expr.constant == 5.0

    def test_zero_coefficients_are_dropped(self, xy):
        x, y = xy
        expr = x + y - x
        assert x.index not in expr.coefficients
        assert expr.coefficients == {y.index: 1.0}

    def test_from_value_rejects_nan(self):
        with pytest.raises(ValueError):
            LinearExpression.from_value(float("nan"))

    def test_from_value_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            LinearExpression.from_value("not an expression")

    def test_multiplying_two_expressions_raises(self, xy):
        x, y = xy
        with pytest.raises(TypeError):
            _ = x.to_expression() * y.to_expression()

    def test_evaluate(self, xy):
        x, y = xy
        expr = 2 * x + 3 * y + 1
        assert expr.evaluate({x.index: 2.0, y.index: 1.0}) == pytest.approx(8.0)

    def test_evaluate_missing_values_default_to_zero(self, xy):
        x, y = xy
        expr = 2 * x + 3 * y
        assert expr.evaluate({x.index: 1.0}) == pytest.approx(2.0)

    def test_is_constant(self, xy):
        x, _ = xy
        assert LinearExpression.from_value(4.0).is_constant()
        assert not (x + 1).is_constant()

    def test_copy_is_independent(self, xy):
        x, _ = xy
        original = x + 1
        clone = original.copy()
        clone.coefficients[x.index] = 99.0
        assert original.coefficients[x.index] == 1.0


class TestConstraints:
    def test_le_builds_constraint(self, xy):
        x, y = xy
        constraint = x + y <= 5
        assert isinstance(constraint, Constraint)
        assert constraint.sense is ConstraintSense.LESS_EQUAL
        assert constraint.rhs == pytest.approx(5.0)

    def test_ge_builds_constraint(self, xy):
        x, _ = xy
        constraint = 2 * x >= 3
        assert constraint.sense is ConstraintSense.GREATER_EQUAL
        assert constraint.rhs == pytest.approx(3.0)

    def test_eq_builds_constraint(self, xy):
        x, y = xy
        constraint = x + y == 7
        assert constraint.sense is ConstraintSense.EQUAL
        assert constraint.rhs == pytest.approx(7.0)

    def test_violation_measures(self, xy):
        x, _ = xy
        le = x <= 1
        ge = x >= 3
        eq = x == 2
        values = {x.index: 2.0}
        assert le.violation(values) == pytest.approx(1.0)
        assert ge.violation(values) == pytest.approx(1.0)
        assert eq.violation(values) == pytest.approx(0.0)

    def test_named_constraint(self, xy):
        x, _ = xy
        constraint = (x >= 0).named("non_negative")
        assert constraint.name == "non_negative"

    def test_trivially_feasible_detection(self):
        expr = LinearExpression({}, -1.0)
        assert Constraint(expr, ConstraintSense.LESS_EQUAL).is_trivially_feasible()
        assert not Constraint(expr, ConstraintSense.GREATER_EQUAL).is_trivially_feasible()


class TestVariableIdentity:
    def test_variable_hash_and_repr(self):
        model = Model("identity")
        x = model.add_variable("x")
        assert "x" in repr(x)
        assert hash(x) == hash(Variable("x", x.index, VariableKind.CONTINUOUS))  # reprolint: ok(DET002) exercises Variable.__hash__ in-process equality only

    def test_binary_bounds_forced(self):
        model = Model("binary")
        b = model.add_binary("b")
        assert model.bounds(b) == (0.0, 1.0)
        assert b.kind is VariableKind.BINARY
