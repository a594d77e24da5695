"""Tests for the expression oracle's Model container and its compilation to matrix form."""

import numpy as np
import pytest

from oracle_model import Model, ModelError, VariableKind


class TestVariableManagement:
    def test_duplicate_names_rejected(self):
        model = Model("m")
        model.add_variable("x")
        with pytest.raises(ModelError):
            model.add_variable("x")

    def test_lookup_by_name(self):
        model = Model("m")
        x = model.add_variable("x")
        assert model.variable("x") is x
        with pytest.raises(ModelError):
            model.variable("missing")

    def test_bad_bounds_rejected(self):
        model = Model("m")
        with pytest.raises(ModelError):
            model.add_variable("x", lower=2.0, upper=1.0)

    def test_set_bounds_and_fix(self):
        model = Model("m")
        x = model.add_variable("x")
        model.set_bounds(x, lower=1.0, upper=4.0)
        assert model.bounds(x) == (1.0, 4.0)
        model.fix(x, 2.5)
        assert model.bounds(x) == (2.5, 2.5)

    def test_set_bounds_inconsistent_raises(self):
        model = Model("m")
        x = model.add_variable("x", lower=0.0, upper=1.0)
        with pytest.raises(ModelError):
            model.set_bounds(x, lower=2.0)

    def test_integer_and_binary_kinds(self):
        model = Model("m")
        model.add_variable("x")
        assert not model.is_mixed_integer
        model.add_integer("n", lower=0, upper=10)
        assert model.is_mixed_integer
        b = model.add_binary("b")
        assert b.kind is VariableKind.BINARY

    def test_unknown_sense_rejected(self):
        with pytest.raises(ModelError):
            Model("m", sense="maximize-ish")


class TestConstraintsAndObjective:
    def test_constant_infeasible_constraint_rejected(self):
        model = Model("m")
        with pytest.raises(ModelError):
            model.add_constraint(
                (model.add_variable("x") * 0) >= 1.0  # collapses to 0 >= 1
            )

    def test_constant_feasible_constraint_skipped(self):
        model = Model("m")
        x = model.add_variable("x")
        model.add_constraint((x * 0) <= 1.0)
        assert model.num_constraints == 0

    def test_add_constraints_bulk(self):
        model = Model("m")
        x = model.add_variable("x")
        y = model.add_variable("y")
        model.add_constraints([x + y >= 1, x - y <= 2])
        assert model.num_constraints == 2

    def test_non_constraint_rejected(self):
        model = Model("m")
        with pytest.raises(ModelError):
            model.add_constraint("x >= 1")  # type: ignore[arg-type]

    def test_objective_value_for_candidate(self):
        model = Model("m")
        x = model.add_variable("x")
        model.set_objective(3 * x + 1)
        assert model.objective_value({x.index: 2.0}) == pytest.approx(7.0)


class TestCompilation:
    def test_matrices_shapes(self):
        model = Model("m")
        x = model.add_variable("x", upper=10)
        y = model.add_variable("y", upper=10)
        model.add_constraint(x + y <= 5)
        model.add_constraint(x - y >= 1)
        model.add_constraint(x + 2 * y == 3)
        model.set_objective(x + y)
        compiled = model.to_matrices()
        assert compiled.a_ub.shape == (2, 2)
        assert compiled.a_eq.shape == (1, 2)
        assert compiled.cost.shape == (2,)
        # Matrices are assembled as scipy.sparse; >= constraints are flipped
        # into <= rows.
        np.testing.assert_allclose(compiled.a_ub.toarray()[1], [-1.0, 1.0])
        np.testing.assert_allclose(compiled.b_ub[1], [-1.0])

    def test_maximisation_negates_cost(self):
        model = Model("m", sense="max")
        x = model.add_variable("x", upper=1)
        model.set_objective(5 * x)
        compiled = model.to_matrices()
        assert compiled.cost[0] == pytest.approx(-5.0)
        assert compiled.maximise

    def test_objective_constant_carried(self):
        model = Model("m")
        x = model.add_variable("x", upper=1)
        model.set_objective(x + 42.0)
        compiled = model.to_matrices()
        assert compiled.objective_constant == pytest.approx(42.0)

    def test_empty_constraint_blocks_are_none(self):
        model = Model("m")
        model.add_variable("x")
        compiled = model.to_matrices()
        assert compiled.a_ub is None and compiled.a_eq is None


class TestSolutionChecking:
    def test_check_solution_reports_bound_violations(self):
        model = Model("m")
        x = model.add_variable("x", lower=0.0, upper=1.0)
        violations = model.check_solution({x.index: 2.0})
        assert len(violations) == 1 and "outside" in violations[0]

    def test_check_solution_reports_constraint_violations(self):
        model = Model("m")
        x = model.add_variable("x", upper=10.0)
        model.add_constraint((x >= 5).named("floor"))
        violations = model.check_solution({x.index: 1.0})
        assert any("floor" in violation for violation in violations)

    def test_check_solution_accepts_feasible_point(self):
        model = Model("m")
        x = model.add_variable("x", upper=10.0)
        y = model.add_variable("y", upper=10.0)
        model.add_constraint(x + y >= 2)
        assert model.check_solution({x.index: 1.0, y.index: 1.5}) == []

    def test_repr_mentions_kind_and_sizes(self):
        model = Model("demo")
        model.add_variable("x")
        assert "LP" in repr(model)
        model.add_binary("b")
        assert "MILP" in repr(model)
