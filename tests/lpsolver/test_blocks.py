"""Tests for the expression oracle's batched (block) constraints and row-form compilation."""

import numpy as np
import pytest

from oracle_model import (
    ConstraintSense,
    LinearConstraintBlock,
    LinearExpression,
    Model,
    ModelError,
    make_block,
)
from oracles import linprog_solve


class TestMakeBlock:
    def test_zero_coefficients_dropped(self):
        block = make_block([0, 0, 1], [0, 1, 0], [1.0, 0.0, 2.0],
                           ConstraintSense.LESS_EQUAL, [5.0, 5.0])
        assert block.num_entries == 2
        assert block.num_rows == 2

    def test_trusted_path_keeps_explicit_zeros(self):
        block = make_block([0, 0], [0, 1], [1.0, 0.0],
                           ConstraintSense.LESS_EQUAL, [5.0], validate=False)
        assert block.num_entries == 2

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            make_block([0, 1], [0], [1.0, 2.0], ConstraintSense.LESS_EQUAL, [1.0, 1.0])

    def test_row_outside_rhs_rejected(self):
        with pytest.raises(ValueError):
            make_block([3], [0], [1.0], ConstraintSense.LESS_EQUAL, [1.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            make_block([0], [0], [np.inf], ConstraintSense.LESS_EQUAL, [1.0])

    def test_column_outside_model_rejected(self):
        model = Model("m")
        model.add_variable("x")
        with pytest.raises(ValueError):
            model.add_linear_block([0], [5], [1.0], ConstraintSense.LESS_EQUAL, [1.0])


class TestVariableArrays:
    def test_indices_and_bounds(self):
        model = Model("m")
        idx = model.add_variable_array(["a", "b", "c"], lower=[0.0, 1.0, 2.0], upper=9.0)
        assert list(idx) == [0, 1, 2]
        assert model.bounds(1) == (1.0, 9.0)
        assert model.variable("c").index == 2

    def test_duplicate_names_rejected(self):
        model = Model("m")
        model.add_variable("a")
        with pytest.raises(ModelError):
            model.add_variable_array(["b", "a"])
        # A rejected batch must not leave phantom names behind.
        assert model.num_variables == 1
        with pytest.raises(ModelError):
            model.variable("b")
        assert list(model.add_variable_array(["b", "c"])) == [1, 2]

    def test_intra_batch_duplicates_rejected(self):
        model = Model("m")
        with pytest.raises(ModelError):
            model.add_variable_array(["x", "x"])
        assert model.num_variables == 0

    def test_bad_bounds_rejected(self):
        model = Model("m")
        with pytest.raises(ModelError):
            model.add_variable_array(["a"], lower=2.0, upper=1.0)

    def test_mixes_with_scalar_variables(self):
        model = Model("m")
        x = model.add_variable("x")
        idx = model.add_variable_array(["y", "z"])
        assert x.index == 0 and list(idx) == [1, 2]
        assert [v.name for v in model.variables] == ["x", "y", "z"]


class TestBlockCompilation:
    def _cover_model(self):
        """min sum(x) s.t. x_i >= i+1 (block), sum(x) <= 100 (scalar)."""
        model = Model("cover")
        idx = model.add_variable_array([f"x{i}" for i in range(3)], upper=50.0)
        model.add_linear_block(
            rows=[0, 1, 2], cols=idx, vals=[1.0, 1.0, 1.0],
            sense=ConstraintSense.GREATER_EQUAL, rhs=[1.0, 2.0, 3.0], name="floor",
        )
        total = LinearExpression({int(i): 1.0 for i in idx})
        model.add_constraint(total <= 100.0, name="budget")
        model.set_objective(total)
        return model, idx

    def test_num_constraints_counts_block_rows(self):
        model, _ = self._cover_model()
        assert model.num_constraints == 4

    def test_to_matrices_merges_blocks_and_scalars(self):
        model, _ = self._cover_model()
        compiled = model.to_matrices()
        dense = compiled.a_ub.toarray()
        assert dense.shape == (4, 3)
        # Scalar budget row first, then the negated >= block rows.
        np.testing.assert_allclose(dense[0], [1.0, 1.0, 1.0])
        np.testing.assert_allclose(dense[1:], -np.eye(3))
        np.testing.assert_allclose(compiled.b_ub, [100.0, -1.0, -2.0, -3.0])

    def test_row_form_matches_matrices(self):
        model, _ = self._cover_model()
        row_form = model.to_row_form()
        assert row_form.shape == (4, 3)
        np.testing.assert_allclose(row_form.row_upper, [100.0, np.inf, np.inf, np.inf])
        np.testing.assert_allclose(row_form.row_lower, [-np.inf, 1.0, 2.0, 3.0])
        np.testing.assert_allclose(row_form.matrix.toarray()[1:], np.eye(3))

    def test_solves_to_expected_optimum(self):
        model, _ = self._cover_model()
        result = model.solve()
        assert result.is_optimal
        assert result.objective == pytest.approx(6.0, abs=1e-9)
        np.testing.assert_allclose(result.x, [1.0, 2.0, 3.0], atol=1e-9)

    def test_backends_agree(self):
        model, _ = self._cover_model()
        direct = model.solve()
        linprog = linprog_solve(model)
        assert direct.solver == "highs-direct" and linprog.solver == "linprog"
        assert direct.objective == pytest.approx(linprog.objective, abs=1e-9)

    def test_check_solution_covers_block_rows(self):
        model, idx = self._cover_model()
        good = {int(i): float(i + 1) for i in idx}
        assert model.check_solution(good) == []
        bad = {int(i): 0.0 for i in idx}
        violations = model.check_solution(bad)
        assert len(violations) == 3
        assert all("floor" in violation for violation in violations)

    def test_equality_block(self):
        model = Model("eq")
        idx = model.add_variable_array(["a", "b"], upper=10.0)
        model.add_linear_block([0], [idx[0]], [1.0], ConstraintSense.EQUAL, [4.0])
        model.set_objective(LinearExpression({0: 1.0, 1: 1.0}))
        result = model.solve()
        assert result.is_optimal
        assert result.value_array(idx)[0] == pytest.approx(4.0, abs=1e-9)


class TestBlockViolations:
    def test_violations_by_sense(self):
        x = np.array([1.0, 5.0])
        block = LinearConstraintBlock(
            rows=np.array([0, 1]), cols=np.array([0, 1]), vals=np.array([1.0, 1.0]),
            sense=ConstraintSense.LESS_EQUAL, rhs=np.array([2.0, 2.0]),
        )
        assert list(block.violations(x, 1e-6)) == [1]
        block.sense = ConstraintSense.GREATER_EQUAL
        assert list(block.violations(x, 1e-6)) == [0]
        block.sense = ConstraintSense.EQUAL
        assert list(block.violations(np.array([2.0, 2.0]), 1e-6)) == []
