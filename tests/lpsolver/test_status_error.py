"""Typed non-optimal statuses: SolverStatusError and the check= knobs."""

import numpy as np
import pytest

from repro.lpsolver import (
    SolverOptions,
    SolverStatusError,
    SolveStatus,
    highs_backend,
)

from oracle_model import ConstraintSense, Model


def _model(rows, sense="min", upper=np.inf):
    """min x0 + x1 subject to ``rows`` over two nonnegative variables."""
    model = Model(name="status", sense=sense)
    model.add_variable_array(["x0", "x1"], [0.0, 0.0], [upper, upper])
    for i, (coeffs, row_sense, rhs) in enumerate(rows):
        cols = np.array([j for j, v in enumerate(coeffs) if v != 0.0], dtype=np.int64)
        vals = np.array([v for v in coeffs if v != 0.0])
        model.add_linear_block(
            np.zeros(len(cols), dtype=np.int64), cols, vals, row_sense, [rhs], name=f"r{i}"
        )
    model.set_objective(model.variable("x0") + model.variable("x1"))
    return model


FEASIBLE_ROWS = [([1.0, 1.0], ConstraintSense.GREATER_EQUAL, 2.0)]
INFEASIBLE_ROWS = [
    ([1.0, 1.0], ConstraintSense.GREATER_EQUAL, 4.0),
    ([1.0, 1.0], ConstraintSense.LESS_EQUAL, 1.0),
]


class TestRowFormCheck:
    def test_check_raises_typed_error_on_infeasible(self):
        row_form = _model(INFEASIBLE_ROWS).to_row_form()
        with pytest.raises(SolverStatusError) as excinfo:
            highs_backend.solve_row_form(row_form, SolverOptions(), check=True)
        error = excinfo.value
        assert error.status is SolveStatus.INFEASIBLE
        assert error.solver == "highs-direct"
        assert "infeasible" in str(error)

    def test_without_check_the_status_is_returned_not_raised(self):
        row_form = _model(INFEASIBLE_ROWS).to_row_form()
        result = highs_backend.solve_row_form(row_form, SolverOptions())
        assert result.status is SolveStatus.INFEASIBLE
        assert not result.is_optimal
        with pytest.raises(SolverStatusError):
            result.raise_for_status()

    def test_raise_for_status_returns_self_when_optimal(self):
        row_form = _model(FEASIBLE_ROWS).to_row_form()
        result = highs_backend.solve_row_form(row_form, SolverOptions(), check=True)
        assert result.raise_for_status() is result
        assert result.objective == pytest.approx(2.0)


class TestMutableModelCheck:
    def test_mutated_to_infeasible_raises_and_recovers(self):
        mutable = highs_backend.MutableHighsModel()
        mutable.load(_model(FEASIBLE_ROWS).to_row_form())
        assert mutable.solve(SolverOptions(), check=True).objective == pytest.approx(2.0)

        # Force x0 + x1 >= 2 against upper bounds summing to 1: infeasible.
        mutable.change_col_bounds(
            np.array([0, 1], dtype=np.int64),
            np.array([0.0, 0.0]),
            np.array([0.5, 0.5]),
        )
        with pytest.raises(SolverStatusError) as excinfo:
            mutable.solve(SolverOptions(), check=True)
        assert excinfo.value.status is SolveStatus.INFEASIBLE

        # Undo the mutation; a basis-cleared resolve is optimal again.
        mutable.change_col_bounds(
            np.array([0, 1], dtype=np.int64),
            np.array([0.0, 0.0]),
            np.array([np.inf, np.inf]),
        )
        mutable.clear_basis()
        recovered = mutable.solve(SolverOptions(), check=True)
        assert recovered.objective == pytest.approx(2.0)

    def test_error_carries_solver_context(self):
        mutable = highs_backend.MutableHighsModel()
        mutable.load(_model(INFEASIBLE_ROWS).to_row_form())
        with pytest.raises(SolverStatusError) as excinfo:
            mutable.solve(SolverOptions(), check=True)
        error = excinfo.value
        assert error.status is SolveStatus.INFEASIBLE
        assert isinstance(error.iterations, int)
        assert isinstance(error, RuntimeError)
