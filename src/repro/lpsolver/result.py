"""Solve results of the HiGHS backend."""

from __future__ import annotations

import enum
from typing import Optional

import numpy as np


class SolveStatus(enum.Enum):
    """Outcome of a solver invocation."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"
    ERROR = "error"


class SolverStatusError(RuntimeError):
    """A solve that had to be optimal was not.

    Carries the backend's status classification and counters so callers that
    must never act on a ``nan`` objective (the incremental dispatcher, the
    stochastic-ensemble LP) can distinguish an infeasible model from an
    iteration limit or a backend error and react accordingly — retry, cold
    rebuild, or surface the failure with full context.
    """

    def __init__(
        self,
        status: "SolveStatus",
        message: str = "",
        solver: str = "",
        iterations: int = 0,
    ) -> None:
        detail = f" ({message})" if message else ""
        super().__init__(
            f"solver returned status {status.value}{detail} "
            f"[solver={solver or 'unknown'}, iterations={iterations}]"
        )
        self.status = status
        self.solver_message = message
        self.solver = solver
        self.iterations = iterations


class SolveResult:
    """The outcome of solving a :class:`~repro.lpsolver.model.RowFormLP`.

    Attributes
    ----------
    status:
        Solver status classification.
    objective:
        Objective value (``nan`` when not optimal).
    message:
        Backend diagnostic message.
    solver:
        Which backend produced the result (``"highs-direct"`` or
        ``"highs-mutable"``; the test oracles report ``"linprog"`` and
        ``"milp"``).
    iterations:
        Iteration count reported by the backend, if any.
    x:
        Optimal point as a dense array indexed by variable index (``None``
        when not optimal).
    """

    __slots__ = ("status", "objective", "message", "solver", "iterations", "x")

    def __init__(
        self,
        status: SolveStatus,
        objective: float,
        message: str = "",
        solver: str = "",
        iterations: int = 0,
        x: Optional[np.ndarray] = None,
    ) -> None:
        self.status = status
        self.objective = objective
        self.message = message
        self.solver = solver
        self.iterations = iterations
        self.x = x

    @property
    def is_optimal(self) -> bool:
        return self.status is SolveStatus.OPTIMAL

    def raise_for_status(self) -> "SolveResult":
        """Return self when optimal, raise :class:`SolverStatusError` otherwise."""
        if self.status is not SolveStatus.OPTIMAL:
            raise SolverStatusError(
                self.status,
                message=self.message,
                solver=self.solver,
                iterations=self.iterations,
            )
        return self

    def value_array(self, indices: np.ndarray) -> np.ndarray:
        """Values of a batch of variables given their index array."""
        if self.x is None:
            return np.zeros(np.shape(indices))
        return np.asarray(self.x[indices], dtype=float)

    def __repr__(self) -> str:
        return (
            f"SolveResult(status={self.status.value}, objective={self.objective:.6g}, "
            f"solver={self.solver!r}, n_values={0 if self.x is None else len(self.x)})"
        )
