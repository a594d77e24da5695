"""Solver backends for the LP/MILP modelling layer.

Continuous models go to the direct HiGHS backend
(:mod:`repro.lpsolver.highs_backend`); models with integer variables go to
``scipy.optimize.milp``.  Constraint matrices stay sparse end-to-end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import optimize

from repro.lpsolver import highs_backend
from repro.lpsolver.model import CompiledModel, Model
from repro.lpsolver.result import SolveResult, SolveStatus


@dataclass
class SolverOptions:
    """Knobs shared by the HiGHS and milp backends.

    Attributes
    ----------
    time_limit:
        Wall-clock limit in seconds (``None`` = no limit).
    mip_gap:
        Relative optimality gap accepted by the MILP backend.
    presolve:
        Whether to let HiGHS presolve the problem.
    force_continuous:
        Solve the LP relaxation even when the model declares integer variables.
        Used by the heuristic solver, which fixes the integer siting decisions
        itself and only needs the continuous provisioning sub-problem.
    """

    time_limit: Optional[float] = None
    mip_gap: float = 1e-4
    presolve: bool = True
    force_continuous: bool = False


_MILP_STATUS = {
    0: SolveStatus.OPTIMAL,
    1: SolveStatus.ITERATION_LIMIT,
    2: SolveStatus.INFEASIBLE,
    3: SolveStatus.UNBOUNDED,
    4: SolveStatus.ERROR,
}


def solve_model(
    model: Model,
    options: Optional[SolverOptions] = None,
    context: Optional["highs_backend.HighsSolveContext"] = None,
) -> SolveResult:
    """Solve ``model`` and return a :class:`SolveResult`.

    ``context`` (a :class:`~repro.lpsolver.highs_backend.HighsSolveContext`)
    enables basis reuse across structurally identical continuous solves; it is
    ignored by the milp backend.
    """
    options = options or SolverOptions()
    use_milp = model.is_mixed_integer and not options.force_continuous
    if use_milp:
        return _solve_milp(model.to_matrices(), options)
    return highs_backend.solve_row_form(model.to_row_form(), options, context)


def _finalise(
    compiled: CompiledModel,
    status: SolveStatus,
    x: Optional[np.ndarray],
    message: str,
    solver: str,
    iterations: int,
) -> SolveResult:
    if status is SolveStatus.OPTIMAL and x is not None:
        raw = float(np.dot(compiled.cost, x))
        objective = (-raw if compiled.maximise else raw) + compiled.objective_constant
        x = np.asarray(x, dtype=float)
    else:
        objective = float("nan")
        x = None
    return SolveResult(
        status=status,
        objective=objective,
        message=message,
        solver=solver,
        iterations=iterations,
        x=x,
    )


def _solve_milp(compiled: CompiledModel, options: SolverOptions) -> SolveResult:
    constraints = []
    if compiled.a_ub is not None:
        constraints.append(
            optimize.LinearConstraint(compiled.a_ub, -np.inf, compiled.b_ub)
        )
    if compiled.a_eq is not None:
        constraints.append(
            optimize.LinearConstraint(compiled.a_eq, compiled.b_eq, compiled.b_eq)
        )
    milp_options = {"presolve": options.presolve, "mip_rel_gap": options.mip_gap}
    if options.time_limit is not None:
        milp_options["time_limit"] = options.time_limit
    result = optimize.milp(
        c=compiled.cost,
        constraints=constraints or None,
        bounds=optimize.Bounds(compiled.lower, compiled.upper),
        integrality=compiled.integrality,
        options=milp_options,
    )
    status = _MILP_STATUS.get(result.status, SolveStatus.ERROR)
    x = result.x if result.x is not None else None
    return _finalise(compiled, status, x, str(result.message), "milp", 0)
