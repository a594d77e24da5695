"""Linear programming substrate: one LP form, one solver.

The siting/provisioning framework of the paper is stated as a MILP (Fig. 1);
the heuristic fixes the siting decision itself, so every problem the library
solves is a continuous LP.  The original authors used an off-the-shelf
commercial solver; this subpackage provides the substrate used instead:

* :class:`RowFormLP` — the one LP representation,
  ``row_lower <= A @ x <= row_upper`` with a raw CSC matrix, column bounds,
  a cost vector and a constant, built from COO triplets with
  :meth:`RowFormLP.from_triplets`;
* :mod:`repro.lpsolver.highs_backend` — feeds a :class:`RowFormLP` straight
  into SciPy's bundled HiGHS bindings, with basis warm starts across
  structurally identical solves (:class:`HighsSolveContext`) and in-place
  edits of a loaded model (``MutableHighsModel``).  It is the only solve
  path, and importing this package fails when SciPy lacks the bindings;
* :func:`stack_block_diagonal` — many independent LPs as one solve;
* :mod:`repro.lpsolver.validate` — structural audits behind
  ``REPRO_VALIDATE=1``.

Typical usage (minimise ``3x + 5y`` subject to ``x + 2y >= 4``)::

    import numpy as np
    from repro.lpsolver import RowFormLP, SolverOptions
    from repro.lpsolver.highs_backend import solve_row_form

    lp = RowFormLP.from_triplets(
        rows=np.array([0, 0]), cols=np.array([0, 1]), vals=np.array([1.0, 2.0]),
        shape=(1, 2),
        row_lower=np.array([4.0]), row_upper=np.array([np.inf]),
        lower=np.zeros(2), upper=np.full(2, np.inf),
        cost=np.array([3.0, 5.0]),
    )
    result = solve_row_form(lp, SolverOptions())
    assert result.is_optimal
    print(result.x, result.objective)

A whole constraint family is one set of triplet arrays: 96 rows
``x[t] >= 2`` are ``rows = cols = np.arange(96)``, ``vals = np.ones(96)``,
``row_lower = np.full(96, 2.0)``.

The readable expression API (``x + 2 * y >= 4``) and the full Fig. 1 MILP
live in the test-suite (``tests/oracle_model.py``, ``tests/oracle_milp.py``)
as the independent references the library's assemblies are checked against.
"""

from repro.lpsolver.batch import stack_block_diagonal
from repro.lpsolver.highs_backend import HighsSolveContext
from repro.lpsolver.model import RowFormLP
from repro.lpsolver.result import SolveResult, SolveStatus, SolverStatusError
from repro.lpsolver.solvers import SolverOptions
from repro.lpsolver.validate import (
    LPValidationError,
    validate_row_form,
    validation_enabled,
)

__all__ = [
    "HighsSolveContext",
    "LPValidationError",
    "RowFormLP",
    "SolveResult",
    "SolveStatus",
    "SolverOptions",
    "SolverStatusError",
    "stack_block_diagonal",
    "validate_row_form",
    "validation_enabled",
]
