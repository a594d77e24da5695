"""Direct HiGHS backend for continuous LPs.

``scipy.optimize.linprog`` adds several milliseconds of validation and
conversion overhead per call, which dominates when the siting heuristic
solves thousands of small provisioning LPs.  SciPy ships the HiGHS python
bindings it uses internally (``scipy.optimize._highspy``); this module feeds
a :class:`~repro.lpsolver.model.RowFormLP` straight into a ``HighsLp`` —
CSC arrays, row bounds and column bounds, no dense intermediates and no
input re-validation.

The bindings are required: this is the only continuous-LP path, so a SciPy
without ``scipy.optimize._highspy._core`` fails at import with a message
naming the missing module instead of silently switching to a slower solver.

Warm starts
-----------
A :class:`HighsSolveContext` keeps the HiGHS instance and the optimal basis
of the previous solve.  When the next LP has the same shape — e.g. the
location filter pricing the *same* single-site model structure at every
candidate location — the stored basis is installed before ``run`` and the
dual simplex typically re-converges in a handful of iterations (~2x faster
end-to-end on the pricing sweep).  A context must only ever be used from one
thread at a time; concurrent sweeps should create one context per worker.

In-place mutation
-----------------
:class:`MutableHighsModel` goes one step further: instead of re-passing the
whole LP for every solve (``passModel`` throws away the scaled matrix and the
simplex factorisation, a fixed ~1 ms on the provisioning LPs), the loaded
model is *edited* between solves through HiGHS's modification API — add or
delete column and row ranges, change costs, bounds and single coefficients.
The previous optimal basis is carried across structural edits by explicit
padding/projection: retained columns and rows keep their statuses, new
columns enter nonbasic at a finite bound and new rows enter with a basic
slack.  When deletions make the projected basis non-square it is installed
as an "alien" basis that HiGHS repairs, which is still far cheaper than a
cold start.  The projection is lazy: edits only queue their padding or
deletion, and the queue is replayed when a projected basis is installed or
its statuses are read.  When the caller replaces the projection with a
stored same-shape basis (:meth:`MutableHighsModel.restore_basis`), the
queue is dropped and the native basis is never converted to arrays.  The
siting search uses this to express its add/remove/swap moves as deltas on
one persistent per-chain model.
"""

from __future__ import annotations

from typing import Any, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.lpsolver import validate as _validate
from repro.lpsolver.model import RowFormLP
from repro.lpsolver.result import SolveResult, SolveStatus, SolverStatusError  # noqa: F401

try:
    import scipy.optimize._highspy._core as _core
except ImportError as exc:
    raise ImportError(
        "repro needs the HiGHS bindings bundled with SciPy "
        "(module scipy.optimize._highspy._core, shipped by scipy>=1.17); "
        f"this SciPy does not provide them: {exc}"
    ) from exc


class HighsSolveContext:
    """Reusable HiGHS instance with basis carry-over between solves.

    Reusing the basis is only attempted when the new LP has exactly the same
    number of columns and rows as the previous one; otherwise the solver
    starts cold.  The objective value of a warm-started solve is identical to
    a cold solve (the LP optimum is unique in value), only the time to reach
    it changes.
    """

    def __init__(self) -> None:
        self._highs = _core._Highs()
        self._highs.setOptionValue("output_flag", False)
        self._basis = None
        self._shape: Optional[Tuple[int, int]] = None

    def take_basis(self, shape: Tuple[int, int]) -> Optional[Any]:
        """Return the stored basis when it matches ``shape``, else None."""
        if self._basis is not None and self._shape == shape:
            return self._basis
        return None

    def store_basis(self, shape: Tuple[int, int], basis: Any) -> None:
        self._basis = basis
        self._shape = shape


_STATUS_MAP = {
    _core.HighsModelStatus.kOptimal: SolveStatus.OPTIMAL,
    _core.HighsModelStatus.kInfeasible: SolveStatus.INFEASIBLE,
    _core.HighsModelStatus.kUnbounded: SolveStatus.UNBOUNDED,
    _core.HighsModelStatus.kUnboundedOrInfeasible: SolveStatus.UNBOUNDED,
    _core.HighsModelStatus.kTimeLimit: SolveStatus.ITERATION_LIMIT,
    _core.HighsModelStatus.kIterationLimit: SolveStatus.ITERATION_LIMIT,
}
#: Basis statuses indexed by their integer value, for fast int -> enum
#: conversion when (re)installing a projected basis.
_BASIS_STATUSES = sorted(
    _core.HighsBasisStatus.__members__.values(), key=lambda s: int(s)
)
_BASIC = int(_core.HighsBasisStatus.kBasic)
_LOWER = int(_core.HighsBasisStatus.kLower)
_UPPER = int(_core.HighsBasisStatus.kUpper)
_ZERO = int(_core.HighsBasisStatus.kZero)


def _build_lp(row_form: RowFormLP) -> Any:
    lp = _core.HighsLp()
    num_row, num_col = row_form.shape
    lp.num_col_ = num_col
    lp.num_row_ = num_row
    lp.col_cost_ = row_form.cost
    lp.col_lower_ = row_form.lower
    lp.col_upper_ = row_form.upper
    lp.row_lower_ = row_form.row_lower
    lp.row_upper_ = row_form.row_upper
    lp.a_matrix_.num_col_ = num_col
    lp.a_matrix_.num_row_ = num_row
    lp.a_matrix_.format_ = _core.MatrixFormat.kColwise
    lp.a_matrix_.start_ = row_form.a_indptr
    lp.a_matrix_.index_ = row_form.a_indices
    lp.a_matrix_.value_ = row_form.a_data
    return lp


def solve_row_form(
    row_form: RowFormLP,
    options: "SolverOptions",
    context: Optional[HighsSolveContext] = None,
    check: bool = False,
) -> SolveResult:
    """Solve a continuous LP in row form with HiGHS directly.

    With ``check=True`` a non-optimal status raises
    :class:`~repro.lpsolver.result.SolverStatusError` instead of returning a
    ``nan`` objective — for callers that cannot tolerate silently acting on a
    failed solve.  The siting search keeps ``check=False``: infeasible
    candidate sitings are a legitimate outcome there, not an error.
    """
    highs = context._highs if context is not None else _core._Highs()
    if context is None:
        highs.setOptionValue("output_flag", False)
    # Contexts are reused across calls that may carry different options, so
    # every option is (re)set explicitly — nothing may leak between solves.
    highs.setOptionValue("presolve", "choose" if options.presolve else "off")
    highs.setOptionValue(
        "time_limit", float(options.time_limit) if options.time_limit is not None else float("inf")
    )

    shape = (row_form.num_variables, row_form.num_rows)
    highs.passModel(_build_lp(row_form))
    if context is not None:
        basis = context.take_basis(shape)
        if basis is not None:
            highs.setBasis(basis)
    highs.run()

    raw_status = highs.getModelStatus()
    status = _STATUS_MAP.get(raw_status, SolveStatus.ERROR)
    message = highs.modelStatusToString(raw_status)
    iterations = int(getattr(highs.getInfo(), "simplex_iteration_count", 0) or 0)

    if status is SolveStatus.OPTIMAL:
        x = np.asarray(highs.getSolution().col_value, dtype=float)
        raw = float(highs.getObjectiveValue())
        objective = raw + row_form.objective_constant
        if context is not None:
            context.store_basis(shape, highs.getBasis())
    else:
        x = None
        objective = float("nan")
    result = SolveResult(
        status=status,
        objective=objective,
        message=message,
        solver="highs-direct",
        iterations=iterations,
        x=x,
    )
    return result.raise_for_status() if check else result


class BasisSnapshot(NamedTuple):
    """A native HiGHS basis and the model dimensions it was taken at."""

    basis: Any
    num_cols: int
    num_rows: int


def status_arrays(basis: Any) -> Tuple[np.ndarray, np.ndarray]:
    """Int column/row status arrays of a native ``HighsBasis``.

    The only place a native basis becomes arrays: each status crosses
    pybind11 one at a time (~0.5 µs), which is why the projection is lazy.
    """
    col_status = np.fromiter((int(s) for s in basis.col_status), dtype=np.int32)
    row_status = np.fromiter((int(s) for s in basis.row_status), dtype=np.int32)
    return col_status, row_status


class MutableHighsModel:
    """One HiGHS instance whose loaded LP is mutated in place between solves.

    The model starts from :meth:`load` (a cold ``passModel``) and is then
    edited through :meth:`add_cols`/:meth:`add_rows`/:meth:`delete_cols`/
    :meth:`delete_rows`/:meth:`change_col_costs`/:meth:`change_col_bounds`/
    :meth:`change_row_bounds`.  Between solves the previous optimal basis is
    projected onto the mutated dimensions and re-installed, so the simplex
    warm-starts even across structural changes:

    * retained columns and rows keep their basis statuses,
    * new columns enter nonbasic at a finite bound (``kZero`` when free),
    * new rows enter with their slack basic,
    * when deletions removed basic columns (or nonbasic rows) the projection
      is no longer a square basis; it is installed with ``alien=True`` and
      HiGHS repairs it, which still preserves most of the basis information.

    The projection is lazy: structural edits only queue their padding or
    deletion, and the queue is replayed onto int status arrays when
    something reads them (:meth:`install_basis` of an edited basis,
    :meth:`capture_block_status`/:meth:`overlay_block_status`, or the
    validator).  :meth:`restore_basis`, an optimal :meth:`solve`,
    :meth:`load` and :meth:`clear_basis` drop the queue unread, so a splice
    whose projection is about to be replaced by a stored same-shape basis
    never converts the native basis at all.

    Instances are not thread-safe: one mutable model per annealing chain.
    """

    def __init__(self) -> None:
        self._highs = _core._Highs()
        self._highs.setOptionValue("output_flag", False)
        self.num_cols = 0
        self.num_rows = 0
        # The basis travels in two forms.  ``_snapshot`` holds the native
        # HighsBasis of the last optimal solve (or one restored by the
        # caller) with the dimensions it was taken at: installing it costs
        # nothing in Python.  ``_col_status``/``_row_status`` are int arrays
        # used only to *project* the basis across structural edits; they are
        # derived from the native object when ``_pending`` edits are
        # replayed, and converted back (the slow path) only when a projected
        # basis actually has to be installed.
        self._snapshot: Optional[BasisSnapshot] = None
        self._pending: List[Tuple[str, np.ndarray]] = []
        self._projection_dirty = False
        self._col_status: Optional[np.ndarray] = None
        self._row_status: Optional[np.ndarray] = None

    def _forget_basis(self, snapshot: Optional[BasisSnapshot] = None) -> None:
        """Carry ``snapshot`` (None: no basis) and drop every projection."""
        self._snapshot = snapshot
        self._pending = []
        self._projection_dirty = False
        self._col_status = None
        self._row_status = None

    def _queue(self, edit: str, values: np.ndarray) -> None:
        """Record a structural edit for the projection (nothing when cold)."""
        if self._snapshot is not None:
            self._pending.append((edit, values))

    def _ensure_status_arrays(self) -> bool:
        """Replay the queued edits onto the int status arrays.

        Materialises the arrays from the native basis first when needed;
        False when there is no basis to project.
        """
        if self._col_status is None or self._row_status is None:
            if self._snapshot is None:
                return False
            self._col_status, self._row_status = status_arrays(self._snapshot.basis)
        for edit, values in self._pending:
            if edit == "add_cols":
                self._col_status = np.concatenate([self._col_status, values])
            elif edit == "add_rows":
                self._row_status = np.concatenate([self._row_status, values])
            elif edit == "delete_cols":
                self._col_status = np.delete(self._col_status, values)
            else:
                self._row_status = np.delete(self._row_status, values)
            self._projection_dirty = True
        self._pending = []
        return True

    # -- structural edits -------------------------------------------------------
    def load(self, row_form: RowFormLP) -> None:
        """Replace the loaded model wholesale (cold start)."""
        if _validate.validation_enabled():
            # Empty rows are legal here: the incremental evaluator loads the
            # coupling rows empty and splices site columns in afterwards.
            # Solve entry re-checks coverage on the live model.
            _validate.validate_row_form(
                row_form, "MutableHighsModel.load", check_empty_rows=False
            )
        self._highs.passModel(_build_lp(row_form))
        self.num_rows, self.num_cols = row_form.shape
        self._forget_basis()

    def add_cols(
        self,
        cost: np.ndarray,
        lower: np.ndarray,
        upper: np.ndarray,
        starts: np.ndarray,
        row_indices: np.ndarray,
        values: np.ndarray,
    ) -> None:
        """Append columns; matrix entries may reference any existing row."""
        count = len(cost)
        self._highs.addCols(
            count,
            np.ascontiguousarray(cost, dtype=np.float64),
            np.ascontiguousarray(lower, dtype=np.float64),
            np.ascontiguousarray(upper, dtype=np.float64),
            len(values),
            np.ascontiguousarray(starts, dtype=np.int32),
            np.ascontiguousarray(row_indices, dtype=np.int32),
            np.ascontiguousarray(values, dtype=np.float64),
        )
        # Nonbasic at a finite bound; free columns sit at zero.
        padding = np.where(
            np.isfinite(lower), _LOWER, np.where(np.isfinite(upper), _UPPER, _ZERO)
        ).astype(np.int32)
        self._queue("add_cols", padding)
        self.num_cols += count

    def add_rows(
        self,
        lower: np.ndarray,
        upper: np.ndarray,
        starts: np.ndarray,
        col_indices: np.ndarray,
        values: np.ndarray,
    ) -> None:
        """Append rows; matrix entries may reference any existing column."""
        count = len(lower)
        self._highs.addRows(
            count,
            np.ascontiguousarray(lower, dtype=np.float64),
            np.ascontiguousarray(upper, dtype=np.float64),
            len(values),
            np.ascontiguousarray(starts, dtype=np.int32),
            np.ascontiguousarray(col_indices, dtype=np.int32),
            np.ascontiguousarray(values, dtype=np.float64),
        )
        self._queue("add_rows", np.full(count, _BASIC, dtype=np.int32))
        self.num_rows += count

    def delete_cols(self, indices: np.ndarray) -> None:
        indices = np.ascontiguousarray(np.sort(indices), dtype=np.int32)
        self._highs.deleteCols(len(indices), indices)
        self._queue("delete_cols", indices)
        self.num_cols -= len(indices)

    def delete_rows(self, indices: np.ndarray) -> None:
        indices = np.ascontiguousarray(np.sort(indices), dtype=np.int32)
        self._highs.deleteRows(len(indices), indices)
        self._queue("delete_rows", indices)
        self.num_rows -= len(indices)

    # -- value edits ------------------------------------------------------------
    def change_col_costs(self, indices: np.ndarray, costs: np.ndarray) -> None:
        self._highs.changeColsCost(
            len(indices),
            np.ascontiguousarray(indices, dtype=np.int32),
            np.ascontiguousarray(costs, dtype=np.float64),
        )

    def change_col_bounds(
        self, indices: np.ndarray, lower: np.ndarray, upper: np.ndarray
    ) -> None:
        self._highs.changeColsBounds(
            len(indices),
            np.ascontiguousarray(indices, dtype=np.int32),
            np.ascontiguousarray(lower, dtype=np.float64),
            np.ascontiguousarray(upper, dtype=np.float64),
        )

    def change_row_bounds(self, index: int, lower: float, upper: float) -> None:
        self._highs.changeRowBounds(int(index), float(lower), float(upper))

    def change_coeff(self, row: int, col: int, value: float) -> None:
        self._highs.changeCoeff(int(row), int(col), float(value))

    # -- basis transfer ----------------------------------------------------------
    def capture_block_status(
        self, col_start: int, col_stop: int, row_start: int, row_stop: int
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Int basis statuses of a column/row block, or None when cold.

        Callers use this to remember the statuses of a block about to be
        deleted (a leaving site, an expiring horizon step) so they can be
        transplanted onto a structurally identical replacement block with
        :meth:`overlay_block_status` — the "per-block basis memory" idea.
        """
        if not self._ensure_status_arrays():
            return None
        return (
            self._col_status[col_start:col_stop].copy(),
            self._row_status[row_start:row_stop].copy(),
        )

    def overlay_block_status(
        self,
        col_start: int,
        col_status: np.ndarray,
        row_start: int,
        row_status: np.ndarray,
    ) -> None:
        """Overwrite the projected statuses of a block with captured ones.

        The overlay usually makes the projected basis non-square (the
        transplanted block brings its own basic columns), so it is installed
        as an alien basis that HiGHS repairs — the point is preserving the
        block-local structure of the basis, not its exact squareness.
        """
        if not self._ensure_status_arrays():
            return
        self._col_status[col_start : col_start + len(col_status)] = col_status
        self._row_status[row_start : row_start + len(row_status)] = row_status
        self._projection_dirty = True

    def projected_status(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """The projected basis with every queued edit replayed.

        None when nothing is projected: a cold model, or a native basis with
        no edits since.  The validator reads this to check that the padding
        kept pace with the splices.
        """
        if not self._pending and self._col_status is None:
            return None
        self._ensure_status_arrays()
        return self._col_status, self._row_status

    def basis_snapshot(self) -> Optional[BasisSnapshot]:
        """The native basis of the last optimal solve (None when cold or edited)."""
        if self._pending or self._projection_dirty:
            return None
        return self._snapshot

    def restore_basis(self, snapshot: BasisSnapshot) -> None:
        """Adopt a stored native basis (e.g. from an earlier same-shape model).

        The snapshot is ignored unless it was taken at the model's current
        dimensions; the caller guarantees compatibility beyond that (site
        blocks are structurally identical, so a same-shape basis transfers
        across different location mixes the same way
        :class:`HighsSolveContext` reuses bases across the pricing sweep).
        Adopting it drops any queued projection unread; installing a native
        object costs nothing in Python, unlike the projected-array path.
        """
        if (snapshot.num_cols, snapshot.num_rows) == (self.num_cols, self.num_rows):
            self._forget_basis(snapshot)

    def clear_basis(self) -> None:
        """Drop every carried basis so the next solve starts cold.

        The resilience ladder uses this between a failed warm solve and its
        retry: a corrupted or badly-repaired alien basis is the most likely
        culprit for a spurious non-optimal status, and clearing it is far
        cheaper than rebuilding the whole model.
        """
        self._forget_basis()
        clear = getattr(self._highs, "clearSolver", None)
        if clear is not None:
            clear()

    # -- solving ----------------------------------------------------------------
    def install_basis(self) -> None:
        """Install the carried basis: native when clean, projected when edited.

        After structural edits the queued edits are replayed and the
        projected arrays converted back to a HighsBasis; when deletions
        removed basic columns (or nonbasic rows) the projection is no longer
        square and is installed as *alien* so HiGHS repairs it instead of
        rejecting it.
        """
        if not self._pending and not self._projection_dirty:
            if self._snapshot is not None:
                self._highs.setBasis(self._snapshot.basis)
            return
        self._ensure_status_arrays()
        if (
            self._col_status is None
            or self._row_status is None
            or len(self._col_status) != self.num_cols
            or len(self._row_status) != self.num_rows
        ):  # pragma: no cover - projection drifted; fall back to cold
            self._forget_basis()
            return
        basis = _core.HighsBasis()
        basis.col_status = [_BASIS_STATUSES[s] for s in self._col_status]
        basis.row_status = [_BASIS_STATUSES[s] for s in self._row_status]
        basic_total = int(np.count_nonzero(self._col_status == _BASIC)) + int(
            np.count_nonzero(self._row_status == _BASIC)
        )
        basis.valid = True
        basis.alien = basic_total != self.num_rows
        self._highs.setBasis(basis)

    def solve(self, options: "SolverOptions", check: bool = False) -> SolveResult:
        """Solve the currently loaded model, warm-starting when possible.

        With ``check=True`` a non-optimal status raises
        :class:`~repro.lpsolver.result.SolverStatusError` (status, message and
        iteration count attached) instead of handing back a ``nan`` objective.
        """
        if _validate.validation_enabled():
            # Solve entry audits the whole splice sequence that led here:
            # dimension bookkeeping vs the actual HiGHS model, and basis
            # padding/projection lengths after ranged adds/deletes.
            _validate.validate_mutable_model(self, "MutableHighsModel.solve")
        self._highs.setOptionValue("presolve", "choose" if options.presolve else "off")
        self._highs.setOptionValue(
            "time_limit",
            float(options.time_limit) if options.time_limit is not None else float("inf"),
        )
        self.install_basis()
        self._highs.run()
        raw_status = self._highs.getModelStatus()
        status = _STATUS_MAP.get(raw_status, SolveStatus.ERROR)
        message = self._highs.modelStatusToString(raw_status)
        iterations = int(getattr(self._highs.getInfo(), "simplex_iteration_count", 0) or 0)
        if status is SolveStatus.OPTIMAL:
            x = np.asarray(self._highs.getSolution().col_value, dtype=float)
            objective = float(self._highs.getObjectiveValue())
            self._forget_basis(
                BasisSnapshot(self._highs.getBasis(), self.num_cols, self.num_rows)
            )
        else:
            x = None
            objective = float("nan")
        result = SolveResult(
            status=status,
            objective=objective,
            message=message,
            solver="highs-mutable",
            iterations=iterations,
            x=x,
        )
        return result.raise_for_status() if check else result
