"""Structural LP validation behind the ``REPRO_VALIDATE=1`` environment knob.

The incremental machinery (in-place :class:`MutableHighsModel` splices,
block-diagonal stacking, compiled-skeleton instantiation) trades re-validation
for speed: HiGHS is handed raw CSC arrays with no checking, so a malformed
model — a NaN cost smuggled in by an uninitialised profile, a crossed bound
after a resize edit, duplicate COO coordinates from a buggy skeleton rewrite,
a basis projection whose length drifted from the model after a ranged
delete — produces silently-wrong optima rather than errors.

This module makes every such hand-off auditable.  With ``REPRO_VALIDATE=1``
in the environment the structural hand-off points validate their models and
raise :class:`LPValidationError` listing *all* violations:

* :meth:`RowFormLP.from_triplets` — every LP assembled from COO triplets
  (the dispatch window, the stochastic-ensemble and contingency LPs, the
  GreenNebula window LP);
* :meth:`ProvisioningCompiler.compile_row_form` — every compiled-skeleton
  instantiation of the provisioning LP;
* :meth:`MutableHighsModel.load` / :meth:`MutableHighsModel.solve` — the cold
  row-form load, and the dimension/basis bookkeeping after any splice
  sequence (every solve follows the splices that produced it);
* :func:`repro.lpsolver.batch.stack_block_diagonal` — the stacked mega-LP and
  its block boundary offsets.

Validation is O(nnz) numpy per call and entirely skipped (one dict lookup)
when the knob is off, so production paths pay nothing; the differential test
suite run under ``REPRO_VALIDATE=1`` doubles as an invariant audit of every
splice and stack it exercises.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, List, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lpsolver.model import RowFormLP

__all__ = [
    "LPValidationError",
    "validation_enabled",
    "validate_row_form",
    "validate_block_offsets",
    "validate_mutable_model",
]

_TRUTHY = frozenset({"1", "true", "yes", "on"})


class LPValidationError(AssertionError):
    """A structural invariant of an LP hand-off was violated.

    Subclasses ``AssertionError`` deliberately: a violation is a programming
    error in model assembly, never a data-dependent runtime condition, and
    must not be swallowed by the solver-resilience retry ladders (which catch
    :class:`~repro.lpsolver.result.SolverStatusError`, not assertions).
    """

    def __init__(self, label: str, violations: List[str]) -> None:
        self.label = label
        self.violations = list(violations)
        details = "\n  - ".join(violations)
        super().__init__(f"LP validation failed for {label}:\n  - {details}")


def validation_enabled() -> bool:
    """True when ``REPRO_VALIDATE`` is set to a truthy value.

    Read from the environment on every call (not cached) so tests can toggle
    validation with ``monkeypatch.setenv``; the lookup is a few hundred
    nanoseconds against millisecond-scale solves.
    """
    return os.environ.get("REPRO_VALIDATE", "").strip().lower() in _TRUTHY


def _check_finite(name: str, values: np.ndarray, violations: List[str], *, allow_inf: bool) -> None:
    values = np.asarray(values)
    if values.size == 0:
        return
    if allow_inf:
        if np.isnan(values).any():
            where = int(np.flatnonzero(np.isnan(values))[0])
            violations.append(f"{name} contains NaN (first at index {where})")
    elif not np.isfinite(values).all():
        bad = ~np.isfinite(values)
        where = int(np.flatnonzero(bad)[0])
        kind = "NaN" if np.isnan(values[bad]).any() else "Inf"
        violations.append(f"{name} contains {kind} (first at index {where})")


def row_form_violations(row_form: "RowFormLP", *, check_empty_rows: bool = True) -> List[str]:
    """All structural violations of one row-form LP (empty when sound).

    ``check_empty_rows=False`` is for staged assembly: the incremental
    evaluator legitimately loads a zero-column model holding only coupling
    rows and splices site blocks in afterwards, so empty rows are checked at
    solve time (:func:`validate_mutable_model`) instead of load time.
    """
    violations: List[str] = []
    num_rows, num_cols = (int(row_form.shape[0]), int(row_form.shape[1]))

    cost = np.asarray(row_form.cost)
    lower = np.asarray(row_form.lower)
    upper = np.asarray(row_form.upper)
    row_lower = np.asarray(row_form.row_lower)
    row_upper = np.asarray(row_form.row_upper)
    indptr = np.asarray(row_form.a_indptr)
    indices = np.asarray(row_form.a_indices)
    data = np.asarray(row_form.a_data)

    # -- array lengths agree with the declared shape --------------------------
    for name, array, expect in (
        ("cost", cost, num_cols),
        ("lower", lower, num_cols),
        ("upper", upper, num_cols),
        ("row_lower", row_lower, num_rows),
        ("row_upper", row_upper, num_rows),
    ):
        if len(array) != expect:
            violations.append(f"{name} has length {len(array)}, expected {expect}")
    if len(indptr) != num_cols + 1:
        violations.append(f"a_indptr has length {len(indptr)}, expected {num_cols + 1}")
    if len(indices) != len(data):
        violations.append(
            f"a_indices ({len(indices)}) and a_data ({len(data)}) lengths differ"
        )

    # -- finiteness ------------------------------------------------------------
    _check_finite("cost", cost, violations, allow_inf=False)
    _check_finite("a_data", data, violations, allow_inf=False)
    _check_finite("lower", lower, violations, allow_inf=True)
    _check_finite("upper", upper, violations, allow_inf=True)
    _check_finite("row_lower", row_lower, violations, allow_inf=True)
    _check_finite("row_upper", row_upper, violations, allow_inf=True)

    # -- crossed bounds ---------------------------------------------------------
    if len(lower) == len(upper):
        crossed = lower > upper
        if crossed.any():
            where = int(np.flatnonzero(crossed)[0])
            violations.append(
                f"crossed column bounds lb>ub at column {where} "
                f"({lower[where]!r} > {upper[where]!r})"
            )
    if len(row_lower) == len(row_upper):
        crossed = row_lower > row_upper
        if crossed.any():
            where = int(np.flatnonzero(crossed)[0])
            violations.append(
                f"crossed row bounds lb>ub at row {where} "
                f"({row_lower[where]!r} > {row_upper[where]!r})"
            )

    # -- CSC structure ----------------------------------------------------------
    structure_ok = len(indptr) == num_cols + 1 and len(indices) == len(data)
    if structure_ok:
        if len(indptr) and indptr[0] != 0:
            violations.append(f"a_indptr must start at 0, got {int(indptr[0])}")
            structure_ok = False
        if len(indptr) and indptr[-1] != len(data):
            violations.append(
                f"a_indptr must end at nnz={len(data)}, got {int(indptr[-1])}"
            )
            structure_ok = False
        if np.any(np.diff(indptr) < 0):
            violations.append("a_indptr is not monotonically non-decreasing")
            structure_ok = False
    if structure_ok and len(indices):
        if indices.min() < 0 or indices.max() >= num_rows:
            violations.append(
                f"a_indices outside [0, {num_rows}): "
                f"min {int(indices.min())}, max {int(indices.max())}"
            )
            structure_ok = False

    # -- duplicate COO coordinates ----------------------------------------------
    if structure_ok and len(indices):
        entry_cols = np.repeat(np.arange(num_cols, dtype=np.int64), np.diff(indptr))
        keys = entry_cols * np.int64(max(num_rows, 1)) + indices.astype(np.int64)
        unique = np.unique(keys)
        if len(unique) != len(keys):
            sorted_keys = np.sort(keys)
            dup = sorted_keys[np.flatnonzero(np.diff(sorted_keys) == 0)[0]]
            violations.append(
                f"duplicate COO coordinate (row {int(dup % max(num_rows, 1))}, "
                f"col {int(dup // max(num_rows, 1))}): "
                "HiGHS sums duplicates, silently changing the model"
            )

    # -- empty rows / orphan columns --------------------------------------------
    if structure_ok and check_empty_rows:
        row_nnz = np.bincount(indices.astype(np.int64), minlength=num_rows) if num_rows else np.zeros(0, dtype=np.int64)
        empty = np.flatnonzero(row_nnz == 0)
        if len(empty) and len(row_lower) == num_rows and len(row_upper) == num_rows:
            violations.extend(_empty_row_violations(empty, row_lower, row_upper))
        col_nnz = np.diff(indptr) if len(indptr) == num_cols + 1 else None
        if (
            col_nnz is not None
            and len(cost) == num_cols
            and len(lower) == num_cols
            and len(upper) == num_cols
        ):
            # Orphan columns (no matrix entries) pinned at a point are by
            # design here: the uniform per-site blocks keep every variable
            # family present and fix unused ones to lb=ub=0 so that siting
            # moves stay pure range splices.  What is *never* legitimate is
            # an orphan whose cost pushes it toward an infinite bound — the
            # LP is unbounded by construction (RowFormLP always minimises).
            orphan = (col_nnz == 0) & (
                ((cost < 0.0) & ~np.isfinite(upper)) | ((cost > 0.0) & ~np.isfinite(lower))
            )
            if orphan.any():
                where = int(np.flatnonzero(orphan)[0])
                violations.append(
                    f"orphan column {where} with no matrix entries and cost "
                    f"{cost[where]!r} toward an infinite bound (unbounded by "
                    "construction)"
                )
    return violations


def _empty_row_violations(
    empty: np.ndarray, row_lower: np.ndarray, row_upper: np.ndarray
) -> List[str]:
    """Violations for rows with no matrix entries.

    An empty row constrains 0: bounds excluding 0 make the whole LP
    infeasible by construction; bounds including 0 are dead weight that no
    assembly path here should ever emit.
    """
    infeasible = empty[(row_lower[empty] > 0.0) | (row_upper[empty] < 0.0)]
    if len(infeasible):
        return [
            f"empty row {int(infeasible[0])} with bounds excluding 0 "
            "(infeasible by construction)"
        ]
    return [
        f"{len(empty)} empty row(s) (first: {int(empty[0])}) with no matrix entries"
    ]


def validate_row_form(
    row_form: "RowFormLP", label: str = "row-form LP", *, check_empty_rows: bool = True
) -> None:
    """Raise :class:`LPValidationError` when ``row_form`` is malformed."""
    violations = row_form_violations(row_form, check_empty_rows=check_empty_rows)
    if violations:
        raise LPValidationError(label, violations)


def validate_block_offsets(
    stacked: "RowFormLP",
    col_offsets: np.ndarray,
    row_offsets: np.ndarray,
    num_blocks: int,
    label: str = "block-diagonal stack",
) -> None:
    """Validate a stacked LP plus its block boundaries.

    Beyond per-model soundness this asserts the block-diagonal contract that
    lets per-block objectives be read back from solution slices: boundary
    offsets are monotone, cover the stacked dimensions exactly, and no matrix
    entry of a block's columns escapes the block's row range.
    """
    violations = row_form_violations(stacked)
    col_offsets = np.asarray(col_offsets)
    row_offsets = np.asarray(row_offsets)
    if len(col_offsets) != num_blocks + 1 or len(row_offsets) != num_blocks + 1:
        violations.append(
            f"offset arrays must have {num_blocks + 1} entries, got "
            f"{len(col_offsets)}/{len(row_offsets)}"
        )
    else:
        if col_offsets[0] != 0 or col_offsets[-1] != stacked.shape[1]:
            violations.append("col_offsets do not cover the stacked columns")
        if row_offsets[0] != 0 or row_offsets[-1] != stacked.shape[0]:
            violations.append("row_offsets do not cover the stacked rows")
        if np.any(np.diff(col_offsets) < 0) or np.any(np.diff(row_offsets) < 0):
            violations.append("block offsets are not monotone")
        elif len(stacked.a_indices):
            indptr = np.asarray(stacked.a_indptr)
            indices = np.asarray(stacked.a_indices)
            if len(indptr) == stacked.shape[1] + 1 and indptr[-1] == len(indices):
                entry_cols = np.repeat(
                    np.arange(stacked.shape[1], dtype=np.int64), np.diff(indptr)
                )
                # Block index of each entry's column and row; they must agree.
                col_block = np.searchsorted(col_offsets, entry_cols, side="right") - 1
                row_block = np.searchsorted(row_offsets, indices, side="right") - 1
                escaped = col_block != row_block
                if escaped.any():
                    where = int(np.flatnonzero(escaped)[0])
                    violations.append(
                        f"matrix entry at (row {int(indices[where])}, col "
                        f"{int(entry_cols[where])}) crosses block boundaries — "
                        "the stack is not block-diagonal"
                    )
    if violations:
        raise LPValidationError(label, violations)


def validate_mutable_model(model: Any, label: str = "mutable HiGHS model") -> None:
    """Validate a :class:`MutableHighsModel`'s dimension/basis bookkeeping.

    Called on solve entry, i.e. after any sequence of in-place splices:

    * the tracked ``num_cols``/``num_rows`` must match what HiGHS actually
      holds (a drift means a splice miscounted an add/delete range);
    * the carried basis must match the tracked dimensions: a native basis
      by the dimensions it was taken at, a projected one by its status
      arrays with every queued splice edit replayed (a mismatch means
      padding after an add/delete range was skipped or mis-sized —
      installing such a basis corrupts the warm start silently, because
      HiGHS "repairs" it);
    * the spliced model's costs/bounds/values must be NaN-free with no
      crossed bounds, and every row whose bounds exclude 0 must have matrix
      entries — staged rows (loaded empty, filled by later ``add_cols``) must
      be covered by the time anything solves.
    """
    violations: List[str] = []
    highs = getattr(model, "_highs", None)
    actual_cols: Optional[int] = None
    actual_rows: Optional[int] = None
    if highs is not None:
        get_cols = getattr(highs, "getNumCol", None)
        get_rows = getattr(highs, "getNumRow", None)
        if callable(get_cols) and callable(get_rows):
            actual_cols = int(get_cols())
            actual_rows = int(get_rows())
    if actual_cols is not None and actual_cols != model.num_cols:
        violations.append(
            f"tracked num_cols={model.num_cols} but HiGHS holds {actual_cols} columns"
        )
    if actual_rows is not None and actual_rows != model.num_rows:
        violations.append(
            f"tracked num_rows={model.num_rows} but HiGHS holds {actual_rows} rows"
        )
    # A native basis carried with no edits since must fit as it is.
    snapshot = model.basis_snapshot()
    if snapshot is not None and (snapshot.num_cols, snapshot.num_rows) != (
        model.num_cols,
        model.num_rows,
    ):
        violations.append(
            f"carried basis was taken at {snapshot.num_cols} columns and "
            f"{snapshot.num_rows} rows, the model has {model.num_cols} and "
            f"{model.num_rows} (basis padding after a splice drifted)"
        )
    # Replays the queued splice edits, so skipped padding shows up here.
    projected = model.projected_status()
    col_status, row_status = projected if projected is not None else (None, None)
    if col_status is not None and len(col_status) != model.num_cols:
        violations.append(
            f"projected basis has {len(col_status)} column statuses for "
            f"{model.num_cols} columns (basis padding after a splice drifted)"
        )
    if row_status is not None and len(row_status) != model.num_rows:
        violations.append(
            f"projected basis has {len(row_status)} row statuses for "
            f"{model.num_rows} rows (basis padding after a splice drifted)"
        )
    get_lp = getattr(highs, "getLp", None) if highs is not None else None
    if callable(get_lp):
        violations.extend(_live_lp_violations(get_lp()))
    if violations:
        raise LPValidationError(label, violations)


def _live_lp_violations(lp: Any) -> List[str]:
    """Structural violations of the LP HiGHS currently holds (post-splice)."""
    violations: List[str] = []
    num_rows = int(lp.num_row_)
    cost = np.asarray(lp.col_cost_, dtype=float)
    lower = np.asarray(lp.col_lower_, dtype=float)
    upper = np.asarray(lp.col_upper_, dtype=float)
    row_lower = np.asarray(lp.row_lower_, dtype=float)
    row_upper = np.asarray(lp.row_upper_, dtype=float)
    values = np.asarray(lp.a_matrix_.value_, dtype=float)
    _check_finite("spliced cost", cost, violations, allow_inf=False)
    _check_finite("spliced a_data", values, violations, allow_inf=False)
    _check_finite("spliced lower", lower, violations, allow_inf=True)
    _check_finite("spliced upper", upper, violations, allow_inf=True)
    _check_finite("spliced row_lower", row_lower, violations, allow_inf=True)
    _check_finite("spliced row_upper", row_upper, violations, allow_inf=True)
    if len(lower) == len(upper) and (lower > upper).any():
        where = int(np.flatnonzero(lower > upper)[0])
        violations.append(
            f"spliced crossed column bounds lb>ub at column {where} "
            f"({lower[where]!r} > {upper[where]!r})"
        )
    if len(row_lower) == len(row_upper) and (row_lower > row_upper).any():
        where = int(np.flatnonzero(row_lower > row_upper)[0])
        violations.append(
            f"spliced crossed row bounds lb>ub at row {where} "
            f"({row_lower[where]!r} > {row_upper[where]!r})"
        )
    # Row coverage: the matrix may be held row- or column-wise after edits.
    starts = np.asarray(lp.a_matrix_.start_, dtype=np.int64)
    indices = np.asarray(lp.a_matrix_.index_, dtype=np.int64)
    matrix_format = getattr(lp.a_matrix_, "format_", None)
    row_nnz: Optional[np.ndarray] = None
    if "Row" in str(getattr(matrix_format, "name", matrix_format)):
        if len(starts) == num_rows + 1:
            row_nnz = np.diff(starts)
    elif num_rows:
        row_nnz = np.bincount(indices, minlength=num_rows)
    if row_nnz is not None and len(row_lower) == num_rows and len(row_upper) == num_rows:
        empty = np.flatnonzero(row_nnz == 0)
        infeasible = empty[(row_lower[empty] > 0.0) | (row_upper[empty] < 0.0)]
        if len(infeasible):
            violations.append(
                f"spliced empty row {int(infeasible[0])} with bounds excluding 0 "
                "(a staged or spliced row was never filled)"
            )
    return violations
