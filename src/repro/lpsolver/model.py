"""The row-form LP: the one LP representation of the library.

Every LP the library solves is a :class:`RowFormLP`,
``row_lower <= A @ x <= row_upper`` over column bounds, with the constraint
matrix carried as raw CSC arrays — the native input of HiGHS.  Assemblers
build one from COO triplets with :meth:`RowFormLP.from_triplets` (or, on the
provisioning hot path, by filling a cached CSC pattern from
:func:`csc_pattern` with new values).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np
from scipy import sparse

from repro.lpsolver import validate as _validate


def csc_pattern(
    rows: np.ndarray, cols: np.ndarray, shape: Tuple[int, int]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSC order of COO coordinates: ``(perm, indices, indptr)``.

    One stable sort by ``(column, row)``: ``values[perm]`` is the CSC data
    array of triplets given in the ``rows``/``cols`` order, ``indices`` and
    ``indptr`` are the CSC row indices and column starts.  Duplicate
    coordinates raise ``ValueError``: HiGHS would keep both entries, where
    ``scipy.sparse`` would sum them.
    """
    num_rows, num_cols = shape
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    codes = cols * np.int64(num_rows) + rows
    perm = np.argsort(codes, kind="stable")
    sorted_codes = codes[perm]
    duplicate = np.flatnonzero(sorted_codes[1:] == sorted_codes[:-1])
    if len(duplicate):
        code = int(sorted_codes[duplicate[0]])
        raise ValueError(
            f"{len(duplicate)} duplicate matrix coordinate(s), first at "
            f"(row {code % num_rows}, col {code // num_rows})"
        )
    indptr = np.zeros(num_cols + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=num_cols), out=indptr[1:])
    return perm, rows[perm].astype(np.int32), indptr.astype(np.int32)


@dataclass
class RowFormLP:
    """Row-bounded LP ``min cost @ x + objective_constant`` s.t. ``row_lower <= A @ x <= row_upper``.

    The native HiGHS input form: the constraint matrix is carried as raw CSC
    arrays (``a_indptr``/``a_indices``/``a_data`` with ``shape = (rows,
    cols)``) so they can be handed to ``HighsLp`` without conversion or
    re-validation.  Every variable is continuous, bounded by
    ``lower <= x <= upper``.
    """

    cost: np.ndarray
    a_indptr: np.ndarray
    a_indices: np.ndarray
    a_data: np.ndarray
    shape: Tuple[int, int]
    row_lower: np.ndarray
    row_upper: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    objective_constant: float

    @classmethod
    def from_triplets(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        shape: Tuple[int, int],
        row_lower: np.ndarray,
        row_upper: np.ndarray,
        lower: np.ndarray,
        upper: np.ndarray,
        cost: np.ndarray,
        objective_constant: float = 0.0,
        label: str = "row-form LP",
    ) -> "RowFormLP":
        """Assemble an LP from COO triplets ``A[rows[k], cols[k]] = vals[k]``.

        Entries keep their values, explicit zeros included; duplicate
        coordinates raise (see :func:`csc_pattern`).  Under
        ``REPRO_VALIDATE=1`` the result is audited with
        :func:`~repro.lpsolver.validate.validate_row_form` (``label`` names
        it in the error).
        """
        perm, indices, indptr = csc_pattern(rows, cols, shape)
        row_form = cls(
            cost=cost,
            a_indptr=indptr,
            a_indices=indices,
            a_data=np.asarray(vals, dtype=np.float64)[perm],
            shape=(int(shape[0]), int(shape[1])),
            row_lower=row_lower,
            row_upper=row_upper,
            lower=lower,
            upper=upper,
            objective_constant=float(objective_constant),
        )
        if _validate.validation_enabled():
            _validate.validate_row_form(row_form, label)
        return row_form

    @property
    def matrix(self) -> sparse.csc_matrix:
        """The constraint matrix as a scipy CSC matrix (built on demand)."""
        return sparse.csc_matrix(
            (self.a_data, self.a_indices, self.a_indptr), shape=self.shape
        )

    @property
    def num_variables(self) -> int:
        return int(self.shape[1])

    @property
    def num_rows(self) -> int:
        return int(self.shape[0])
