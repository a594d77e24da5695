"""The expression modelling layer: the library's former second LP form, kept as a test oracle.

The library assembles every LP directly as a
:class:`~repro.lpsolver.RowFormLP` (COO triplets through
:meth:`RowFormLP.from_triplets`, or a cached CSC template).  The readable
object API below — variables, linear expressions, ``x + 2 * y >= 4``
constraints, batched COO constraint blocks and a :class:`Model` that
compiles them — is the independent reference those assemblies are
compared against:

* :class:`Model` compiles to a :class:`RowFormLP` (:meth:`Model.to_row_form`,
  via ``scipy.sparse``) or to the ``A_ub``/``A_eq`` split
  (:meth:`Model.to_matrices`) read by ``scipy.optimize.linprog`` and
  ``scipy.optimize.milp``;
* :func:`solve_model` solves continuous models with the library's HiGHS
  backend and mixed-integer models (the full Fig. 1 MILP of
  ``tests/oracle_milp.py``) with ``scipy.optimize.milp``;
* results are :class:`OracleSolveResult` objects, which evaluate
  :class:`Variable` handles and expressions at the optimum.

Usage::

    model = Model("example", sense="min")
    x = model.add_variable("x", lower=0.0)
    y = model.add_variable("y", lower=0.0)
    model.add_constraint(x + 2 * y >= 4, name="demand")
    model.set_objective(3 * x + 5 * y)
    result = model.solve()
    print(result.value(x), result.value(y), result.objective)
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import optimize, sparse

from repro.lpsolver import RowFormLP, SolveResult, SolveStatus, SolverOptions
from repro.lpsolver import highs_backend

Number = Union[int, float]


class VariableKind(enum.Enum):
    """Domain of a decision variable."""

    CONTINUOUS = "continuous"
    INTEGER = "integer"
    BINARY = "binary"


class ConstraintSense(enum.Enum):
    """Direction of a linear constraint."""

    LESS_EQUAL = "<="
    GREATER_EQUAL = ">="
    EQUAL = "=="


@dataclass(frozen=True)
class Variable:
    """A decision variable registered in a :class:`Model`.

    Variables are immutable handles; their bounds and kind live in the model
    that created them.  They behave as linear expressions in arithmetic.
    """

    name: str
    index: int
    kind: VariableKind = VariableKind.CONTINUOUS

    def to_expression(self) -> "LinearExpression":
        """Return this variable as a single-term linear expression."""
        return LinearExpression({self.index: 1.0}, 0.0)

    # -- arithmetic delegating to LinearExpression ---------------------------
    def __add__(self, other: "ExpressionLike") -> "LinearExpression":
        return self.to_expression() + other

    def __radd__(self, other: "ExpressionLike") -> "LinearExpression":
        return self.to_expression() + other

    def __sub__(self, other: "ExpressionLike") -> "LinearExpression":
        return self.to_expression() - other

    def __rsub__(self, other: "ExpressionLike") -> "LinearExpression":
        return (-self.to_expression()) + other

    def __mul__(self, factor: Number) -> "LinearExpression":
        return self.to_expression() * factor

    def __rmul__(self, factor: Number) -> "LinearExpression":
        return self.to_expression() * factor

    def __truediv__(self, divisor: Number) -> "LinearExpression":
        return self.to_expression() / divisor

    def __neg__(self) -> "LinearExpression":
        return -self.to_expression()

    def __le__(self, other: "ExpressionLike") -> "Constraint":
        return self.to_expression() <= other

    def __ge__(self, other: "ExpressionLike") -> "Constraint":
        return self.to_expression() >= other

    def __eq__(self, other: object) -> object:  # type: ignore[override]
        if isinstance(other, (Variable, LinearExpression, int, float)):
            return self.to_expression() == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.name, self.index))

    def __repr__(self) -> str:
        return f"Variable({self.name!r}, index={self.index}, kind={self.kind.value})"


ExpressionLike = Union["LinearExpression", Variable, Number]


class LinearExpression:
    """An affine expression ``sum(coeff[i] * x_i) + constant``."""

    __slots__ = ("coefficients", "constant")

    def __init__(
        self,
        coefficients: Mapping[int, float] | None = None,
        constant: float = 0.0,
    ) -> None:
        self.coefficients: Dict[int, float] = dict(coefficients or {})
        self.constant = float(constant)

    # -- construction helpers -------------------------------------------------
    @staticmethod
    def from_value(value: ExpressionLike) -> "LinearExpression":
        """Coerce a variable, number or expression into a LinearExpression."""
        if isinstance(value, LinearExpression):
            return value.copy()
        if isinstance(value, Variable):
            return value.to_expression()
        if isinstance(value, (int, float)):
            if math.isnan(value):
                raise ValueError("cannot build a linear expression from NaN")
            return LinearExpression({}, float(value))
        raise TypeError(f"cannot interpret {value!r} as a linear expression")

    @staticmethod
    def sum(terms: Iterable[ExpressionLike]) -> "LinearExpression":
        """Sum an iterable of expression-like values efficiently."""
        total = LinearExpression()
        for term in terms:
            total._iadd(LinearExpression.from_value(term), 1.0)
        return total

    def copy(self) -> "LinearExpression":
        return LinearExpression(self.coefficients, self.constant)

    # -- internal in-place accumulation ---------------------------------------
    def _iadd(self, other: "LinearExpression", sign: float) -> None:
        for index, coeff in other.coefficients.items():
            new = self.coefficients.get(index, 0.0) + sign * coeff
            if new == 0.0:  # reprolint: ok(FLT001) sparsity bookkeeping on exact input coefficients
                self.coefficients.pop(index, None)
            else:
                self.coefficients[index] = new
        self.constant += sign * other.constant

    # -- arithmetic ------------------------------------------------------------
    def __add__(self, other: ExpressionLike) -> "LinearExpression":
        if (type(other) is float or type(other) is int) and other == other:
            # Fast path: adding a plain (non-NaN) number only shifts the constant.
            return LinearExpression(self.coefficients, self.constant + other)
        result = self.copy()
        result._iadd(LinearExpression.from_value(other), 1.0)
        return result

    def __radd__(self, other: ExpressionLike) -> "LinearExpression":
        return self.__add__(other)

    def __sub__(self, other: ExpressionLike) -> "LinearExpression":
        if (type(other) is float or type(other) is int) and other == other:
            return LinearExpression(self.coefficients, self.constant - other)
        result = self.copy()
        result._iadd(LinearExpression.from_value(other), -1.0)
        return result

    def __rsub__(self, other: ExpressionLike) -> "LinearExpression":
        result = -self
        result._iadd(LinearExpression.from_value(other), 1.0)
        return result

    def __mul__(self, factor: Number) -> "LinearExpression":
        if not isinstance(factor, (int, float)):
            raise TypeError("linear expressions can only be scaled by numbers")
        scaled = {i: c * factor for i, c in self.coefficients.items() if c * factor != 0.0}  # reprolint: ok(FLT001) sparsity bookkeeping on exact input coefficients
        return LinearExpression(scaled, self.constant * factor)

    def __rmul__(self, factor: Number) -> "LinearExpression":
        return self.__mul__(factor)

    def __truediv__(self, divisor: Number) -> "LinearExpression":
        if divisor == 0:
            raise ZeroDivisionError("division of a linear expression by zero")
        return self.__mul__(1.0 / divisor)

    def __neg__(self) -> "LinearExpression":
        return self.__mul__(-1.0)

    # -- comparisons build constraints -----------------------------------------
    def __le__(self, other: ExpressionLike) -> "Constraint":
        return Constraint(self - other, ConstraintSense.LESS_EQUAL)

    def __ge__(self, other: ExpressionLike) -> "Constraint":
        return Constraint(self - other, ConstraintSense.GREATER_EQUAL)

    def __eq__(self, other: object) -> object:  # type: ignore[override]
        if isinstance(other, (LinearExpression, Variable, int, float)):
            return Constraint(self - other, ConstraintSense.EQUAL)
        return NotImplemented

    def __hash__(self) -> int:  # expressions are mutable; identity hash
        return id(self)

    # -- evaluation -------------------------------------------------------------
    def evaluate(self, values: Mapping[int, float]) -> float:
        """Evaluate the expression given variable values keyed by index."""
        total = self.constant
        for index, coeff in self.coefficients.items():
            total += coeff * values.get(index, 0.0)
        return total

    def is_constant(self) -> bool:
        return not self.coefficients

    def __repr__(self) -> str:
        terms = " + ".join(f"{c:g}*x{i}" for i, c in sorted(self.coefficients.items()))
        if not terms:
            return f"LinearExpression({self.constant:g})"
        if self.constant:
            return f"LinearExpression({terms} + {self.constant:g})"
        return f"LinearExpression({terms})"


@dataclass
class Constraint:
    """A linear constraint ``expression (<=, >=, ==) 0``.

    The right-hand side is folded into the expression's constant term when the
    constraint is created through comparison operators, i.e. ``a <= b`` becomes
    ``(a - b) <= 0``.
    """

    expression: LinearExpression
    sense: ConstraintSense
    name: str = field(default="")

    def named(self, name: str) -> "Constraint":
        """Return the same constraint with a human-readable name attached."""
        self.name = name
        return self

    @property
    def rhs(self) -> float:
        """Right-hand side once the constant term is moved across."""
        return -self.expression.constant

    def coefficient_items(self) -> Iterable[tuple[int, float]]:
        """Iterate over ``(variable_index, coefficient)`` pairs."""
        return self.expression.coefficients.items()

    def is_trivially_feasible(self) -> bool:
        """True when the constraint has no variables and already holds."""
        if not self.expression.is_constant():
            return False
        value = self.expression.constant
        if self.sense is ConstraintSense.LESS_EQUAL:
            return value <= 1e-9
        if self.sense is ConstraintSense.GREATER_EQUAL:
            return value >= -1e-9
        return abs(value) <= 1e-9

    def violation(self, values: Mapping[int, float]) -> float:
        """Amount by which the constraint is violated for ``values`` (>= 0)."""
        value = self.expression.evaluate(values)
        if self.sense is ConstraintSense.LESS_EQUAL:
            return max(0.0, value)
        if self.sense is ConstraintSense.GREATER_EQUAL:
            return max(0.0, -value)
        return abs(value)

    def __repr__(self) -> str:
        label = f" name={self.name!r}" if self.name else ""
        return f"Constraint({self.expression!r} {self.sense.value} 0{label})"


# -- batched constraint blocks ------------------------------------------------


@dataclass
class LinearConstraintBlock:
    """A family of linear constraints in sparse COO (triplet) form.

    Row ``i`` of the block reads ``sum_k vals[k] * x[cols[k]] (sense) rhs[i]``
    over the triplets with ``rows[k] == i``.  Rows are numbered ``0..n-1``
    locally; the owning model offsets them during compilation.
    """

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    sense: ConstraintSense
    rhs: np.ndarray
    name: str = ""

    @property
    def num_rows(self) -> int:
        return int(self.rhs.shape[0])

    @property
    def num_entries(self) -> int:
        return int(self.vals.shape[0])

    def violations(self, x: np.ndarray, tolerance: float) -> np.ndarray:
        """Indices of block rows violated by the point ``x`` (for checking)."""
        values = np.bincount(
            self.rows, weights=self.vals * x[self.cols], minlength=self.num_rows
        )
        if self.sense is ConstraintSense.LESS_EQUAL:
            bad = values > self.rhs + tolerance
        elif self.sense is ConstraintSense.GREATER_EQUAL:
            bad = values < self.rhs - tolerance
        else:
            bad = np.abs(values - self.rhs) > tolerance
        return np.flatnonzero(bad)


def make_block(
    rows: Sequence[int] | np.ndarray,
    cols: Sequence[int] | np.ndarray,
    vals: Sequence[float] | np.ndarray,
    sense: ConstraintSense,
    rhs: Sequence[float] | np.ndarray,
    name: str = "",
    num_variables: Optional[int] = None,
    validate: bool = True,
) -> LinearConstraintBlock:
    """Validate triplets and build a :class:`LinearConstraintBlock`.

    With ``validate=True`` (the default for user-supplied triplets), zero
    coefficients are dropped so blocks stay as sparse as the equivalent
    object-API constraints (whose dict representation never stores zeros).
    ``validate=False`` is the trusted fast path for pre-validated skeleton
    caches; it keeps explicit zeros, which lets structurally identical models
    (same shape, different coefficient values) share one sparsity pattern.
    """
    rows = np.asarray(rows, dtype=np.int64).ravel()
    cols = np.asarray(cols, dtype=np.int64).ravel()
    vals = np.asarray(vals, dtype=np.float64).ravel()
    rhs = np.asarray(rhs, dtype=np.float64).ravel()
    if validate:
        if not (rows.shape == cols.shape == vals.shape):
            raise ValueError("rows, cols and vals must have identical lengths")
        if not isinstance(sense, ConstraintSense):
            raise ValueError(f"unknown constraint sense {sense!r}")
        if rows.size and rows.min() < 0:
            raise ValueError("block row indices cannot be negative")
        if rhs.ndim != 1 or rhs.size == 0:
            raise ValueError("a block needs at least one right-hand-side entry")
        if rows.size and rows.max() >= rhs.size:
            raise ValueError(
                f"block row index {int(rows.max())} outside the {rhs.size} rhs entries"
            )
        if cols.size:
            if cols.min() < 0:
                raise ValueError("block column indices cannot be negative")
            if num_variables is not None and cols.max() >= num_variables:
                raise ValueError(
                    f"block column index {int(cols.max())} outside the "
                    f"{num_variables} model variables"
                )
        if not np.all(np.isfinite(vals)):
            raise ValueError("block coefficients must be finite")
        if not np.all(np.isfinite(rhs)):
            raise ValueError("block right-hand sides must be finite")
        keep = vals != 0.0  # reprolint: ok(FLT001) drops structurally-zero input entries, not solver output
        if not np.all(keep):
            rows, cols, vals = rows[keep], cols[keep], vals[keep]
    return LinearConstraintBlock(rows=rows, cols=cols, vals=vals, sense=sense, rhs=rhs, name=name)


# -- the model --------------------------------------------------------------


class ModelError(ValueError):
    """Raised for malformed models (duplicate names, bad bounds, ...)."""


class Model:
    """A linear (or mixed-integer linear) optimisation model.

    Parameters
    ----------
    name:
        Human-readable model name (used in error messages and benchmarks).
    sense:
        ``"min"`` or ``"max"``.
    """

    def __init__(self, name: str = "model", sense: str = "min") -> None:
        if sense not in ("min", "max"):
            raise ModelError(f"unknown optimisation sense {sense!r}")
        self.name = name
        self.sense = sense
        # Variables live in parallel arrays; Variable handles are materialised
        # lazily so bulk registration does not pay per-object costs.
        self._var_names: List[str] = []
        self._lower: List[float] = []
        self._upper: List[float] = []
        self._kinds: Dict[int, VariableKind] = {}  # only non-continuous entries
        self._handles: List[Optional[Variable]] = []
        self._names: Dict[str, int] = {}
        self.constraints: List[Constraint] = []
        self.blocks: List[LinearConstraintBlock] = []
        self.objective: LinearExpression = LinearExpression()

    # -- variables -------------------------------------------------------------
    def add_variable(
        self,
        name: str,
        lower: float = 0.0,
        upper: float = float("inf"),
        kind: VariableKind = VariableKind.CONTINUOUS,
    ) -> Variable:
        """Register a new decision variable and return its handle."""
        if name in self._names:
            raise ModelError(f"variable {name!r} already exists in model {self.name!r}")
        if kind is VariableKind.BINARY:
            lower, upper = 0.0, 1.0
        if lower > upper:
            raise ModelError(f"variable {name!r} has lower bound {lower} > upper bound {upper}")
        index = len(self._var_names)
        variable = Variable(name=name, index=index, kind=kind)
        self._var_names.append(name)
        self._lower.append(float(lower))
        self._upper.append(float(upper))
        if kind is not VariableKind.CONTINUOUS:
            self._kinds[index] = kind
        self._handles.append(variable)
        self._names[name] = index
        return variable

    def add_variable_array(
        self,
        names: Sequence[str],
        lower: Union[float, Sequence[float], np.ndarray] = 0.0,
        upper: Union[float, Sequence[float], np.ndarray] = float("inf"),
    ) -> np.ndarray:
        """Register a batch of continuous variables; return their index array.

        This is the fast path used by the vectorized model builders: no
        :class:`Variable` objects are created up front (handles materialise
        lazily on :meth:`variable`/:attr:`variables` access) and bounds may be
        given as scalars or per-variable arrays.
        """
        count = len(names)
        lower_arr = np.broadcast_to(np.asarray(lower, dtype=float), (count,))
        upper_arr = np.broadcast_to(np.asarray(upper, dtype=float), (count,))
        if np.any(lower_arr > upper_arr):
            bad = int(np.argmax(lower_arr > upper_arr))
            raise ModelError(
                f"variable {names[bad]!r} has lower bound {lower_arr[bad]} > "
                f"upper bound {upper_arr[bad]}"
            )
        # Validate the whole batch before touching any model state, so a
        # rejected batch leaves the model exactly as it was.
        name_map = self._names
        if len(set(names)) != count:
            raise ModelError(f"duplicate names within the variable batch in model {self.name!r}")
        for name in names:
            if name in name_map:
                raise ModelError(f"variable {name!r} already exists in model {self.name!r}")
        start = len(self._var_names)
        for offset, name in enumerate(names):
            name_map[name] = start + offset
        self._var_names.extend(names)
        self._lower.extend(lower_arr.tolist())
        self._upper.extend(upper_arr.tolist())
        self._handles.extend([None] * count)
        return np.arange(start, start + count, dtype=np.int64)

    def add_binary(self, name: str) -> Variable:
        """Shorthand for a 0/1 variable."""
        return self.add_variable(name, kind=VariableKind.BINARY)

    def add_integer(self, name: str, lower: float = 0.0, upper: float = float("inf")) -> Variable:
        """Shorthand for an integer variable."""
        return self.add_variable(name, lower=lower, upper=upper, kind=VariableKind.INTEGER)

    def _handle(self, index: int) -> Variable:
        handle = self._handles[index]
        if handle is None:
            handle = Variable(
                name=self._var_names[index],
                index=index,
                kind=self._kinds.get(index, VariableKind.CONTINUOUS),
            )
            self._handles[index] = handle
        return handle

    def variable(self, name: str) -> Variable:
        """Look up a variable by name."""
        try:
            return self._handle(self._names[name])
        except KeyError:
            raise ModelError(f"no variable named {name!r} in model {self.name!r}") from None

    @property
    def variables(self) -> List[Variable]:
        return [self._handle(index) for index in range(len(self._var_names))]

    @property
    def num_variables(self) -> int:
        return len(self._var_names)

    @property
    def num_constraints(self) -> int:
        """Total constraint rows: scalar constraints plus block rows."""
        return len(self.constraints) + sum(block.num_rows for block in self.blocks)

    def bounds(self, variable: Union[Variable, int]) -> Tuple[float, float]:
        """Return ``(lower, upper)`` bounds of a variable (or variable index)."""
        index = variable.index if isinstance(variable, Variable) else int(variable)
        return self._lower[index], self._upper[index]

    def set_bounds(
        self,
        variable: Union[Variable, int],
        lower: Optional[float] = None,
        upper: Optional[float] = None,
    ) -> None:
        """Tighten or relax the bounds of an existing variable."""
        index = variable.index if isinstance(variable, Variable) else int(variable)
        if lower is not None:
            self._lower[index] = float(lower)
        if upper is not None:
            self._upper[index] = float(upper)
        if self._lower[index] > self._upper[index]:
            raise ModelError(
                f"variable {self._var_names[index]!r} has lower bound "
                f"{self._lower[index]} > upper bound {self._upper[index]}"
            )

    def fix(self, variable: Union[Variable, int], value: float) -> None:
        """Fix a variable to a constant by collapsing its bounds."""
        self.set_bounds(variable, lower=value, upper=value)

    @property
    def is_mixed_integer(self) -> bool:
        """True when any variable is integer or binary."""
        return bool(self._kinds)

    # -- constraints and objective ----------------------------------------------
    def add_constraint(self, constraint: Constraint, name: str = "") -> Constraint:
        """Add a constraint, skipping trivially satisfied constant constraints."""
        if not isinstance(constraint, Constraint):
            raise ModelError(f"expected a Constraint, got {constraint!r}")
        if name:
            constraint.name = name
        if constraint.expression.is_constant():
            if constraint.is_trivially_feasible():
                return constraint
            raise ModelError(
                f"constraint {constraint.name or constraint!r} is constant and infeasible"
            )
        self.constraints.append(constraint)
        return constraint

    def add_constraints(self, constraints: Iterable[Constraint]) -> None:
        for constraint in constraints:
            self.add_constraint(constraint)

    def add_linear_block(
        self,
        rows: Union[Sequence[int], np.ndarray],
        cols: Union[Sequence[int], np.ndarray],
        vals: Union[Sequence[float], np.ndarray],
        sense: ConstraintSense,
        rhs: Union[Sequence[float], np.ndarray],
        name: str = "",
        validate: bool = True,
    ) -> LinearConstraintBlock:
        """Ingest a whole family of constraints as sparse COO triplets.

        ``rows`` are block-local (0-based); the block contributes
        ``len(rhs)`` constraint rows, all with the same ``sense``.  This is
        the batched counterpart of :meth:`add_constraint`.  ``validate=False``
        skips triplet validation and keeps explicit zeros.
        """
        block = make_block(
            rows, cols, vals, sense, rhs, name=name,
            num_variables=self.num_variables, validate=validate,
        )
        self.blocks.append(block)
        return block

    def set_objective(self, expression: ExpressionLike) -> None:
        """Set the objective expression (interpreted with the model's sense)."""
        self.objective = LinearExpression.from_value(expression)

    # -- compilation to matrix form ----------------------------------------------
    def _gather_triplets(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Collect (rows, cols, vals, senses, rhs) across scalar constraints and blocks.

        Returns flat triplet arrays with *global* row numbering (scalar
        constraints first, then blocks in insertion order), a per-row sense
        array, and the per-row right-hand side.
        """
        row_chunks: List[np.ndarray] = []
        col_chunks: List[np.ndarray] = []
        val_chunks: List[np.ndarray] = []
        senses: List[ConstraintSense] = []
        rhs_chunks: List[np.ndarray] = []
        row_offset = 0
        if self.constraints:
            scalar_rows: List[int] = []
            scalar_cols: List[int] = []
            scalar_vals: List[float] = []
            scalar_rhs = np.empty(len(self.constraints))
            for row, constraint in enumerate(self.constraints):
                coeffs = constraint.expression.coefficients
                scalar_rows.extend([row] * len(coeffs))
                scalar_cols.extend(coeffs.keys())
                scalar_vals.extend(coeffs.values())
                scalar_rhs[row] = constraint.rhs
                senses.append(constraint.sense)
            row_chunks.append(np.asarray(scalar_rows, dtype=np.int64))
            col_chunks.append(np.asarray(scalar_cols, dtype=np.int64))
            val_chunks.append(np.asarray(scalar_vals, dtype=np.float64))
            rhs_chunks.append(scalar_rhs)
            row_offset = len(self.constraints)
        for block in self.blocks:
            row_chunks.append(block.rows + row_offset)
            col_chunks.append(block.cols)
            val_chunks.append(block.vals)
            rhs_chunks.append(block.rhs)
            senses.extend([block.sense] * block.num_rows)
            row_offset += block.num_rows
        if not rhs_chunks:
            empty_i = np.empty(0, dtype=np.int64)
            return empty_i, empty_i, np.empty(0), np.empty(0, dtype=object), np.empty(0)
        rows = np.concatenate(row_chunks)
        cols = np.concatenate(col_chunks)
        vals = np.concatenate(val_chunks)
        rhs = np.concatenate(rhs_chunks)
        sense_arr = np.array([s.value for s in senses], dtype=object)
        return rows, cols, vals, sense_arr, rhs

    def _objective_arrays(self) -> np.ndarray:
        cost = np.zeros(self.num_variables)
        if self.objective.coefficients:
            indices = np.fromiter(
                self.objective.coefficients.keys(), dtype=np.int64,
                count=len(self.objective.coefficients),
            )
            values = np.fromiter(
                self.objective.coefficients.values(), dtype=np.float64,
                count=len(self.objective.coefficients),
            )
            cost[indices] = values
        if self.sense == "max":
            cost = -cost
        return cost

    def _integrality(self) -> np.ndarray:
        integrality = np.zeros(self.num_variables, dtype=np.int64)
        for index in self._kinds:
            integrality[index] = 1
        return integrality

    def to_matrices(self) -> "CompiledModel":
        """Compile to the ``A_ub``/``A_eq`` split consumed by SciPy backends.

        Constraint matrices are assembled as :class:`scipy.sparse.csr_matrix`
        directly from COO triplets — no dense per-row intermediate is ever
        built.  ``>=`` rows are negated into ``<=`` rows as before.
        """
        n = self.num_variables
        rows, cols, vals, senses, rhs = self._gather_triplets()

        le_mask = senses == ConstraintSense.LESS_EQUAL.value
        ge_mask = senses == ConstraintSense.GREATER_EQUAL.value
        eq_mask = senses == ConstraintSense.EQUAL.value
        ub_mask = le_mask | ge_mask

        a_ub = b_ub = a_eq = b_eq = None
        if np.any(ub_mask):
            # Map original row numbers onto compact 0..m-1 numbering, flipping
            # the sign of >= rows so everything reads  A_ub x <= b_ub.
            ub_rows = np.flatnonzero(ub_mask)
            renumber = np.full(len(senses), -1, dtype=np.int64)
            renumber[ub_rows] = np.arange(len(ub_rows))
            entry_mask = ub_mask[rows]
            sign = np.where(ge_mask[rows[entry_mask]], -1.0, 1.0)
            a_ub = sparse.csr_matrix(
                (vals[entry_mask] * sign, (renumber[rows[entry_mask]], cols[entry_mask])),
                shape=(len(ub_rows), n),
            )
            b_ub = np.where(ge_mask[ub_rows], -rhs[ub_rows], rhs[ub_rows])
        if np.any(eq_mask):
            eq_rows = np.flatnonzero(eq_mask)
            renumber = np.full(len(senses), -1, dtype=np.int64)
            renumber[eq_rows] = np.arange(len(eq_rows))
            entry_mask = eq_mask[rows]
            a_eq = sparse.csr_matrix(
                (vals[entry_mask], (renumber[rows[entry_mask]], cols[entry_mask])),
                shape=(len(eq_rows), n),
            )
            b_eq = rhs[eq_rows]

        return CompiledModel(
            cost=self._objective_arrays(),
            a_ub=a_ub,
            b_ub=b_ub,
            a_eq=a_eq,
            b_eq=b_eq,
            lower=np.array(self._lower),
            upper=np.array(self._upper),
            integrality=self._integrality(),
            maximise=self.sense == "max",
            objective_constant=self.objective.constant,
        )

    def to_row_form(self) -> RowFormLP:
        """Compile to the row-bounded form ``row_lower <= A x <= row_upper``.

        The library's LP form, assembled independently through
        ``scipy.sparse`` (which sums duplicate coordinates).  ``RowFormLP``
        always minimises, so a ``"max"`` model compiles to the equivalent
        minimisation — cost and objective constant negated — and
        :func:`solve_model` negates the optimum back.
        """
        n = self.num_variables
        rows, cols, vals, senses, rhs = self._gather_triplets()
        m = len(senses)
        matrix = sparse.csc_matrix((vals, (rows, cols)), shape=(m, n))
        row_lower = np.where(senses == ConstraintSense.LESS_EQUAL.value, -np.inf, rhs)
        row_upper = np.where(senses == ConstraintSense.GREATER_EQUAL.value, np.inf, rhs)
        constant = self.objective.constant
        return RowFormLP(
            cost=self._objective_arrays(),
            a_indptr=matrix.indptr,
            a_indices=matrix.indices,
            a_data=matrix.data,
            shape=(m, n),
            row_lower=row_lower,
            row_upper=row_upper,
            lower=np.array(self._lower),
            upper=np.array(self._upper),
            objective_constant=-constant if self.sense == "max" else constant,
        )

    # -- solving and checking ------------------------------------------------------
    def solve(
        self,
        options: Optional[SolverOptions] = None,
        context: Optional[object] = None,
        **kwargs,
    ) -> "OracleSolveResult":
        """Solve the model; see :func:`solve_model` for the arguments."""
        return solve_model(self, options, context=context, **kwargs)

    def check_solution(self, values: Mapping[int, float], tolerance: float = 1e-6) -> List[str]:
        """Return a list of violated constraint/bound descriptions (empty if feasible)."""
        violations: List[str] = []
        n = self.num_variables
        x = np.zeros(n)
        for index, value in values.items():
            if 0 <= index < n:  # tolerate stray indices, as the per-variable lookup did
                x[index] = value
        for index in range(n):
            if x[index] < self._lower[index] - tolerance or x[index] > self._upper[index] + tolerance:
                violations.append(
                    f"variable {self._var_names[index]} = {x[index]:.6g} outside "
                    f"[{self._lower[index]:.6g}, {self._upper[index]:.6g}]"
                )
        for constraint in self.constraints:
            violation = constraint.violation(values)
            if violation > tolerance:
                label = constraint.name or repr(constraint)
                violations.append(f"constraint {label} violated by {violation:.6g}")
        for block in self.blocks:
            for row in block.violations(x, tolerance):
                label = f"{block.name or 'block'}[{int(row)}]"
                violations.append(f"constraint {label} violated")
        return violations

    def objective_value(self, values: Mapping[int, float]) -> float:
        """Evaluate the objective expression for a candidate solution."""
        return self.objective.evaluate(values)

    def __repr__(self) -> str:
        kind = "MILP" if self.is_mixed_integer else "LP"
        return (
            f"Model({self.name!r}, {kind}, {self.num_variables} variables, "
            f"{self.num_constraints} constraints)"
        )


@dataclass
class CompiledModel:
    """Matrix form of a model, ready for ``milp`` or ``linprog``.

    ``a_ub``/``a_eq`` are :class:`scipy.sparse.csr_matrix` (or ``None`` when
    the model has no rows of that kind).
    """

    cost: np.ndarray
    a_ub: Optional[sparse.csr_matrix]
    b_ub: Optional[np.ndarray]
    a_eq: Optional[sparse.csr_matrix]
    b_eq: Optional[np.ndarray]
    lower: np.ndarray
    upper: np.ndarray
    integrality: np.ndarray
    maximise: bool
    objective_constant: float


# -- solving ----------------------------------------------------------------


_MILP_STATUS = {
    0: SolveStatus.OPTIMAL,
    1: SolveStatus.ITERATION_LIMIT,
    2: SolveStatus.INFEASIBLE,
    3: SolveStatus.UNBOUNDED,
    4: SolveStatus.ERROR,
}


class OracleSolveResult(SolveResult):
    """A :class:`SolveResult` that evaluates variable handles and expressions."""

    __slots__ = ()

    @classmethod
    def wrap(cls, result: SolveResult, objective: float) -> "OracleSolveResult":
        return cls(
            status=result.status,
            objective=objective,
            message=result.message,
            solver=result.solver,
            iterations=result.iterations,
            x=result.x,
        )

    @property
    def values(self) -> Dict[int, float]:
        """Mapping from variable index to optimal value (empty when not optimal)."""
        if self.x is None:
            return {}
        return {index: float(value) for index, value in enumerate(self.x)}

    def value(self, item: Variable | LinearExpression) -> float:
        """Value of a variable or linear expression at the optimum."""
        if isinstance(item, Variable):
            if self.x is not None and item.index < len(self.x):
                return float(self.x[item.index])
            return 0.0
        if isinstance(item, LinearExpression):
            return item.evaluate(self.values)
        raise TypeError(f"cannot evaluate {item!r} against a solve result")

    def values_by_name(self, variables: Mapping[str, Variable]) -> Dict[str, float]:
        """Return ``{variable name: value}`` for a name->variable mapping."""
        return {name: self.value(var) for name, var in variables.items()}


def solve_model(
    model: Model,
    options: Optional[SolverOptions] = None,
    context: Optional["highs_backend.HighsSolveContext"] = None,
    *,
    mip_gap: float = 1e-4,
    relax: bool = False,
) -> OracleSolveResult:
    """Solve ``model`` and return an :class:`OracleSolveResult`.

    Continuous models (and, with ``relax=True``, the LP relaxation of a
    mixed-integer one) go to the library's HiGHS backend; ``context`` (a
    :class:`~repro.lpsolver.highs_backend.HighsSolveContext`) enables basis
    reuse across structurally identical solves.  Mixed-integer models go to
    ``scipy.optimize.milp`` with relative optimality gap ``mip_gap``.
    """
    options = options or SolverOptions()
    if model.is_mixed_integer and not relax:
        return _solve_milp(model.to_matrices(), options, mip_gap)
    result = highs_backend.solve_row_form(model.to_row_form(), options, context)
    flip = model.sense == "max" and result.is_optimal
    return OracleSolveResult.wrap(result, -result.objective if flip else result.objective)


def _finalise(
    compiled: CompiledModel,
    status: SolveStatus,
    x: Optional[np.ndarray],
    message: str,
    solver: str,
    iterations: int,
) -> OracleSolveResult:
    if status is SolveStatus.OPTIMAL and x is not None:
        raw = float(np.dot(compiled.cost, x))
        objective = (-raw if compiled.maximise else raw) + compiled.objective_constant
        x = np.asarray(x, dtype=float)
    else:
        objective = float("nan")
        x = None
    return OracleSolveResult(
        status=status,
        objective=objective,
        message=message,
        solver=solver,
        iterations=iterations,
        x=x,
    )


def _solve_milp(
    compiled: CompiledModel, options: SolverOptions, mip_gap: float
) -> OracleSolveResult:
    constraints = []
    if compiled.a_ub is not None:
        constraints.append(
            optimize.LinearConstraint(compiled.a_ub, -np.inf, compiled.b_ub)
        )
    if compiled.a_eq is not None:
        constraints.append(
            optimize.LinearConstraint(compiled.a_eq, compiled.b_eq, compiled.b_eq)
        )
    milp_options = {"presolve": options.presolve, "mip_rel_gap": mip_gap}
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
