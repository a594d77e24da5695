"""Property tests: the lazy basis projection installs the eager one's basis.

:class:`~repro.lpsolver.highs_backend.MutableHighsModel` queues the padding
and deletions of structural edits and replays them only when the projected
basis is read.  :class:`oracles.EagerProjectionModel` projects on every
edit, as the model did before.  Starting from one optimal solve, both models
get the same random sequence of column/row additions and deletions,
block captures and overlays, snapshot restores and re-solves; every basis
HiGHS is handed, and every captured block, must be the same in both.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import EagerProjectionModel

from repro.lpsolver import SolverOptions, highs_backend
from repro.lpsolver.model import RowFormLP
from repro.lpsolver.validate import LPValidationError, validate_mutable_model

OPTIONS = SolverOptions()


class _RecordingHighs:
    """Forwards to a HiGHS instance, keeping every basis passed to setBasis."""

    def __init__(self, highs) -> None:
        self._inner = highs
        self.installed = []

    def setBasis(self, basis):
        self.installed.append(
            (
                [int(s) for s in basis.col_status],
                [int(s) for s in basis.row_status],
                bool(basis.alien),
            )
        )
        return self._inner.setBasis(basis)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def base_lp() -> RowFormLP:
    """min -x0 - 2 x1 - 0.5 x2 over three rows; optimal and bounded.

    Every row admits 0, here and in the rows the tests add, so no edit
    sequence leaves an empty row the validator would reject.
    """
    # Column-wise CSC of rows: x0+x1+x2 <= 6, 2x0+x2 <= 10, x1-x2 >= -1.
    return RowFormLP(
        cost=np.array([-1.0, -2.0, -0.5]),
        a_indptr=np.array([0, 2, 4, 7], dtype=np.int32),
        a_indices=np.array([0, 1, 0, 2, 0, 1, 2], dtype=np.int32),
        a_data=np.array([1.0, 2.0, 1.0, 1.0, 1.0, 1.0, -1.0]),
        shape=(3, 3),
        row_lower=np.array([-np.inf, -np.inf, -1.0]),
        row_upper=np.array([6.0, 10.0, np.inf]),
        lower=np.zeros(3),
        upper=np.full(3, 20.0),
        objective_constant=0.0,
    )


def recorded(model_class):
    model = model_class()
    model._highs = _RecordingHighs(model._highs)
    model.load(base_lp())
    assert model.solve(OPTIONS).is_optimal
    return model


bound = st.sampled_from([0.0, -np.inf, 1.0])
upper_bound = st.sampled_from([5.0, np.inf, 20.0])


@st.composite
def add_cols(draw, rows):
    count = draw(st.integers(1, 3))
    lower = np.array([draw(bound) for _ in range(count)])
    upper = np.array([max(draw(upper_bound), lo) for lo in lower])
    cost = np.array([draw(st.sampled_from([-1.0, 0.0, 0.5, 3.0])) for _ in range(count)])
    starts, indices, values = [0], [], []
    for _ in range(count):
        hit = sorted(draw(st.sets(st.integers(0, rows - 1), max_size=2))) if rows else []
        indices.extend(hit)
        values.extend(draw(st.sampled_from([1.0, -1.0, 2.0])) for _ in hit)
        starts.append(len(indices))
    return ("add_cols", (cost, lower, upper, np.array(starts), np.array(indices), np.array(values)))


@st.composite
def add_rows(draw, cols):
    count = draw(st.integers(1, 2))
    starts, indices, values = [0], [], []
    for _ in range(count):
        hit = sorted(draw(st.sets(st.integers(0, cols - 1), max_size=2))) if cols else []
        indices.extend(hit)
        values.extend(draw(st.sampled_from([1.0, -1.0, 0.5])) for _ in hit)
        starts.append(len(indices))
    lower = np.array([draw(st.sampled_from([-np.inf, 0.0])) for _ in range(count)])
    upper = np.array([draw(st.sampled_from([np.inf, 30.0])) for _ in range(count)])
    return ("add_rows", (lower, upper, np.array(starts), np.array(indices), np.array(values)))


@st.composite
def operation(draw, cols, rows):
    kinds = ["add_cols", "add_rows", "solve", "snapshot", "restore"]
    if cols > 1:
        kinds.append("delete_cols")
    if rows > 1:
        kinds.append("delete_rows")
    if cols and rows:
        kinds.append("overlay")
    kind = draw(st.sampled_from(kinds))
    if kind == "add_cols":
        return draw(add_cols(rows))
    if kind == "add_rows":
        return draw(add_rows(cols))
    if kind in ("delete_cols", "delete_rows"):
        size = cols if kind == "delete_cols" else rows
        chosen = draw(st.sets(st.integers(0, size - 1), min_size=1, max_size=size - 1))
        return (kind, (np.array(sorted(chosen), dtype=np.int64),))
    if kind == "overlay":
        width = draw(st.integers(1, cols))
        height = draw(st.integers(1, rows))
        source = (draw(st.integers(0, cols - width)), draw(st.integers(0, rows - height)))
        target = (draw(st.integers(0, cols - width)), draw(st.integers(0, rows - height)))
        return ("overlay", (width, height, source, target))
    return (kind, ())


def apply(model, kind, args, snapshots):
    if kind in ("add_cols", "add_rows", "delete_cols", "delete_rows"):
        getattr(model, kind)(*args)
    elif kind == "overlay":
        width, height, (col, row), (to_col, to_row) = args
        captured = model.capture_block_status(col, col + width, row, row + height)
        if captured is not None:
            model.overlay_block_status(to_col, captured[0], to_row, captured[1])
        return None if captured is None else (captured[0].tolist(), captured[1].tolist())
    elif kind == "solve":
        result = model.solve(OPTIONS)
        return (result.status, result.objective if result.is_optimal else None)
    elif kind == "snapshot":
        snapshots.append(model.basis_snapshot())
        return snapshots[-1] is None
    elif kind == "restore":
        stored = [snapshot for snapshot in snapshots if snapshot is not None]
        if stored:
            model.restore_basis(stored[-1])
    return None


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_lazy_projection_installs_the_eager_basis(data):
    lazy = recorded(highs_backend.MutableHighsModel)
    eager = recorded(EagerProjectionModel)
    lazy_snapshots, eager_snapshots = [], []
    for _ in range(data.draw(st.integers(1, 8))):
        kind, args = data.draw(operation(lazy.num_cols, lazy.num_rows))
        seen = apply(lazy, kind, args, lazy_snapshots)
        assert seen == apply(eager, kind, args, eager_snapshots), kind
        assert (lazy.num_cols, lazy.num_rows) == (eager.num_cols, eager.num_rows)
    lazy.install_basis()
    eager.install_basis()
    assert lazy._highs.installed == eager._highs.installed
    final = lazy.solve(OPTIONS), eager.solve(OPTIONS)
    assert final[0].status == final[1].status
    if final[0].is_optimal:
        assert final[0].objective == final[1].objective


def single_column():
    return (np.array([1.0]), np.zeros(1), np.array([4.0]), np.array([0, 1]),
            np.array([0]), np.array([1.0]))


class TestRestoreBasis:
    def test_mismatched_dimensions_are_ignored(self):
        model = recorded(highs_backend.MutableHighsModel)
        snapshot = model.basis_snapshot()
        model.add_cols(*single_column())
        model.restore_basis(snapshot)  # taken at 3 columns; the model has 4
        assert model.basis_snapshot() is None
        model.install_basis()
        col_status, _, _ = model._highs.installed[-1]
        assert len(col_status) == 4  # the projection, not the stale snapshot

    def test_restore_drops_the_queue_unread(self, monkeypatch):
        converted = []
        original = highs_backend.status_arrays
        monkeypatch.setattr(
            highs_backend,
            "status_arrays",
            lambda basis: converted.append(1) or original(basis),
        )
        model = recorded(highs_backend.MutableHighsModel)
        snapshot = model.basis_snapshot()
        model.delete_cols(np.array([2]))
        model.add_cols(*single_column())
        model.restore_basis(snapshot)  # same dimensions again
        assert model.basis_snapshot() is snapshot
        assert model.solve(OPTIONS).is_optimal
        assert converted == []


class TestValidationReplaysTheQueue:
    def test_skipped_padding_is_detected(self, monkeypatch):
        monkeypatch.setenv("REPRO_VALIDATE", "1")
        model = recorded(highs_backend.MutableHighsModel)
        model.add_rows(np.array([-np.inf]), np.array([9.0]), np.array([0, 1]),
                       np.array([0]), np.array([1.0]))
        model._pending.pop()  # as if add_rows had skipped its padding
        with pytest.raises(LPValidationError, match="basis padding after a splice drifted"):
            validate_mutable_model(model)

    def test_sound_queue_passes(self, monkeypatch):
        monkeypatch.setenv("REPRO_VALIDATE", "1")
        model = recorded(highs_backend.MutableHighsModel)
        model.add_cols(*single_column())
        model.delete_rows(np.array([1]))
        assert model.solve(OPTIONS).is_optimal
