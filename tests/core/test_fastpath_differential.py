"""Differential tests pinning the compiled provisioning LP.

Two independent construction routes must produce the same LP:

* the **scalar** builder (readable per-epoch object-API loops, the reference
  implementation of the Fig. 1 constraints, kept in ``tests/oracles.py``),
  compiled through ``scipy.sparse``, and
* the library's **compiled row form** (per-site COO skeletons, a cached
  CSC pattern per siting shape, values only), the one assembly path.

The tests compare canonicalized constraint matrices entry-for-entry and the
optimal objectives of representative provisioning problems (also against a
``scipy.optimize.linprog`` solve of the same LP), on the 32-epoch test grid
and on a single-epoch grid, where the cyclic coupling rows read their own
epoch; on that grid the batched pricing stack, the incremental evaluator and
a whole plan are pinned too.  The rest pins the behavioural guarantees the
heuristic relies on: the siting-evaluation memo returns the identical
result object, and parallel annealing chains are deterministic under a fixed
seed.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import (
    EnergySources,
    HeuristicSolver,
    IncrementalSitingEvaluator,
    PlacementTool,
    SearchSettings,
    SitingProblem,
    StorageMode,
)
from repro.core.problem import GreenEnforcement
from repro.core.provisioning import (
    ProvisioningCompiler,
    ProvisioningModelBuilder,
    solve_provisioning,
)
from repro.core.screening import price_batch, price_per_site
from repro.energy import EpochGrid
from repro.lpsolver import SolverOptions, highs_backend
from oracles import ScalarProvisioningBuilder, linprog_solve


def _canonical_rows(row_form):
    """Dense [A | row_lower | row_upper] with rows sorted canonically."""
    dense = np.column_stack(
        [row_form.matrix.toarray(), row_form.row_lower, row_form.row_upper]
    )
    dense = np.nan_to_num(dense, posinf=1e300, neginf=-1e300)
    return dense[np.lexsort(dense.T[::-1])]


def _assert_same_lp(scalar, compiled):
    """The scalar oracle's LP and the compiled row form agree entry for entry."""
    assert scalar.shape == compiled.shape
    np.testing.assert_allclose(
        _canonical_rows(scalar), _canonical_rows(compiled), rtol=1e-12, atol=1e-12
    )
    # Objectives and bounds agree exactly.
    np.testing.assert_allclose(scalar.cost, compiled.cost, rtol=1e-12, atol=1e-12)
    np.testing.assert_array_equal(scalar.lower, compiled.lower)
    np.testing.assert_array_equal(scalar.upper, compiled.upper)
    assert scalar.objective_constant == pytest.approx(compiled.objective_constant, rel=1e-12)


def _scenario(two_site_problem, storage, enforcement):
    return two_site_problem.with_updates(storage=storage, green_enforcement=enforcement)


SCENARIOS = [
    (StorageMode.NET_METERING, GreenEnforcement.ANNUAL),
    (StorageMode.NET_METERING, GreenEnforcement.PER_EPOCH),
    (StorageMode.BATTERIES, GreenEnforcement.ANNUAL),
    (StorageMode.NONE, GreenEnforcement.ANNUAL),
]


class TestBuilderEquivalence:
    @pytest.mark.parametrize("storage,enforcement", SCENARIOS)
    def test_identical_matrices(self, two_site_problem, storage, enforcement):
        problem = _scenario(two_site_problem, storage, enforcement)
        siting = {problem.profiles[0].name: "large", problem.profiles[1].name: "small"}
        scalar = ScalarProvisioningBuilder(problem, siting)
        compiled = ProvisioningModelBuilder(problem, siting)
        _assert_same_lp(scalar.row_form, compiled.row_form)

    @pytest.mark.parametrize("storage,enforcement", SCENARIOS)
    def test_identical_objectives(self, two_site_problem, storage, enforcement):
        problem = _scenario(two_site_problem, storage, enforcement)
        siting = {profile.name: "large" for profile in problem.profiles}
        scalar = ScalarProvisioningBuilder(problem, siting).solve()
        vectorized = solve_provisioning(problem, siting)
        linprog = linprog_solve(ProvisioningModelBuilder(problem, siting).row_form)
        assert scalar.feasible and vectorized.feasible and linprog.is_optimal
        assert vectorized.monthly_cost == pytest.approx(scalar.monthly_cost, rel=1e-6)
        assert linprog.objective == pytest.approx(scalar.monthly_cost, rel=1e-6)
        # The extracted plans price to the same total through the cost model.
        assert vectorized.plan.total_monthly_cost == pytest.approx(
            scalar.plan.total_monthly_cost, rel=1e-6
        )

    def test_template_reuse_matches_scalar_oracle(self, two_site_problem):
        """Sitings sharing one cached CSC pattern each match the scalar oracle."""
        compiler = ProvisioningCompiler(two_site_problem)
        names = [profile.name for profile in two_site_problem.profiles]
        for siting in (
            {names[0]: "large", names[1]: "large"},
            # Same shape, different location order: exercises template reuse.
            {names[1]: "large", names[0]: "large"},
            {names[0]: "small"},
        ):
            row_form, layouts = compiler.compile_row_form(siting, enforce_spread=True)
            reference = ScalarProvisioningBuilder(two_site_problem, siting).row_form
            _assert_same_lp(reference, row_form)
            assert len(layouts) == len(siting)

    def test_template_rejects_duplicate_coordinates(self, two_site_problem):
        """A skeleton naming one (row, col) twice fails loudly, never silently."""
        compiler = ProvisioningCompiler(two_site_problem)
        skeleton = compiler.site_skeleton(two_site_problem.profiles[0].name, "large")
        tri_rows = skeleton.tri_rows.copy()
        tri_cols = skeleton.tri_cols.copy()
        tri_rows[1], tri_cols[1] = tri_rows[0], tri_cols[0]
        broken = dataclasses.replace(skeleton, tri_rows=tri_rows, tri_cols=tri_cols)
        with pytest.raises(ValueError, match="duplicate matrix coordinate"):
            compiler._build_template([broken], True, True, False)

    @pytest.mark.slow
    def test_identical_matrices_hourly_grid(self, two_site_problem, profile_builder, hourly_grid, small_catalog):
        """The equivalence holds on the fine 96-epoch grid too."""
        profiles = [
            profile_builder.build(small_catalog.get(profile.name), hourly_grid)
            for profile in two_site_problem.profiles
        ]
        problem = SitingProblem(
            profiles=profiles,
            params=two_site_problem.params,
            sources=two_site_problem.sources,
            storage=StorageMode.BATTERIES,
        )
        siting = {profiles[0].name: "large", profiles[1].name: "large"}
        scalar = ScalarProvisioningBuilder(problem, siting)
        compiled = ProvisioningModelBuilder(problem, siting)
        _assert_same_lp(scalar.row_form, compiled.row_form)


#: One representative day as one 24-hour epoch: the cyclic migration and
#: storage-level rows couple the epoch to itself.
SINGLE_EPOCH_GRID = EpochGrid((100,), 24)
SINGLE_EPOCH_STORAGE = [StorageMode.NET_METERING, StorageMode.BATTERIES, StorageMode.NONE]


@pytest.fixture(scope="module")
def single_epoch_problem(two_site_problem, profile_builder, small_catalog):
    profiles = [
        profile_builder.build(small_catalog.get(profile.name), SINGLE_EPOCH_GRID)
        for profile in two_site_problem.profiles
    ]
    return SitingProblem(
        profiles=profiles,
        params=two_site_problem.params.with_updates(min_green_fraction=0.2),
        sources=EnergySources.SOLAR_AND_WIND,
        storage=StorageMode.NET_METERING,
    )


class TestSingleEpochGrid:
    @pytest.mark.parametrize("storage", SINGLE_EPOCH_STORAGE)
    def test_matches_scalar_oracle(self, single_epoch_problem, storage):
        problem = single_epoch_problem.with_updates(storage=storage)
        assert problem.num_epochs == 1
        names = [profile.name for profile in problem.profiles]
        for siting, spread in (
            ({names[0]: "large", names[1]: "large"}, True),
            ({names[0]: "large", names[1]: "small"}, False),
        ):
            scalar = ScalarProvisioningBuilder(problem, siting, enforce_spread=spread)
            compiled = ProvisioningModelBuilder(problem, siting, enforce_spread=spread)
            _assert_same_lp(scalar.row_form, compiled.row_form)
            expected = scalar.solve()
            result = compiled.solve()
            assert expected.feasible and result.feasible
            assert result.monthly_cost == pytest.approx(expected.monthly_cost, rel=1e-9)

    def test_recorded_objective(self, single_epoch_problem):
        """Two large sites at 20 % green, as solved by the Model-based fallback it replaced."""
        siting = {profile.name: "large" for profile in single_epoch_problem.profiles}
        result = solve_provisioning(single_epoch_problem, siting)
        assert result.monthly_cost == pytest.approx(22305408.027474385, rel=1e-9)

    @pytest.mark.parametrize("storage", SINGLE_EPOCH_STORAGE)
    def test_batch_pricing_matches_per_site(self, single_epoch_problem, storage):
        # 5 MW fits a small site, so every block of the stack is feasible and
        # the stacked solve (not its per-site fallback) produces the prices.
        problem = single_epoch_problem.with_updates(
            storage=storage,
            params=single_epoch_problem.params.with_updates(total_capacity_kw=5_000.0),
        )
        sitings = [
            (profile.name, size_class)
            for profile in problem.profiles
            for size_class in ("large", "small")
        ]
        options = SolverOptions()
        stacked = ProvisioningCompiler(problem).compile_batch(sitings)
        assert highs_backend.solve_row_form(stacked.row_form, options).is_optimal
        batched = price_batch(problem, sitings, options, ProvisioningCompiler(problem))
        per_site = price_per_site(problem, sitings, options, ProvisioningCompiler(problem))
        assert [row[0] for row in batched] == [row[0] for row in per_site]
        assert [row[2] for row in batched] == [row[2] for row in per_site]
        np.testing.assert_allclose(
            [row[1] for row in batched], [row[1] for row in per_site], rtol=1e-9
        )

    @pytest.mark.parametrize("storage", SINGLE_EPOCH_STORAGE)
    def test_incremental_matches_cold_solves(self, single_epoch_problem, storage):
        problem = single_epoch_problem.with_updates(storage=storage)
        a, b = (profile.name for profile in problem.profiles)
        evaluator = IncrementalSitingEvaluator(ProvisioningCompiler(problem))
        for siting in (
            {a: "large"},
            {a: "large", b: "large"},
            {a: "small", b: "large"},
            {b: "large"},
            {b: "small", a: "large"},
        ):
            warm = evaluator.evaluate(siting)
            cold = evaluator.rebuild(siting)
            assert warm.feasible == cold.feasible
            if cold.feasible:
                assert warm.monthly_cost == pytest.approx(cold.monthly_cost, rel=1e-9)
        assert evaluator.solves == 5

    def test_plan_network(self, small_catalog, fast_settings):
        """A whole plan on a single-epoch grid, as recorded before T = 1 took the row form."""
        tool = PlacementTool(catalog=small_catalog, epoch_grid=SINGLE_EPOCH_GRID)
        solution = tool.plan_network(
            total_capacity_kw=50_000.0,
            min_green_fraction=0.5,
            sources=EnergySources.SOLAR_AND_WIND,
            storage=StorageMode.NET_METERING,
            settings=fast_settings,
        )
        assert sorted((dc.name, dc.size_class) for dc in solution.plan.datacenters) == [
            ("Grissom, IN, USA", "large"),
            ("north-america-0003", "large"),
        ]
        assert solution.monthly_cost == pytest.approx(21142908.608416826, rel=1e-9)


class TestEvaluationCache:
    @pytest.fixture()
    def solver(self, two_site_problem, fast_settings):
        return HeuristicSolver(two_site_problem, fast_settings)

    def test_cache_returns_identical_result_object(self, solver, two_site_problem):
        siting = {profile.name: "large" for profile in two_site_problem.profiles}
        first = solver.evaluate(siting)
        second = solver.evaluate(dict(siting))
        assert second is first  # bit-identical: the memo hands back the same object
        assert solver.cache_hits == 1
        # Lazy plans materialise once and are shared through the cached result.
        assert second.plan is first.plan

    def test_cache_keyed_by_frozen_siting(self, solver, two_site_problem):
        names = [profile.name for profile in two_site_problem.profiles]
        forward = solver.evaluate({names[0]: "large", names[1]: "large"})
        reversed_order = solver.evaluate({names[1]: "large", names[0]: "large"})
        assert reversed_order is forward


class TestParallelDeterminism:
    def _solve(self, problem, parallel, workers, executor="thread"):
        settings = SearchSettings(
            keep_locations=6,
            max_iterations=10,
            patience=6,
            num_chains=3,
            seed=11,
            max_datacenters=4,
            parallel_chains=parallel,
            max_workers=workers,
            executor=executor,
        )
        return HeuristicSolver(problem, settings).solve()

    def test_parallel_chains_deterministic_under_fixed_seed(self, all_profiles, params):
        problem = SitingProblem(
            profiles=all_profiles,
            params=params.with_updates(total_capacity_kw=50_000.0, min_green_fraction=0.5),
            sources=EnergySources.SOLAR_AND_WIND,
            storage=StorageMode.NET_METERING,
        )
        first = self._solve(problem, parallel=True, workers=4)
        second = self._solve(problem, parallel=True, workers=4)
        fewer_workers = self._solve(problem, parallel=True, workers=2)
        assert first.feasible
        assert first.monthly_cost == second.monthly_cost == fewer_workers.monthly_cost
        assert first.history == second.history == fewer_workers.history
        names = sorted(dc.name for dc in first.plan.datacenters)
        assert names == sorted(dc.name for dc in second.plan.datacenters)
        assert names == sorted(dc.name for dc in fewer_workers.plan.datacenters)

    def test_process_executor_matches_thread_and_serial(self, all_profiles, params):
        """The executor kind is pure mechanism: identical bits on every path."""
        problem = SitingProblem(
            profiles=all_profiles,
            params=params.with_updates(total_capacity_kw=50_000.0, min_green_fraction=0.5),
            sources=EnergySources.SOLAR_AND_WIND,
            storage=StorageMode.NET_METERING,
        )
        thread = self._solve(problem, parallel=True, workers=4, executor="thread")
        serial = self._solve(problem, parallel=True, workers=1, executor="serial")
        process = self._solve(problem, parallel=True, workers=4, executor="process")
        assert process.monthly_cost == thread.monthly_cost == serial.monthly_cost
        assert process.history == thread.history == serial.history
        names = sorted(dc.name for dc in process.plan.datacenters)
        assert names == sorted(dc.name for dc in thread.plan.datacenters)
        assert names == sorted(dc.name for dc in serial.plan.datacenters)

    def test_parallel_not_worse_than_initial(self, all_profiles, params):
        problem = SitingProblem(
            profiles=all_profiles,
            params=params.with_updates(total_capacity_kw=50_000.0, min_green_fraction=0.5),
            sources=EnergySources.SOLAR_AND_WIND,
            storage=StorageMode.NET_METERING,
        )
        solution = self._solve(problem, parallel=True, workers=4)
        solver = HeuristicSolver(problem, SearchSettings(keep_locations=6, seed=11))
        initial = solver.evaluate(solver._initial_siting(solver.filter_locations()))
        assert solution.monthly_cost <= initial.monthly_cost + 1e-6
