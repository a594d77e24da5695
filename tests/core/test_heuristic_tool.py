"""Tests for the heuristic solver, the full MILP and the placement tool."""

import math

import pytest

from repro.core import (
    EnergySources,
    HeuristicSolver,
    SearchSettings,
    SingleSiteAnalyzer,
    SitingProblem,
    StorageMode,
    solve_provisioning,
)
from repro.core.heuristic import MOVES
from repro.scenarios import ScenarioSpec

from oracle_milp import solve_full_milp


class TestSearchSettings:
    def test_defaults_valid(self):
        settings = SearchSettings()
        assert settings.keep_locations >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"keep_locations": 0},
            {"max_iterations": 0},
            {"num_chains": 0},
            {"cooling": 0.0},
            {"move_weights": {"teleport": 1.0}},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SearchSettings(**kwargs)

    @pytest.mark.parametrize(
        "weights, match",
        [
            ({move: 0.0 for move in MOVES}, "positive weight"),
            ({}, "positive weight"),
            ({"add": 1.0, "swap": math.inf}, "'swap' must be a finite number"),
            ({"add": 1.0, "remove": -0.5}, "'remove' must be a finite number"),
            ({"add": 1.0, "merge": math.nan}, "'merge' must be a finite number"),
            ({"add": 1.0, "resize": "2"}, "'resize' must be a finite number"),
        ],
    )
    def test_move_weights_rejected(self, weights, match):
        with pytest.raises(ValueError, match=match):
            SearchSettings(move_weights=weights)

    def test_zero_weight_for_one_move_stays_legal(self):
        settings = SearchSettings(move_weights={"add": 1.0, "merge": 0.0})
        assert settings.move_weights["merge"] == 0.0

    @pytest.mark.parametrize(
        "weights", [{"add": 0.0}, {"swap": math.inf}, {"remove": -1.0}, {"merge": math.nan}]
    )
    def test_spec_search_block_rejects_bad_move_weights(self, weights):
        spec = ScenarioSpec(search={"move_weights": weights})
        with pytest.raises(ValueError, match="weight"):
            spec.build_search_settings()


class TestSingleSiteAnalyzer:
    def test_brown_cost_in_paper_range(self, anchor_profiles, params):
        analyzer = SingleSiteAnalyzer(params)
        result = analyzer.cost_at(anchor_profiles["Kiev, Ukraine"], 25_000.0, 0.0)
        assert result.feasible
        # Fig. 6: brown 25 MW datacenters cost roughly $8.7M-12.8M per month.
        assert 7e6 <= result.monthly_cost <= 14e6

    def test_green_requirement_increases_cost(self, anchor_profiles, params):
        analyzer = SingleSiteAnalyzer(params)
        profile = anchor_profiles["Grissom, IN, USA"]
        brown = analyzer.cost_at(profile, 25_000.0, 0.0)
        green = analyzer.cost_at(profile, 25_000.0, 0.5, EnergySources.SOLAR_AND_WIND)
        assert green.monthly_cost > brown.monthly_cost

    def test_wind_location_cheaper_with_wind_than_solar(self, anchor_profiles, params):
        analyzer = SingleSiteAnalyzer(params)
        profile = anchor_profiles["Mount Washington, NH, USA"]
        wind = analyzer.cost_at(profile, 25_000.0, 0.5, EnergySources.WIND_ONLY)
        solar = analyzer.cost_at(profile, 25_000.0, 0.5, EnergySources.SOLAR_ONLY)
        assert wind.monthly_cost < solar.monthly_cost

    def test_table_row_fields(self, anchor_profiles, params):
        analyzer = SingleSiteAnalyzer(params)
        row = analyzer.cost_at(anchor_profiles["Nairobi, Kenya"], 25_000.0, 0.5).table_row()
        assert row["location"] == "Nairobi, Kenya"
        assert row["solar_capacity_factor_pct"] == pytest.approx(20.9, abs=1.0)
        assert row["land_usd_per_m2"] == pytest.approx(14.7)

    def test_invalid_capacity(self, anchor_profiles, params):
        analyzer = SingleSiteAnalyzer(params)
        with pytest.raises(ValueError):
            analyzer.cost_at(anchor_profiles["Nairobi, Kenya"], -1.0)

    def test_cost_distribution(self, all_profiles, params):
        analyzer = SingleSiteAnalyzer(params)
        costs = analyzer.cost_distribution(all_profiles[:4], 25_000.0, 0.0)
        assert len(costs) == 4
        assert all(c.monthly_cost > 0 for c in costs if c.feasible)


class TestHeuristicSolver:
    @pytest.fixture(scope="class")
    def problem(self, all_profiles, params):
        return SitingProblem(
            profiles=all_profiles,
            params=params.with_updates(total_capacity_kw=50_000.0, min_green_fraction=0.5),
            sources=EnergySources.SOLAR_AND_WIND,
            storage=StorageMode.NET_METERING,
        )

    def test_filtering_keeps_requested_count(self, problem, fast_settings):
        solver = HeuristicSolver(problem, fast_settings)
        candidates = solver.filter_locations()
        assert len(candidates) <= max(fast_settings.keep_locations, problem.min_datacenters)
        assert len(candidates) >= problem.min_datacenters
        assert len(set(candidates)) == len(candidates)

    def test_solve_returns_feasible_plan(self, case_study_solution):
        assert case_study_solution.feasible
        assert case_study_solution.plan is not None
        assert case_study_solution.evaluations > 0
        assert case_study_solution.history

    def test_availability_minimum_respected(self, case_study_plan):
        assert case_study_plan.num_datacenters >= 2
        assert case_study_plan.availability >= 0.99999

    def test_green_requirement_met(self, case_study_plan):
        assert case_study_plan.green_fraction >= 0.5 - 1e-3

    def test_solution_not_worse_than_initial_state(self, problem, fast_settings):
        solver = HeuristicSolver(problem, fast_settings)
        candidates = solver.filter_locations()
        initial = solver.evaluate(solver._initial_siting(candidates))
        best = solver.solve()
        assert best.monthly_cost <= initial.monthly_cost + 1e-6

    def test_evaluate_rejects_too_few_datacenters(self, problem, fast_settings):
        solver = HeuristicSolver(problem, fast_settings)
        result = solver.evaluate({problem.profiles[0].name: "large"})
        assert not result.feasible

    def test_evaluation_cache_hit(self, problem, fast_settings):
        solver = HeuristicSolver(problem, fast_settings)
        siting = {problem.profiles[0].name: "large", problem.profiles[1].name: "large"}
        solver.evaluate(siting)
        count = solver._evaluations
        solver.evaluate(dict(siting))
        assert solver._evaluations == count

    def test_neighbour_moves_respect_bounds(self, problem, fast_settings):
        import random

        solver = HeuristicSolver(problem, fast_settings)
        candidates = solver.filter_locations()
        siting = solver._initial_siting(candidates)
        rng = random.Random(3)
        for _ in range(50):
            neighbour = solver._neighbour(siting, candidates, rng, fast_settings.move_weights)
            if neighbour is None:
                continue
            assert len(neighbour) >= problem.min_datacenters
            assert len(neighbour) <= fast_settings.max_datacenters
            assert set(neighbour.values()) <= {"small", "large"}


class TestFullMilp:
    def test_milp_matches_heuristic_on_brown_extreme(self, anchor_profiles, params):
        """The paper validates the heuristic against the MILP at the 0 % extreme."""
        profiles = [
            anchor_profiles["Kiev, Ukraine"],
            anchor_profiles["Grissom, IN, USA"],
            anchor_profiles["Burke Lakefront, OH, USA"],
        ]
        problem = SitingProblem(
            profiles=profiles,
            params=params.with_updates(total_capacity_kw=20_000.0, min_green_fraction=0.0),
            sources=EnergySources.NONE,
        )
        milp = solve_full_milp(problem)
        assert milp.feasible
        # Exhaustive enumeration of 2-site sitings for comparison.
        best_enumerated = float("inf")
        names = [p.name for p in profiles]
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                for size in ("small", "large"):
                    result = solve_provisioning(
                        problem, {names[i]: size, names[j]: size}, enforce_spread=False
                    )
                    if result.feasible:
                        best_enumerated = min(best_enumerated, result.monthly_cost)
        assert milp.monthly_cost <= best_enumerated * 1.02

    def test_milp_selects_at_least_min_datacenters(self, anchor_profiles, params):
        profiles = [
            anchor_profiles["Kiev, Ukraine"],
            anchor_profiles["Grissom, IN, USA"],
        ]
        problem = SitingProblem(
            profiles=profiles,
            params=params.with_updates(total_capacity_kw=10_000.0, min_green_fraction=0.0),
            sources=EnergySources.NONE,
        )
        result = solve_full_milp(problem)
        assert result.feasible
        assert result.plan.num_datacenters >= problem.min_datacenters


class TestPlacementTool:
    def test_profiles_cached(self, small_tool):
        assert small_tool.profiles is small_tool.profiles

    def test_build_problem_scenario_switches(self, small_tool):
        problem = small_tool.build_problem(
            total_capacity_kw=30_000.0,
            min_green_fraction=0.75,
            sources=EnergySources.WIND_ONLY,
            storage=StorageMode.BATTERIES,
            migration_factor=0.5,
            net_meter_credit=0.8,
        )
        assert problem.params.total_capacity_kw == 30_000.0
        assert problem.params.min_green_fraction == 0.75
        assert problem.params.migration_factor == 0.5
        assert problem.params.credit_net_meter == 0.8
        assert problem.sources is EnergySources.WIND_ONLY
        assert problem.storage is StorageMode.BATTERIES

    def test_zero_green_switches_to_brown(self, small_tool):
        problem = small_tool.build_problem(min_green_fraction=0.0)
        assert problem.sources is EnergySources.NONE

    def test_plan_network_produces_requested_capacity(self, case_study_plan):
        assert case_study_plan.total_capacity_kw >= 50_000.0 - 1e-3

    def test_single_site_costs_named_subset(self, small_tool):
        costs = small_tool.single_site_costs(names=["Kiev, Ukraine", "Nairobi, Kenya"])
        assert [c.name for c in costs] == ["Kiev, Ukraine", "Nairobi, Kenya"]

    def test_green_percentage_sweep_monotone_cost(self, small_tool, fast_settings):
        sweep = small_tool.green_percentage_sweep(
            [0.0, 1.0],
            sources=EnergySources.SOLAR_AND_WIND,
            storage=StorageMode.NET_METERING,
            settings=fast_settings,
        )
        assert sweep[1.0].monthly_cost >= sweep[0.0].monthly_cost * 0.98
