"""Tests for the full MILP oracle (``tests/oracle_milp.py``) and its interaction with scenarios."""

import pytest

from repro.core import (
    EnergySources,
    SitingProblem,
    StorageMode,
    solve_provisioning,
)
from repro.lpsolver import SolverOptions

from oracle_milp import build_full_milp, solve_full_milp


@pytest.fixture(scope="module")
def three_profiles(anchor_profiles):
    return [
        anchor_profiles["Kiev, Ukraine"],
        anchor_profiles["Grissom, IN, USA"],
        anchor_profiles["Burke Lakefront, OH, USA"],
    ]


class TestBuildFullMilp:
    def test_model_is_mixed_integer(self, three_profiles, params):
        problem = SitingProblem(
            profiles=three_profiles,
            params=params.with_updates(total_capacity_kw=20_000.0, min_green_fraction=0.0),
            sources=EnergySources.NONE,
        )
        model, sites = build_full_milp(problem)
        assert model.is_mixed_integer
        assert len(sites) == 3
        # Two binaries per site plus the continuous machinery.
        assert model.num_variables > 6

    def test_availability_constraint_present(self, three_profiles, params):
        problem = SitingProblem(
            profiles=three_profiles,
            params=params.with_updates(total_capacity_kw=20_000.0, min_green_fraction=0.0),
            sources=EnergySources.NONE,
        )
        model, _ = build_full_milp(problem)
        names = [constraint.name for constraint in model.constraints]
        assert "availability" in names

    def test_green_constraint_only_when_required(self, three_profiles, params):
        brown = SitingProblem(
            profiles=three_profiles,
            params=params.with_updates(total_capacity_kw=20_000.0, min_green_fraction=0.0),
            sources=EnergySources.NONE,
        )
        green = SitingProblem(
            profiles=three_profiles,
            params=params.with_updates(total_capacity_kw=20_000.0, min_green_fraction=0.5),
            sources=EnergySources.SOLAR_AND_WIND,
        )
        brown_names = {c.name for c in build_full_milp(brown)[0].constraints}
        green_names = {c.name for c in build_full_milp(green)[0].constraints}
        assert "min_green_fraction" not in brown_names
        assert "min_green_fraction" in green_names


class TestSolveFullMilp:
    def test_green_milp_meets_requirement(self, three_profiles, params):
        problem = SitingProblem(
            profiles=three_profiles,
            params=params.with_updates(total_capacity_kw=15_000.0, min_green_fraction=0.5),
            sources=EnergySources.SOLAR_AND_WIND,
            storage=StorageMode.NET_METERING,
        )
        result = solve_full_milp(problem, SolverOptions(time_limit=90.0))
        assert result.feasible
        assert result.plan.green_fraction >= 0.5 - 1e-3
        assert result.plan.num_datacenters >= problem.min_datacenters

    def test_milp_never_beaten_by_fixed_siting(self, three_profiles, params):
        """Any specific siting the heuristic could try costs at least the MILP optimum."""
        problem = SitingProblem(
            profiles=three_profiles,
            params=params.with_updates(total_capacity_kw=15_000.0, min_green_fraction=0.25),
            sources=EnergySources.SOLAR_AND_WIND,
            storage=StorageMode.NET_METERING,
        )
        milp = solve_full_milp(problem, SolverOptions(time_limit=90.0))
        assert milp.feasible
        names = [profile.name for profile in three_profiles]
        fixed = solve_provisioning(
            problem, {names[0]: "small", names[1]: "small"}, enforce_spread=False
        )
        assert fixed.feasible
        assert milp.monthly_cost <= fixed.monthly_cost * 1.02
