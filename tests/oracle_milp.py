"""Full MILP formulation of the siting problem (Fig. 1), the exact oracle for the heuristic.

The MILP chooses *where* to place datacenters (binary ``at(d)``) and whether
each is small or large, simultaneously with the provisioning and energy
scheduling decisions.  Solving it is only practical for small candidate sets
(the paper reports days of solver time for 50-100 locations); we use it to
validate the heuristic on small instances, exactly as the paper validated its
heuristic against the MILP at the 0 % and 100 % green extremes.  It is
written with the expression layer of ``tests/oracle_model.py`` and solved
with ``scipy.optimize.milp``; the library itself only ever solves
fixed-siting LPs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.costs import CostModel
from repro.core.problem import SitingProblem, StorageMode
from repro.core.provisioning import ProvisioningResult, solve_provisioning
from repro.lpsolver import SolverOptions

from oracle_model import LinearExpression, Model, Variable


@dataclass
class _MilpSite:
    name: str
    sited_small: Variable
    sited_large: Variable
    capacity_small: Variable
    capacity_large: Variable
    solar: Variable
    wind: Variable
    battery: Variable
    compute: List[Variable]
    migrate: List[Variable]
    brown: List[Variable]
    green_direct: List[Variable]
    battery_charge: List[Variable]
    battery_discharge: List[Variable]
    battery_level: List[Variable]
    net_charge: List[Variable]
    net_discharge: List[Variable]
    net_level: List[Variable]

    @property
    def capacity(self) -> LinearExpression:
        return self.capacity_small + self.capacity_large

    @property
    def sited(self) -> LinearExpression:
        return self.sited_small + self.sited_large


def build_full_milp(problem: SitingProblem) -> tuple[Model, List[_MilpSite]]:
    """Build the Fig. 1 MILP over all candidate locations of ``problem``."""
    params = problem.params
    epochs = problem.epochs
    num_epochs = epochs.num_epochs
    weights = epochs.epoch_weights_hours()
    # Scalar on uniform grids, per-epoch array on adaptively refined ones.
    epoch_hours = np.broadcast_to(np.asarray(epochs.epoch_hours, dtype=float), (num_epochs,))
    cost_model = CostModel(params)
    use_batteries = problem.storage is StorageMode.BATTERIES
    use_net_metering = problem.storage is StorageMode.NET_METERING
    allow_solar = problem.sources.allows_solar
    allow_wind = problem.sources.allows_wind
    # Big-M for per-site capacity: no single DC ever needs more compute power
    # than the whole service requires.
    big_m = params.total_capacity_kw

    model = Model(name="siting-milp", sense="min")
    sites: List[_MilpSite] = []
    objective_terms: List = []

    for profile in problem.profiles:
        name = profile.name
        sited_small = model.add_binary(f"at_small[{name}]")
        sited_large = model.add_binary(f"at_large[{name}]")
        model.add_constraint(sited_small + sited_large <= 1.0, name=f"one_size[{name}]")

        capacity_small = model.add_variable(f"capacity_small[{name}]")
        capacity_large = model.add_variable(f"capacity_large[{name}]")
        solar = model.add_variable(f"solar[{name}]", upper=float("inf") if allow_solar else 0.0)
        wind = model.add_variable(f"wind[{name}]", upper=float("inf") if allow_wind else 0.0)
        battery = model.add_variable(
            f"battery[{name}]", upper=float("inf") if use_batteries else 0.0
        )

        small_limit_kw = params.small_dc_threshold_kw / profile.max_pue
        model.add_constraint(
            capacity_small <= small_limit_kw * sited_small, name=f"small_limit[{name}]"
        )
        model.add_constraint(
            capacity_large <= big_m * sited_large, name=f"large_limit[{name}]"
        )
        model.add_constraint(
            capacity_large >= small_limit_kw * sited_large, name=f"large_floor[{name}]"
        )
        # Constraint 4: unsited locations host nothing.
        model.add_constraint(
            solar <= 20.0 * big_m * (sited_small + sited_large), name=f"solar_gate[{name}]"
        )
        model.add_constraint(
            wind <= 20.0 * big_m * (sited_small + sited_large), name=f"wind_gate[{name}]"
        )

        def per_epoch(prefix: str, upper: float = float("inf")) -> List[Variable]:
            return [
                model.add_variable(f"{prefix}[{name},{t}]", upper=upper)
                for t in range(num_epochs)
            ]

        compute = per_epoch("compute")
        migrate = per_epoch("migrate")
        brown_cap = params.brown_plant_cap_fraction * profile.near_plant_capacity_kw
        brown = per_epoch("brown", upper=max(0.0, brown_cap))
        green_direct = per_epoch("green_direct")
        storage_upper = float("inf") if use_batteries else 0.0
        battery_charge = per_epoch("battery_charge", upper=storage_upper)
        battery_discharge = per_epoch("battery_discharge", upper=storage_upper)
        battery_level = per_epoch("battery_level", upper=storage_upper)
        net_upper = float("inf") if use_net_metering else 0.0
        net_charge = per_epoch("net_charge", upper=net_upper)
        net_discharge = per_epoch("net_discharge", upper=net_upper)
        net_level = per_epoch("net_level", upper=net_upper)

        site = _MilpSite(
            name=name,
            sited_small=sited_small,
            sited_large=sited_large,
            capacity_small=capacity_small,
            capacity_large=capacity_large,
            solar=solar,
            wind=wind,
            battery=battery,
            compute=compute,
            migrate=migrate,
            brown=brown,
            green_direct=green_direct,
            battery_charge=battery_charge,
            battery_discharge=battery_discharge,
            battery_level=battery_level,
            net_charge=net_charge,
            net_discharge=net_discharge,
            net_level=net_level,
        )
        sites.append(site)

        for t in range(num_epochs):
            previous = (t - 1) % num_epochs
            model.add_constraint(
                migrate[t] >= compute[previous] - compute[t], name=f"migration[{name},{t}]"
            )
            model.add_constraint(
                site.capacity - compute[t] - migrate[t] >= 0.0,
                name=f"capacity_cover[{name},{t}]",
            )
            demand = (compute[t] + params.migration_factor * migrate[t]) * profile.pue[t]
            supply = green_direct[t] + battery_discharge[t] + net_discharge[t] + brown[t]
            model.add_constraint(supply - demand >= 0.0, name=f"power_balance[{name},{t}]")
            delivered = green_direct[t] + battery_discharge[t] + net_discharge[t]
            model.add_constraint(
                demand - delivered >= 0.0, name=f"green_delivery_cap[{name},{t}]"
            )
            production = profile.solar_alpha[t] * solar + profile.wind_beta[t] * wind
            model.add_constraint(
                production - green_direct[t] - battery_charge[t] - net_charge[t] >= 0.0,
                name=f"green_allocation[{name},{t}]",
            )
            if use_batteries:
                model.add_constraint(
                    battery_level[t]
                    == battery_level[previous]
                    + params.battery_efficiency * battery_charge[t] * epoch_hours[t]
                    - battery_discharge[t] * epoch_hours[t],
                    name=f"battery_dynamics[{name},{t}]",
                )
                model.add_constraint(
                    battery_level[t] <= battery, name=f"battery_capacity[{name},{t}]"
                )
            if use_net_metering:
                model.add_constraint(
                    net_level[t]
                    == net_level[previous]
                    + net_charge[t] * epoch_hours[t]
                    - net_discharge[t] * epoch_hours[t],
                    name=f"net_dynamics[{name},{t}]",
                )

        small_coeffs = cost_model.linear_coefficients(profile, "small")
        large_coeffs = cost_model.linear_coefficients(profile, "large")
        objective_terms.append(small_coeffs["fixed"] * sited_small)
        objective_terms.append(large_coeffs["fixed"] * sited_large)
        objective_terms.append(small_coeffs["capacity_kw"] * capacity_small)
        objective_terms.append(large_coeffs["capacity_kw"] * capacity_large)
        objective_terms.append(small_coeffs["solar_kw"] * solar)
        objective_terms.append(small_coeffs["wind_kw"] * wind)
        objective_terms.append(small_coeffs["battery_kwh"] * battery)
        for t in range(num_epochs):
            objective_terms.append(small_coeffs["brown_kwh_year"] * weights[t] * brown[t])
            if use_net_metering:
                objective_terms.append(
                    small_coeffs["net_discharge_kwh_year"] * weights[t] * net_discharge[t]
                )
                objective_terms.append(
                    small_coeffs["net_charge_kwh_year"] * weights[t] * net_charge[t]
                )

    # Network-wide constraints.
    for t in range(num_epochs):
        total_compute = LinearExpression.sum(site.compute[t] for site in sites)
        model.add_constraint(
            total_compute >= params.total_capacity_kw, name=f"total_capacity[{t}]"
        )
    if params.min_green_fraction > 0:
        green_terms = []
        demand_terms = []
        for site in sites:
            profile = problem.profile_by_name(site.name)
            for t in range(num_epochs):
                used_green = (
                    site.green_direct[t] + site.battery_discharge[t] + site.net_discharge[t]
                )
                green_terms.append(weights[t] * used_green)
                demand = (
                    site.compute[t] + params.migration_factor * site.migrate[t]
                ) * profile.pue[t]
                demand_terms.append(weights[t] * demand)
        model.add_constraint(
            LinearExpression.sum(green_terms)
            - params.min_green_fraction * LinearExpression.sum(demand_terms)
            >= 0.0,
            name="min_green_fraction",
        )
    # Constraint 11: availability, expressed as a minimum number of datacenters.
    total_sited = LinearExpression.sum(site.sited for site in sites)
    model.add_constraint(
        total_sited >= float(problem.min_datacenters), name="availability"
    )
    model.set_objective(LinearExpression.sum(objective_terms))
    return model, sites


def solve_full_milp(
    problem: SitingProblem,
    options: Optional[SolverOptions] = None,
    mip_gap: float = 1e-4,
) -> ProvisioningResult:
    """Solve the full MILP, then re-solve the fixed-siting LP to extract the plan.

    The two-stage extraction keeps the plan construction logic in one place
    (:mod:`repro.core.provisioning`): the MILP determines the siting and size
    classes, and the provisioning LP — which has the identical objective for a
    fixed siting — rebuilds the detailed plan.
    """
    options = options or SolverOptions(time_limit=120.0)
    model, sites = build_full_milp(problem)
    result = model.solve(options, mip_gap=mip_gap)
    if not result.is_optimal:
        return ProvisioningResult(
            feasible=False,
            monthly_cost=float("inf"),
            plan=None,
            message=f"MILP {result.status.value}: {result.message}",
        )
    siting: Dict[str, str] = {}
    for site in sites:
        if result.value(site.sited_small) > 0.5:
            siting[site.name] = "small"
        elif result.value(site.sited_large) > 0.5:
            siting[site.name] = "large"
    if not siting:
        return ProvisioningResult(
            feasible=False,
            monthly_cost=float("inf"),
            plan=None,
            message="MILP selected no locations",
        )
    return solve_provisioning(problem, siting, enforce_spread=False)
