"""Reference oracles that only the test-suite uses.

The library has one LP form (:class:`~repro.lpsolver.RowFormLP`), one
solve path (SciPy's bundled HiGHS bindings) and one provisioning builder
(blocked COO triplets through a
:class:`~repro.core.provisioning.ProvisioningCompiler`).  The differential
tests pin them against independent references kept here:

* :func:`linprog_solve` solves a :class:`~repro.lpsolver.RowFormLP` or an
  expression :class:`~oracle_model.Model` through
  ``scipy.optimize.linprog`` — SciPy's own input validation and conversion
  in front of HiGHS instead of the direct bindings;
* :class:`ScalarProvisioningBuilder` builds the Fig. 1 provisioning LP with
  the readable per-epoch object API of ``tests/oracle_model.py``
  (``for t in range(num_epochs)``), the reference formulation the compiled
  row form must reproduce exactly;
* :class:`EagerProjectionModel` projects the :class:`MutableHighsModel`
  basis eagerly on every splice, the reference for the lazy projection.

The profile build is pinned the same way: :func:`reference_profiles` builds
:class:`~repro.energy.profiles.LocationProfile` objects from full-year TMYs
(:func:`reference_tmy`, one location at a time; ``np.roll`` to UTC, then
:meth:`EpochGrid.aggregate`) with a plain scalar nearest-infrastructure
scan, the path the batched, hour-subset builder must match byte for byte;
:func:`profile_digest` hashes profiles for golden values.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import optimize, sparse

from repro.core.problem import GreenEnforcement, SitingProblem, StorageMode
from repro.core.provisioning import ProvisioningCompiler, ProvisioningModelBuilder, _SiteLayout
from repro.energy.profiles import EpochGrid, LocationProfile, _calibrate_pue, calibrate_series
from repro.energy.pue import PUEModel
from repro.energy.solar_plant import SolarPanelModel
from repro.energy.wind_plant import WindTurbineModel
from repro.geo.coordinates import GeoPoint, haversine_km
from repro.lpsolver import RowFormLP, SolverOptions
from repro.lpsolver.highs_backend import (
    _BASIC,
    _BASIS_STATUSES,
    _LOWER,
    _UPPER,
    _ZERO,
    MutableHighsModel,
    _core,
)
from repro.lpsolver.result import SolveResult, SolveStatus
from repro.weather.locations import WorldCatalog
from repro.weather.records import DAYS_PER_YEAR, HOURS_PER_DAY, HOURS_PER_YEAR, TMYDataset
from repro.weather.solar_geometry import clear_sky_irradiance
from repro.weather.synthesis import ClimateProfile, TMYGenerator

from oracle_model import CompiledModel, LinearExpression, Model, Variable, _finalise

_LINPROG_STATUS = {
    0: SolveStatus.OPTIMAL,
    1: SolveStatus.ITERATION_LIMIT,
    2: SolveStatus.INFEASIBLE,
    3: SolveStatus.UNBOUNDED,
    4: SolveStatus.ERROR,
}


def linprog_solve(
    model: Union[Model, RowFormLP], options: Optional[SolverOptions] = None
) -> SolveResult:
    """Solve a continuous expression model or row-form LP with ``scipy.optimize.linprog``."""
    options = options or SolverOptions()
    compiled = model.to_matrices() if isinstance(model, Model) else _row_form_matrices(model)
    result = optimize.linprog(
        c=compiled.cost,
        A_ub=compiled.a_ub,
        b_ub=compiled.b_ub,
        A_eq=compiled.a_eq,
        b_eq=compiled.b_eq,
        bounds=np.column_stack([compiled.lower, compiled.upper]),
        method="highs",
        options={"presolve": options.presolve},
    )
    status = _LINPROG_STATUS.get(result.status, SolveStatus.ERROR)
    iterations = int(getattr(result, "nit", 0) or 0)
    return _finalise(compiled, status, result.x, str(result.message), "linprog", iterations)


def _row_form_matrices(row_form: RowFormLP) -> CompiledModel:
    """The ``A_ub``/``A_eq`` split of a row-form LP (ranged rows become two rows)."""
    matrix = row_form.matrix.tocsr()
    lower, upper = row_form.row_lower, row_form.row_upper
    eq = lower == upper
    has_upper = ~eq & np.isfinite(upper)
    has_lower = ~eq & np.isfinite(lower)
    a_ub = sparse.vstack([matrix[has_upper], -matrix[has_lower]]).tocsr()
    b_ub = np.concatenate([upper[has_upper], -lower[has_lower]])
    return CompiledModel(
        cost=row_form.cost,
        a_ub=a_ub if a_ub.shape[0] else None,
        b_ub=b_ub if a_ub.shape[0] else None,
        a_eq=matrix[eq] if eq.any() else None,
        b_eq=lower[eq] if eq.any() else None,
        lower=row_form.lower,
        upper=row_form.upper,
        integrality=np.zeros(row_form.num_variables, dtype=np.int64),
        maximise=False,
        objective_constant=row_form.objective_constant,
    )


@dataclass
class _SiteVariables:
    """Handles to the LP variables of one sited location."""

    profile: LocationProfile
    size_class: str
    capacity: Variable
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


class ScalarProvisioningBuilder(ProvisioningModelBuilder):
    """The provisioning LP built constraint by constraint with the object API.

    Registers variables in the same site-major order as the compiled
    builder, so :meth:`solve` (inherited, it solves ``row_form``) extracts
    plans through the same site layouts; only the LP construction differs.
    ``model`` is the expression :class:`~oracle_model.Model` and
    ``row_form`` its ``scipy.sparse`` compilation.
    """

    def __init__(
        self,
        problem: SitingProblem,
        siting: Mapping[str, str],
        enforce_spread: bool = True,
    ) -> None:
        self.problem = problem
        self.siting = dict(siting)
        self.enforce_spread = enforce_spread
        self.compiler = ProvisioningCompiler(problem)
        self.cost_model = self.compiler.cost_model
        self.sites = []
        self.model = Model(name="provisioning", sense="min")
        self._objective_terms: List[LinearExpression | float] = []
        self._build()
        self.row_form = self.model.to_row_form()

    def _build(self) -> None:
        problem = self.problem
        params = problem.params
        epochs = problem.epochs
        num_epochs = epochs.num_epochs
        weights = epochs.epoch_weights_hours()
        profiles = self.compiler._profiles

        scalar_sites: List[_SiteVariables] = []
        for name, size_class in self.siting.items():
            profile = profiles.get(name)
            if profile is None:
                raise KeyError(f"siting refers to unknown location {name!r}")
            base = self.model.num_variables
            scalar_sites.append(self._add_site(profile, size_class, num_epochs))
            self.sites.append(
                _SiteLayout(
                    profile=profile, size_class=size_class, base=base, num_epochs=num_epochs
                )
            )

        # Constraint 2: the network must provide the requested compute power in
        # every epoch.
        for epoch in range(num_epochs):
            total_compute = LinearExpression.sum(site.compute[epoch] for site in scalar_sites)
            self.model.add_constraint(
                total_compute >= params.total_capacity_kw, name=f"total_capacity[{epoch}]"
            )

        # Constraint 3: minimum share of green energy, enforced either over the
        # whole year (the paper's main formulation) or in every epoch (the
        # stricter variant studied in the technical report).
        if params.min_green_fraction > 0:
            if problem.green_enforcement is GreenEnforcement.PER_EPOCH:
                for epoch in range(num_epochs):
                    green_terms = []
                    demand_terms = []
                    for site in scalar_sites:
                        used_green = (
                            site.green_direct[epoch]
                            + site.battery_discharge[epoch]
                            + site.net_discharge[epoch]
                        )
                        green_terms.append(used_green)
                        demand_terms.append(self._power_demand(site, epoch))
                    self.model.add_constraint(
                        LinearExpression.sum(green_terms)
                        - params.min_green_fraction * LinearExpression.sum(demand_terms)
                        >= 0.0,
                        name=f"min_green_fraction[{epoch}]",
                    )
            else:
                green_terms = []
                demand_terms = []
                for site in scalar_sites:
                    for epoch in range(num_epochs):
                        used_green = (
                            site.green_direct[epoch]
                            + site.battery_discharge[epoch]
                            + site.net_discharge[epoch]
                        )
                        green_terms.append(weights[epoch] * used_green)
                        demand_terms.append(weights[epoch] * self._power_demand(site, epoch))
                total_green = LinearExpression.sum(green_terms)
                total_demand = LinearExpression.sum(demand_terms)
                self.model.add_constraint(
                    total_green - params.min_green_fraction * total_demand >= 0.0,
                    name="min_green_fraction",
                )

        # Availability spread: every sited DC keeps at least S/n servers.
        if self.enforce_spread and len(scalar_sites) > 0:
            floor = params.total_capacity_kw / len(scalar_sites)
            for site in scalar_sites:
                self.model.add_constraint(
                    site.capacity >= floor, name=f"capacity_spread[{site.profile.name}]"
                )

        self.model.set_objective(LinearExpression.sum(self._objective_terms))

    def _add_site(
        self, profile: LocationProfile, size_class: str, num_epochs: int
    ) -> _SiteVariables:
        problem = self.problem
        params = problem.params
        epochs = problem.epochs
        weights = epochs.epoch_weights_hours()
        epoch_hours = np.broadcast_to(
            np.asarray(epochs.epoch_hours, dtype=float), (num_epochs,)
        )
        model = self.model
        name = profile.name

        allow_solar = problem.sources.allows_solar
        allow_wind = problem.sources.allows_wind
        use_batteries = problem.storage is StorageMode.BATTERIES
        use_net_metering = problem.storage is StorageMode.NET_METERING

        capacity = model.add_variable(f"capacity[{name}]")
        solar = model.add_variable(f"solar[{name}]", upper=float("inf") if allow_solar else 0.0)
        wind = model.add_variable(f"wind[{name}]", upper=float("inf") if allow_wind else 0.0)
        battery = model.add_variable(
            f"battery[{name}]", upper=float("inf") if use_batteries else 0.0
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
        battery_level = per_epoch("battery_level", upper=float("inf") if use_batteries else 0.0)
        net_upper = float("inf") if use_net_metering else 0.0
        net_charge = per_epoch("net_charge", upper=net_upper)
        net_discharge = per_epoch("net_discharge", upper=net_upper)
        net_level = per_epoch("net_level", upper=net_upper)

        site = _SiteVariables(
            profile=profile,
            size_class=size_class,
            capacity=capacity,
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

        # Size-class consistency: the construction price per kW assumed in the
        # objective is only valid within the class's power range.
        total_power_per_kw = profile.max_pue
        if size_class == "small":
            model.add_constraint(
                total_power_per_kw * capacity <= params.small_dc_threshold_kw,
                name=f"small_dc[{name}]",
            )

        for t in range(num_epochs):
            previous = (t - 1) % num_epochs
            # Migration overhead: load that left this site since the previous
            # epoch still consumes energy here during this epoch.
            model.add_constraint(
                migrate[t] >= compute[previous] - compute[t], name=f"migration[{name},{t}]"
            )
            # Constraint 1: provisioned capacity covers compute plus incoming load.
            model.add_constraint(
                capacity >= compute[t] + migrate[t], name=f"capacity_cover[{name},{t}]"
            )
            demand = self._power_demand(site, t)
            # Constraint 5: demand is met by direct green, storage draws and brown.
            supply = green_direct[t] + battery_discharge[t] + net_discharge[t] + brown[t]
            self.model.add_constraint(supply - demand >= 0.0, name=f"power_balance[{name},{t}]")
            # Green energy only counts toward the requirement when it actually
            # serves load: what is delivered (directly or from storage) in an
            # epoch cannot exceed that epoch's demand.  Surplus production is
            # curtailed (or, with net metering, banked for later).
            delivered = green_direct[t] + battery_discharge[t] + net_discharge[t]
            self.model.add_constraint(
                demand - delivered >= 0.0, name=f"green_delivery_cap[{name},{t}]"
            )
            # Green allocation: direct use plus storage charging cannot exceed production.
            production = profile.solar_alpha[t] * solar + profile.wind_beta[t] * wind
            self.model.add_constraint(
                production - green_direct[t] - battery_charge[t] - net_charge[t] >= 0.0,
                name=f"green_allocation[{name},{t}]",
            )
            if use_batteries:
                # Constraints 6-7: battery level dynamics (cyclic over the year).
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
                # Constraints 8-9: net-metered energy bank (cyclic over the year).
                model.add_constraint(
                    net_level[t]
                    == net_level[previous]
                    + net_charge[t] * epoch_hours[t]
                    - net_discharge[t] * epoch_hours[t],
                    name=f"net_dynamics[{name},{t}]",
                )

        # Objective contribution of this site.
        coefficients = self.cost_model.linear_coefficients(profile, size_class)
        self._objective_terms.append(coefficients["fixed"])
        self._objective_terms.append(coefficients["capacity_kw"] * capacity)
        self._objective_terms.append(coefficients["solar_kw"] * solar)
        self._objective_terms.append(coefficients["wind_kw"] * wind)
        self._objective_terms.append(coefficients["battery_kwh"] * battery)
        for t in range(num_epochs):
            self._objective_terms.append(
                coefficients["brown_kwh_year"] * weights[t] * brown[t]
            )
            if use_net_metering:
                self._objective_terms.append(
                    coefficients["net_discharge_kwh_year"] * weights[t] * net_discharge[t]
                )
                self._objective_terms.append(
                    coefficients["net_charge_kwh_year"] * weights[t] * net_charge[t]
                )
        return site

    def _power_demand(self, site: _SiteVariables, t: int) -> LinearExpression:
        """``powDemand(d, t)``: (compute + migration overhead) * PUE."""
        migration_factor = self.problem.params.migration_factor
        pue = site.profile.pue[t]
        demand = site.compute[t] + migration_factor * site.migrate[t]
        return pue * demand


# -- profiles ------------------------------------------------------------------

#: The profile fields compared byte for byte: the epoch series, then the scalars.
PROFILE_SERIES = ("solar_alpha", "wind_beta", "pue")
PROFILE_SCALARS = (
    "land_price_per_m2",
    "energy_price_per_kwh",
    "distance_power_km",
    "distance_network_km",
    "near_plant_capacity_kw",
)


def scalar_nearest(point: GeoPoint, items: Sequence) -> tuple:
    """``(nearest item, distance_km)`` by scanning every item with the scalar haversine."""
    best = None
    best_distance = math.inf
    for item in items:
        distance = haversine_km(point, item.point)
        if distance < best_distance:
            best, best_distance = item, distance
    return best, best_distance


def reference_tmy(
    generator: TMYGenerator, name: str, latitude_deg: float, climate: ClimateProfile
) -> TMYDataset:
    """The full-year TMY of one location, channel by channel.

    The per-location arithmetic :class:`~repro.weather.synthesis.TMYGenerator`
    ran before it synthesized a batch of locations at once: each channel draws
    its daily and hourly noise for the whole year, in a fixed order, from the
    location's own stream, and computes its 8760 values with the climate's
    scalars.  The batched generator must reproduce it byte for byte.
    """
    digest = 0
    for char in name:
        digest = (digest * 131 + ord(char)) % (2**31)
    rng = np.random.default_rng((generator.seed * 1_000_003 + digest) % (2**63))
    hours = np.arange(HOURS_PER_YEAR)
    day_of_year = hours // HOURS_PER_DAY
    hour_of_day = hours % HOURS_PER_DAY

    peak_day = 200.0 if latitude_deg >= 0 else 20.0
    seasonal = climate.seasonal_amplitude_c * np.cos(
        2.0 * math.pi * (day_of_year - peak_day) / DAYS_PER_YEAR
    )
    diurnal = climate.diurnal_amplitude_c * np.cos(2.0 * math.pi * (hour_of_day - 15.0) / 24.0)
    daily_noise = rng.normal(0.0, 1.5, DAYS_PER_YEAR)[day_of_year]
    hourly_noise = rng.normal(0.0, 0.4, HOURS_PER_YEAR)[hours]
    temperature = climate.mean_temperature_c + seasonal + diurnal + daily_noise + hourly_noise

    clear = clear_sky_irradiance(latitude_deg, day_of_year, hour_of_day)
    base_clearness = 1.0 - 0.65 * climate.cloudiness
    daily_clearness = rng.beta(
        4.0 * (1.0 - climate.cloudiness) + 1.0, 4.0 * climate.cloudiness + 1.0, DAYS_PER_YEAR
    )
    clearness = 0.5 * base_clearness + 0.5 * np.clip(daily_clearness[day_of_year], 0.05, 1.0)
    hourly_flicker = np.clip(rng.normal(1.0, 0.05, HOURS_PER_YEAR)[hours], 0.7, 1.2)
    ghi = np.maximum(0.0, clear * clearness * hourly_flicker)

    peak_day = 15.0 if latitude_deg >= 0 else 195.0
    seasonal = 1.0 + climate.wind_seasonality * np.cos(
        2.0 * math.pi * (day_of_year - peak_day) / DAYS_PER_YEAR
    )
    diurnal = 1.0 + 0.15 * np.cos(2.0 * math.pi * (hour_of_day - 14.0) / 24.0)
    daily = rng.lognormal(
        mean=-0.5 * climate.wind_variability**2,
        sigma=climate.wind_variability,
        size=DAYS_PER_YEAR,
    )[day_of_year]
    hourly = np.clip(rng.normal(1.0, 0.15, HOURS_PER_YEAR)[hours], 0.3, 2.0)
    wind = np.maximum(0.0, climate.mean_wind_speed_m_s * seasonal * diurnal * daily * hourly)

    mean_pressure = 101.325 * math.exp(-max(0.0, climate.altitude_m) / 8434.0)
    noise = rng.normal(0.0, 0.6, DAYS_PER_YEAR)[day_of_year]
    pressure = np.maximum(50.0, mean_pressure + noise)
    return TMYDataset(
        temperature_c=temperature, ghi_w_m2=ghi, wind_speed_m_s=wind, pressure_kpa=pressure
    )


def reference_profiles(catalog: WorldCatalog, epochs: EpochGrid) -> List[LocationProfile]:
    """Every catalogue location's profile, built from full-year TMYs.

    Each channel is converted to production over all 8760 hours, rolled to
    UTC by the location's longitude and averaged onto ``epochs``; distances
    and the plant capacity come from :func:`scalar_nearest`.  Calibrations
    and overrides are applied exactly as :class:`ProfileBuilder` applies them.
    """
    solar, wind, pue_model = SolarPanelModel(), WindTurbineModel(), PUEModel()
    infrastructure = catalog.infrastructure
    profiles = []
    for location in catalog.locations:
        tmy = reference_tmy(
            catalog.tmy_generator, location.name, location.point.latitude, location.climate
        )
        shift = int(round(location.point.longitude / 15.0))
        alpha = epochs.aggregate(
            np.roll(solar.production_fraction(tmy.ghi_w_m2, tmy.temperature_c), -shift)
        )
        beta = epochs.aggregate(
            np.roll(
                wind.production_fraction(tmy.wind_speed_m_s, tmy.pressure_kpa, tmy.temperature_c),
                -shift,
            )
        )
        pue = epochs.aggregate(np.roll(pue_model.series(tmy.temperature_c), -shift))

        overrides = location.overrides
        if overrides.solar_capacity_factor is not None:
            alpha = calibrate_series(alpha, overrides.solar_capacity_factor)
        if overrides.wind_capacity_factor is not None:
            beta = calibrate_series(beta, overrides.wind_capacity_factor)
        if overrides.max_pue is not None:
            pue = _calibrate_pue(pue, overrides.max_pue, pue_model.min_pue)
        plant, plant_km = scalar_nearest(location.point, infrastructure.plants)
        _, backbone_km = scalar_nearest(location.point, infrastructure.backbones)

        def pick(override: Optional[float], value: float) -> float:
            return value if override is None else override

        profiles.append(
            LocationProfile(
                location=location,
                epochs=epochs,
                solar_alpha=alpha,
                wind_beta=beta,
                pue=pue,
                land_price_per_m2=catalog.land_price_per_m2(location),
                energy_price_per_kwh=catalog.energy_price_per_kwh(location),
                distance_power_km=pick(overrides.distance_power_km, plant_km),
                distance_network_km=pick(overrides.distance_network_km, backbone_km),
                near_plant_capacity_kw=pick(
                    overrides.near_plant_capacity_kw, plant.capacity_kw if plant else 0.0
                ),
            )
        )
    return profiles


def profile_digest(profiles: Iterable[LocationProfile]) -> str:
    """sha256 over each profile's name, series bytes and scalar bits, in order."""
    digest = hashlib.sha256()
    for profile in profiles:
        digest.update(profile.name.encode("utf-8") + b"\0")
        for name in PROFILE_SERIES:
            digest.update(np.ascontiguousarray(getattr(profile, name), dtype="<f8").tobytes())
        digest.update(
            struct.pack("<5d", *(getattr(profile, name) for name in PROFILE_SCALARS))
        )
    return digest.hexdigest()


class EagerProjectionModel(MutableHighsModel):
    """:class:`MutableHighsModel` with the eager basis projection.

    Every structural edit converts the native basis to int status arrays at
    once and pads or filters them in place; the library queues the edits
    and replays them only when the projection is read.  The projection
    methods below are the eager implementation verbatim, so the basis this
    model installs is the reference the lazy one must match.  Loading,
    solving and restoring are inherited: they only set or drop the carried
    basis, which both implementations do alike.
    """

    @property
    def _basis_obj(self):
        return self._snapshot.basis if self._snapshot is not None else None

    @_basis_obj.setter
    def _basis_obj(self, basis) -> None:
        # The eager code only ever assigns None here (the drift fallback).
        self._snapshot = None

    def _ensure_status_arrays(self) -> bool:
        """Materialise the int status arrays from the native basis object."""
        if self._col_status is not None and self._row_status is not None:
            return True
        if self._basis_obj is None:
            return False
        self._col_status = np.fromiter(
            (int(s) for s in self._basis_obj.col_status), dtype=np.int32
        )
        self._row_status = np.fromiter(
            (int(s) for s in self._basis_obj.row_status), dtype=np.int32
        )
        return True

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
        if self._ensure_status_arrays():
            # Nonbasic at a finite bound; free columns sit at zero.
            padding = np.where(
                np.isfinite(lower), _LOWER, np.where(np.isfinite(upper), _UPPER, _ZERO)
            ).astype(np.int32)
            self._col_status = np.concatenate([self._col_status, padding])
            self._projection_dirty = True
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
        if self._ensure_status_arrays():
            padding = np.full(count, _BASIC, dtype=np.int32)
            self._row_status = np.concatenate([self._row_status, padding])
            self._projection_dirty = True
        self.num_rows += count

    def delete_cols(self, indices: np.ndarray) -> None:
        indices = np.ascontiguousarray(np.sort(indices), dtype=np.int32)
        self._highs.deleteCols(len(indices), indices)
        if self._ensure_status_arrays():
            self._col_status = np.delete(self._col_status, indices)
            self._projection_dirty = True
        self.num_cols -= len(indices)

    def delete_rows(self, indices: np.ndarray) -> None:
        indices = np.ascontiguousarray(np.sort(indices), dtype=np.int32)
        self._highs.deleteRows(len(indices), indices)
        if self._ensure_status_arrays():
            self._row_status = np.delete(self._row_status, indices)
            self._projection_dirty = True
        self.num_rows -= len(indices)

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

    def install_basis(self) -> None:
        """Install the carried basis: native when clean, projected when edited.

        After structural edits the projected arrays are converted back to a
        HighsBasis; when deletions removed basic columns (or nonbasic rows)
        the projection is no longer square and is installed as *alien* so
        HiGHS repairs it instead of rejecting it.
        """
        if not self._projection_dirty:
            if self._basis_obj is not None:
                self._highs.setBasis(self._basis_obj)
            return
        if (
            self._col_status is None
            or self._row_status is None
            or len(self._col_status) != self.num_cols
            or len(self._row_status) != self.num_rows
        ):  # pragma: no cover - projection drifted; fall back to cold
            self._basis_obj = None
            self._projection_dirty = False
            self._col_status = None
            self._row_status = None
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
