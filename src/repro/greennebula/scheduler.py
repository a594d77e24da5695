"""The GreenNebula multi-datacenter scheduler.

Every hour the scheduler (which runs at one of the datacenters) predicts the
green energy production of every datacenter 48 hours ahead, collects the
current workload (average power) from each datacenter, and solves a small
optimisation that re-partitions the workload across the datacenters for the
coming window.  The optimisation is the placement problem of Section II with
the locations and provisioning fixed and the minimum-green constraint
removed: it minimises the brown energy drawn over the window, accounting for
the predicted green production and for the energy overhead of migrating load
between datacenters.  The first hour of the optimised partition is then
turned into a migration schedule by the :class:`MigrationPlanner`.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.greennebula.datacenter import GreenDatacenter
from repro.greennebula.migration import MigrationPlanner, MigrationRequest
from repro.greennebula.prediction import GreenEnergyPredictor
from repro.lpsolver import RowFormLP, SolverOptions
from repro.lpsolver.highs_backend import solve_row_form


@dataclass
class ScheduleDecision:
    """Output of one scheduling pass."""

    hour_of_year: float
    target_power_kw: Dict[str, float]
    migrations: List[MigrationRequest]
    predicted_brown_kwh: float
    solve_time_seconds: float
    window_power_kw: Dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def migrated_power_kw(self) -> float:
        return MigrationPlanner.migrated_power_kw(self.migrations)


class GreenNebulaScheduler:
    """Brown-energy-minimising workload partitioner with a 48-hour look-ahead."""

    def __init__(
        self,
        datacenters: Sequence[GreenDatacenter],
        predictor: Optional[GreenEnergyPredictor] = None,
        planner: Optional[MigrationPlanner] = None,
        horizon_hours: int = 48,
        migration_penalty_kwh: float = 1e-3,
        net_metering: bool = False,
        solver_options: Optional[SolverOptions] = None,
    ) -> None:
        if not datacenters:
            raise ValueError("the scheduler needs at least one datacenter")
        if horizon_hours <= 0:
            raise ValueError("the look-ahead horizon must be positive")
        self.datacenters = list(datacenters)
        self.predictor = predictor or GreenEnergyPredictor(horizon_hours=horizon_hours)
        if self.predictor.horizon_hours != horizon_hours:
            self.predictor.horizon_hours = horizon_hours
        self.planner = planner or MigrationPlanner()
        self.horizon_hours = horizon_hours
        self.migration_penalty_kwh = migration_penalty_kwh
        self.net_metering = net_metering
        self.solver_options = solver_options or SolverOptions()

    # -- the optimisation ------------------------------------------------------------------
    def build_model(
        self,
        hour_of_year: float,
        total_load_kw: float,
        current_load_kw: Mapping[str, float],
        green_forecast_kw: Mapping[str, np.ndarray],
    ) -> tuple[RowFormLP, Dict[str, np.ndarray], Dict[str, np.ndarray]]:
        """Build the window LP; returns (LP, compute indices, migrate indices).

        Columns are ``compute``, ``migrate`` and ``brown`` over the horizon,
        datacenter by datacenter; each per-datacenter constraint family
        (migration coupling, capacity, brown balance) is one vectorized
        triplet block over the whole horizon, followed by the total-load
        rows.  The compute and migrate columns are returned as index arrays
        for fancy-indexed extraction from the solve result.
        """
        horizon = self.horizon_hours
        t = np.arange(horizon, dtype=np.int64)
        ones = np.ones(horizon)
        num_cols = 3 * horizon * len(self.datacenters)
        num_rows = num_cols + horizon
        upper = np.full(num_cols, np.inf)
        cost = np.zeros(num_cols)
        rows: List[np.ndarray] = []
        cols: List[np.ndarray] = []
        vals: List[np.ndarray] = []
        row_lower: List[np.ndarray] = []
        row_upper: List[np.ndarray] = []
        compute: Dict[str, np.ndarray] = {}
        migrate: Dict[str, np.ndarray] = {}

        for index, dc in enumerate(self.datacenters):
            name = dc.name
            forecast = np.asarray(green_forecast_kw[name], dtype=float)
            if forecast.shape[0] < horizon:
                raise ValueError(f"forecast for {name} shorter than the scheduling horizon")
            base = 3 * horizon * index  # first column and first row of this datacenter
            compute[name] = base + t
            migrate[name] = base + horizon + t
            brown = base + 2 * horizon + t
            upper[compute[name]] = dc.it_capacity_kw
            cost[brown] = 1.0
            cost[migrate[name]] = self.migration_penalty_kwh
            pue = np.array([dc.pue(hour_of_year + step) for step in range(horizon)])
            previous_load = float(current_load_kw.get(name, dc.vm_power_kw))

            # Load that leaves this DC still consumes energy here this hour:
            # migrate[t] + compute[t] - compute[t-1] >= 0, with the t=0 row
            # anchored to the currently measured load.
            migration_rhs = np.zeros(horizon)
            migration_rhs[0] = previous_load
            rows.append(base + np.concatenate([t, t, t[1:]]))
            cols.append(np.concatenate([migrate[name], compute[name], compute[name][:-1]]))
            vals.append(np.concatenate([ones, ones, -ones[1:]]))
            row_lower.append(migration_rhs)
            row_upper.append(np.full(horizon, np.inf))
            # compute[t] + migrate[t] <= capacity
            rows.append(base + horizon + np.concatenate([t, t]))
            cols.append(np.concatenate([compute[name], migrate[name]]))
            vals.append(np.concatenate([ones, ones]))
            row_lower.append(np.full(horizon, -np.inf))
            row_upper.append(np.full(horizon, dc.it_capacity_kw))
            # brown[t] >= pue[t] * (compute[t] + migrate[t]) - forecast[t]
            rows.append(base + 2 * horizon + np.concatenate([t, t, t]))
            cols.append(np.concatenate([brown, compute[name], migrate[name]]))
            vals.append(np.concatenate([ones, -pue, -pue]))
            row_lower.append(-forecast[:horizon])
            row_upper.append(np.full(horizon, np.inf))

        rows.append(num_cols + np.tile(t, len(self.datacenters)))
        cols.append(np.concatenate([compute[dc.name] for dc in self.datacenters]))
        vals.append(np.ones(horizon * len(self.datacenters)))
        row_lower.append(np.full(horizon, total_load_kw))
        row_upper.append(np.full(horizon, np.inf))

        lp = RowFormLP.from_triplets(
            np.concatenate(rows),
            np.concatenate(cols),
            np.concatenate(vals),
            shape=(num_rows, num_cols),
            row_lower=np.concatenate(row_lower),
            row_upper=np.concatenate(row_upper),
            lower=np.zeros(num_cols),
            upper=upper,
            cost=cost,
            label="GreenNebula window LP",
        )
        return lp, compute, migrate

    def schedule(self, hour_of_year: float) -> ScheduleDecision:
        """Run one scheduling pass at the given simulation hour."""
        started = _time.perf_counter()
        current_load = {dc.name: dc.vm_power_kw for dc in self.datacenters}
        total_load = float(sum(current_load.values()))
        forecasts = self.predictor.predict_all(self.datacenters, hour_of_year)
        lp, compute, _ = self.build_model(hour_of_year, total_load, current_load, forecasts)
        result = solve_row_form(lp, self.solver_options)
        if not result.is_optimal:
            # Fall back to keeping the current placement.
            targets = dict(current_load)
            predicted_brown = float("nan")
            window = {name: np.full(self.horizon_hours, current_load[name]) for name in current_load}
        else:
            window = {
                name: result.value_array(indices) for name, indices in compute.items()
            }
            targets = {name: max(0.0, float(series[0])) for name, series in window.items()}
            predicted_brown = self._predicted_brown_kwh(window, hour_of_year, forecasts)
        migrations = self.planner.plan(self.datacenters, targets)
        elapsed = _time.perf_counter() - started
        return ScheduleDecision(
            hour_of_year=hour_of_year,
            target_power_kw=targets,
            migrations=migrations,
            predicted_brown_kwh=predicted_brown,
            solve_time_seconds=elapsed,
            window_power_kw=window,
        )

    # -- helpers ------------------------------------------------------------------------------
    def _predicted_brown_kwh(
        self,
        window: Mapping[str, np.ndarray],
        hour_of_year: float,
        forecasts: Mapping[str, np.ndarray],
    ) -> float:
        total = 0.0
        for dc in self.datacenters:
            series = window[dc.name]
            forecast = np.asarray(forecasts[dc.name], dtype=float)[: len(series)]
            pue = np.array([dc.pue(hour_of_year + t) for t in range(len(series))])
            total += float(np.sum(np.maximum(0.0, series * pue - forecast)))
        return total
