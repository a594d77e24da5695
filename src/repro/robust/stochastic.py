"""Scenario-based stochastic provisioning LP and ensemble evaluation.

The deterministic provisioning LP decides sizing *and* an operating year for
one trace.  The stochastic variant keeps one set of sizing columns per site
(capacity, solar, wind, battery — the first-stage decision) and replicates
every site's per-epoch operating block once per ensemble draw (the
second-stage recourse), weighting each draw's operating cost by its
probability.  Per draw, a per-epoch unserved-demand slack prices capacity
shortfalls at an SLA multiple of the dearest brown energy instead of making
off-nominal years infeasible — the planning-time analogue of the operator's
unserved-demand column.

The builder stitches the exact per-site skeletons the deterministic
compiler caches (:meth:`~repro.core.provisioning.ProvisioningCompiler.
site_skeleton`), remapping site-local columns: sizing columns ``0..3`` map
to the shared block, epoch columns to the draw's replica.  Solving the same
builder with a single draw — optionally with the sizing clamped to a given
plan — yields the SAA evaluation path and the differential oracle: with
sizing fixed, draws decouple, so the joint objective must equal the
probability-weighted sum of single-draw solves.

The same block machinery carries the N-1 contingency LP
(:mod:`repro.robust.contingency`): a "draw" may represent a single-site
outage instead of an off-nominal year, in which case ``blocked_sites``
forces the faulted site's entire epoch block to zero and
``unserved_energy_budget`` caps that draw's unserved energy (kWh over the
year) instead of merely pricing it.  ``build_ensemble_row_form`` exposes the
assembled row form without solving so contingency evaluation can stack many
fixed-sizing blocks into one mega-LP via
:func:`repro.lpsolver.batch.stack_block_diagonal`.

All robust LPs relax the capacity-spread constraint (``enforce_spread`` in
the deterministic path): a spread floor that scales with perturbed demand
would manufacture infeasibility and negative regret artifacts that say
nothing about siting robustness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.problem import GreenEnforcement, SitingProblem
from repro.core.provisioning import ProvisioningCompiler
from repro.lpsolver import SolverOptions, highs_backend
from repro.lpsolver.model import RowFormLP
from repro.robust.ensemble import EnsembleConfig, cvar, perturbed_problem

#: Site-local index ranges: columns 0..3 are sizing, the rest per-epoch.
_NUM_SIZING = 4
#: The brown-energy family is the third per-epoch family of the site layout
#: (compute, migrate, brown, ...); its objective coefficients anchor the
#: unserved-recourse price to the cost model's scaling.
_BROWN_FAMILY = 2


@dataclass
class StochasticSolution:
    """Outcome of one (possibly single-draw) stochastic provisioning solve."""

    objective: float                    #: probability-weighted expected cost
    sizing: Dict[str, Dict[str, float]]  #: per-site first-stage decision
    per_draw_costs: np.ndarray          #: unweighted total cost of each draw
    per_draw_unserved_cost: np.ndarray  #: unserved-recourse share of each draw
    per_draw_unserved_energy: np.ndarray  #: unserved kWh over the year, per draw
    num_cols: int
    num_rows: int
    iterations: int
    solver: str

    @property
    def draws(self) -> int:
        return len(self.per_draw_costs)


@dataclass
class EnsembleLayout:
    """Column/row layout of one assembled ensemble row form.

    Carries everything :func:`extract_ensemble_solution` needs to read a
    solution vector back into a :class:`StochasticSolution` — which makes a
    block solved inside a larger stacked LP (``stack_block_diagonal``)
    readable from its column slice alone.
    """

    names: Tuple[str, ...]
    num_draws: int
    num_epochs: int
    epoch_width: int          #: per-(draw, site) epoch-column count
    epoch_base: int
    unserved_base: int
    num_cols: int
    num_rows: int
    fixed_cost: float
    site_costs: List[List[np.ndarray]]   #: [draw][site] dense local objective
    unserved_cost: np.ndarray            #: per-epoch unserved price (unweighted)
    weights_hours: np.ndarray            #: hours of the year per epoch

    @property
    def num_sites(self) -> int:
        return len(self.names)


def _site_cost_vector(skeleton) -> np.ndarray:
    """Dense site-local objective coefficients of one skeleton."""
    cost = np.zeros(len(skeleton.lower))
    cost[skeleton.objective_cols] = skeleton.objective_vals
    return cost


def _unserved_cost(site_costs: Sequence[np.ndarray], num_epochs: int, penalty_x: float) -> np.ndarray:
    """Per-epoch unserved-demand price: penalty_x times the dearest brown coeff."""
    start = _NUM_SIZING + _BROWN_FAMILY * num_epochs
    brown = np.stack([cost[start : start + num_epochs] for cost in site_costs])
    per_epoch = penalty_x * brown.max(axis=0)
    if not np.any(per_epoch > 0):
        per_epoch = np.full(num_epochs, penalty_x)
    return per_epoch


def build_ensemble_row_form(
    compilers: Sequence[ProvisioningCompiler],
    siting: Mapping[str, str],
    weights: Optional[Sequence[float]] = None,
    sizing_bounds: Optional[Mapping[str, Sequence[float]]] = None,
    unserved_penalty_x: float = 10.0,
    blocked_sites: Optional[Sequence[Optional[int]]] = None,
    unserved_energy_budget: Optional[Sequence[Optional[float]]] = None,
    normalize_weights: bool = True,
) -> Tuple[RowFormLP, EnsembleLayout]:
    """Assemble the (stochastic or contingency) ensemble LP without solving.

    ``sizing_bounds`` clamps the shared sizing columns to a given plan
    (``{site: (capacity_kw, solar_kw, wind_kw, battery_kwh)}``), turning the
    solve into a fixed-first-stage evaluation.

    ``blocked_sites`` gives, per draw, the index (into sorted siting order)
    of a site whose entire epoch block is forced to zero — an N-1 outage of
    that site in that draw — or ``None`` for an unfaulted draw.  Every
    epoch-column lower bound is zero, so zeroing the block is always
    feasible and also keeps a dark site from earning export credits.

    ``unserved_energy_budget`` gives, per draw, an upper bound on unserved
    energy ``sum_t hours_t * unserved_t`` (kWh over the year), or ``None``
    to leave that draw's unserved merely priced.

    ``normalize_weights=False`` keeps the given draw weights as-is, which
    the contingency LP needs: its nominal draw must carry weight exactly 1.0
    against the once-paid sizing cost, with contingency recourse added at a
    small extra weight rather than re-normalized away.
    """
    if not compilers:
        raise ValueError("the stochastic LP needs at least one draw")
    if not siting:
        raise ValueError("the stochastic LP needs at least one sited location")
    D = len(compilers)
    if weights is None:
        w = np.full(D, 1.0 / D)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (D,) or np.any(w <= 0):
            raise ValueError("draw weights must be positive, one per draw")
        if normalize_weights:
            w = w / w.sum()
    if blocked_sites is not None and len(blocked_sites) != D:
        raise ValueError("blocked_sites needs one entry (or None) per draw")
    if unserved_energy_budget is not None and len(unserved_energy_budget) != D:
        raise ValueError("unserved_energy_budget needs one entry (or None) per draw")

    names = list(siting)
    S = len(names)
    base_problem = compilers[0].problem
    T = base_problem.num_epochs
    weights_hours = np.asarray(base_problem.epochs.epoch_weights_hours(), dtype=float)
    has_green = base_problem.params.min_green_fraction > 0
    per_epoch = base_problem.green_enforcement is GreenEnforcement.PER_EPOCH
    green_count = (T if per_epoch else 1) if has_green else 0

    skeletons = [
        [compiler.site_skeleton(name, size_class) for name, size_class in siting.items()]
        for compiler in compilers
    ]
    nvars_site = len(skeletons[0][0].lower)
    E = nvars_site - _NUM_SIZING
    epoch_base = _NUM_SIZING * S          # first epoch column
    unserved_base = epoch_base + D * S * E  # first unserved column
    ncols = unserved_base + D * T
    site_costs = [[_site_cost_vector(sk) for sk in draw] for draw in skeletons]
    unserved_cost = _unserved_cost(site_costs[0], T, unserved_penalty_x)

    def remap(local_cols: np.ndarray, d: int, s: int) -> np.ndarray:
        sizing = local_cols < _NUM_SIZING
        return np.where(
            sizing,
            _NUM_SIZING * s + local_cols,
            epoch_base + (d * S + s) * E + (local_cols - _NUM_SIZING),
        )

    rows_parts: List[np.ndarray] = []
    cols_parts: List[np.ndarray] = []
    vals_parts: List[np.ndarray] = []
    rhs_parts: List[np.ndarray] = []
    le_parts: List[np.ndarray] = []
    ge_parts: List[np.ndarray] = []
    t_idx = np.arange(T, dtype=np.int64)
    compute_local = _NUM_SIZING + t_idx  # compute is the first per-epoch family
    row_offset = 0
    for d in range(D):
        for s, skeleton in enumerate(skeletons[d]):
            rows_parts.append(skeleton.tri_rows + row_offset)
            cols_parts.append(remap(skeleton.tri_cols, d, s))
            vals_parts.append(skeleton.tri_vals)
            rhs_parts.append(skeleton.rhs)
            le_parts.append(skeleton.le_mask)
            ge_parts.append(skeleton.ge_mask)
            row_offset += skeleton.num_rows
        # total capacity per epoch: sum(compute) + unserved >= demand_d
        for s in range(S):
            rows_parts.append(t_idx + row_offset)
            cols_parts.append(remap(compute_local, d, s))
            vals_parts.append(np.ones(T))
        rows_parts.append(t_idx + row_offset)
        cols_parts.append(unserved_base + d * T + t_idx)
        vals_parts.append(np.ones(T))
        rhs_parts.append(np.full(T, compilers[d].problem.params.total_capacity_kw))
        le_parts.append(np.zeros(T, dtype=bool))
        ge_parts.append(np.ones(T, dtype=bool))
        row_offset += T
        if has_green:
            for s, skeleton in enumerate(skeletons[d]):
                rows_parts.append(skeleton.green_rows + row_offset)
                cols_parts.append(remap(skeleton.green_cols, d, s))
                vals_parts.append(skeleton.green_vals)
            rhs_parts.append(np.zeros(green_count))
            le_parts.append(np.zeros(green_count, dtype=bool))
            ge_parts.append(np.ones(green_count, dtype=bool))
            row_offset += green_count
    if unserved_energy_budget is not None:
        # One LE row per budgeted draw: sum_t hours_t * unserved_{d,t} <= B_d.
        for d, budget in enumerate(unserved_energy_budget):
            if budget is None:
                continue
            rows_parts.append(np.full(T, row_offset, dtype=np.int64))
            cols_parts.append(unserved_base + d * T + t_idx)
            vals_parts.append(weights_hours.copy())
            rhs_parts.append(np.array([float(budget)]))
            le_parts.append(np.ones(1, dtype=bool))
            ge_parts.append(np.zeros(1, dtype=bool))
            row_offset += 1
    nrows = row_offset

    rhs = np.concatenate(rhs_parts)
    le_mask = np.concatenate(le_parts)
    ge_mask = np.concatenate(ge_parts)

    lower = np.zeros(ncols)
    upper = np.full(ncols, np.inf)
    cost = np.zeros(ncols)
    fixed_cost = 0.0
    for s, name in enumerate(names):
        skeleton0 = skeletons[0][s]
        sizing_slice = slice(_NUM_SIZING * s, _NUM_SIZING * (s + 1))
        if sizing_bounds is not None:
            fixed = np.asarray(sizing_bounds[name], dtype=float)
            if fixed.shape != (_NUM_SIZING,):
                raise ValueError(f"sizing bounds for {name!r} need 4 values")
            lower[sizing_slice] = fixed
            upper[sizing_slice] = fixed
        else:
            lower[sizing_slice] = skeleton0.lower[:_NUM_SIZING]
            upper[sizing_slice] = skeleton0.upper[:_NUM_SIZING]
        # Sizing is a first-stage cost, paid once (identical across draws —
        # only weather/demand are perturbed, never prices).
        cost[sizing_slice] = site_costs[0][s][:_NUM_SIZING]
        fixed_cost += skeletons[0][s].fixed_cost
        for d in range(D):
            start = epoch_base + (d * S + s) * E
            epoch_slice = slice(start, start + E)
            lower[epoch_slice] = skeletons[d][s].lower[_NUM_SIZING:]
            upper[epoch_slice] = skeletons[d][s].upper[_NUM_SIZING:]
            cost[epoch_slice] = w[d] * site_costs[d][s][_NUM_SIZING:]
    if blocked_sites is not None:
        # A faulted site's whole epoch block goes dark: no compute, no brown
        # burn, no battery cycling, no export revenue.  Epoch lower bounds
        # are all zero, so the zero block is always feasible.
        for d, s_blocked in enumerate(blocked_sites):
            if s_blocked is None:
                continue
            if not 0 <= int(s_blocked) < S:
                raise ValueError(f"blocked site index {s_blocked!r} out of range")
            start = epoch_base + (d * S + int(s_blocked)) * E
            upper[start : start + E] = 0.0
    for d in range(D):
        u_slice = slice(unserved_base + d * T, unserved_base + (d + 1) * T)
        cost[u_slice] = w[d] * unserved_cost

    row_form = RowFormLP.from_triplets(
        np.concatenate(rows_parts),
        np.concatenate(cols_parts),
        np.concatenate(vals_parts),
        shape=(nrows, ncols),
        row_lower=np.where(le_mask, -np.inf, rhs),
        row_upper=np.where(ge_mask, np.inf, rhs),
        lower=lower,
        upper=upper,
        cost=cost,
        objective_constant=fixed_cost,
        label=f"ensemble LP ({D} draws x {S} sites x {T} epochs)",
    )
    layout = EnsembleLayout(
        names=tuple(names),
        num_draws=D,
        num_epochs=T,
        epoch_width=E,
        epoch_base=epoch_base,
        unserved_base=unserved_base,
        num_cols=ncols,
        num_rows=nrows,
        fixed_cost=fixed_cost,
        site_costs=site_costs,
        unserved_cost=unserved_cost,
        weights_hours=weights_hours,
    )
    return row_form, layout


def extract_ensemble_solution(
    x: np.ndarray,
    layout: EnsembleLayout,
    objective: float,
    iterations: int = 0,
    solver: str = "",
) -> StochasticSolution:
    """Read a solved column vector back through an :class:`EnsembleLayout`."""
    S, D, T, E = layout.num_sites, layout.num_draws, layout.num_epochs, layout.epoch_width
    sizing: Dict[str, Dict[str, float]] = {}
    sizing_cost = 0.0
    for s, name in enumerate(layout.names):
        block = x[_NUM_SIZING * s : _NUM_SIZING * (s + 1)]
        sizing[name] = {
            "capacity_kw": float(block[0]),
            "solar_kw": float(block[1]),
            "wind_kw": float(block[2]),
            "battery_kwh": float(block[3]),
        }
        sizing_cost += float(np.dot(layout.site_costs[0][s][:_NUM_SIZING], block))
    per_draw = np.empty(D)
    per_draw_unserved = np.empty(D)
    per_draw_energy = np.empty(D)
    for d in range(D):
        epoch_cost = 0.0
        for s in range(S):
            start = layout.epoch_base + (d * S + s) * E
            epoch_cost += float(
                np.dot(layout.site_costs[d][s][_NUM_SIZING:], x[start : start + E])
            )
        u_slice = slice(layout.unserved_base + d * T, layout.unserved_base + (d + 1) * T)
        unserved_d = float(np.dot(layout.unserved_cost, x[u_slice]))
        per_draw_unserved[d] = unserved_d
        per_draw_energy[d] = float(np.dot(layout.weights_hours, x[u_slice]))
        per_draw[d] = layout.fixed_cost + sizing_cost + epoch_cost + unserved_d

    return StochasticSolution(
        objective=float(objective),
        sizing=sizing,
        per_draw_costs=per_draw,
        per_draw_unserved_cost=per_draw_unserved,
        per_draw_unserved_energy=per_draw_energy,
        num_cols=layout.num_cols,
        num_rows=layout.num_rows,
        iterations=int(iterations),
        solver=solver,
    )


def solve_ensemble_lp(
    compilers: Sequence[ProvisioningCompiler],
    siting: Mapping[str, str],
    options: Optional[SolverOptions] = None,
    weights: Optional[Sequence[float]] = None,
    sizing_bounds: Optional[Mapping[str, Sequence[float]]] = None,
    unserved_penalty_x: float = 10.0,
    blocked_sites: Optional[Sequence[Optional[int]]] = None,
    unserved_energy_budget: Optional[Sequence[Optional[float]]] = None,
    normalize_weights: bool = True,
) -> StochasticSolution:
    """Build and solve the stochastic LP over one compiler per draw.

    See :func:`build_ensemble_row_form` for the meaning of every knob; this
    wrapper assembles, solves (HiGHS when available, scipy otherwise) and
    reads the solution back.
    """
    options = options or SolverOptions()
    row_form, layout = build_ensemble_row_form(
        compilers,
        siting,
        weights=weights,
        sizing_bounds=sizing_bounds,
        unserved_penalty_x=unserved_penalty_x,
        blocked_sites=blocked_sites,
        unserved_energy_budget=unserved_energy_budget,
        normalize_weights=normalize_weights,
    )
    result = highs_backend.solve_row_form(row_form, options, check=True)
    return extract_ensemble_solution(
        result.x,
        layout,
        objective=float(result.objective),
        iterations=int(result.iterations),
        solver=result.solver,
    )


def _sizing_tuples(sizing: Mapping[str, Mapping[str, float]]) -> Dict[str, Tuple[float, ...]]:
    return {
        name: (
            float(block["capacity_kw"]),
            float(block["solar_kw"]),
            float(block["wind_kw"]),
            float(block["battery_kwh"]),
        )
        for name, block in sizing.items()
    }


def plan_siting_and_sizing(plan) -> Tuple[Dict[str, str], Dict[str, Tuple[float, ...]]]:
    """Siting and sizing of a solved network plan, in sorted site order."""
    siting: Dict[str, str] = {}
    sizing: Dict[str, Tuple[float, ...]] = {}
    for dc in sorted(plan.datacenters, key=lambda d: d.name):
        siting[dc.name] = dc.size_class
        sizing[dc.name] = (
            float(dc.capacity_kw),
            float(dc.solar_kw),
            float(dc.wind_kw),
            float(dc.battery_kwh),
        )
    return siting, sizing


def ensemble_report(
    problem: SitingProblem,
    siting: Mapping[str, str],
    sizing: Mapping[str, Sequence[float]],
    config: EnsembleConfig,
    options: Optional[SolverOptions] = None,
) -> Dict[str, object]:
    """Evaluate a deterministic plan against an ensemble of off-nominal years.

    Per draw the plan's sizing is re-priced on the perturbed year (fixed
    first stage, free recourse) and compared with that year's free-sizing
    optimum; the gap is the plan's regret on that year.  In ``stochastic``
    mode the joint scenario LP is solved as well, giving the sizing a
    clairvoyant-of-the-distribution planner would pick and the expected cost
    it achieves.  Returns a JSON-ready record.
    """
    options = options or SolverOptions()
    compilers = [
        ProvisioningCompiler(perturbed_problem(problem, config, draw))
        for draw in range(config.draws)
    ]
    plan_costs = np.empty(config.draws)
    plan_unserved = np.empty(config.draws)
    optimum_costs = np.empty(config.draws)
    for d, compiler in enumerate(compilers):
        fixed = solve_ensemble_lp(
            [compiler],
            siting,
            options=options,
            sizing_bounds=sizing,
            unserved_penalty_x=config.unserved_penalty_x,
        )
        free = solve_ensemble_lp(
            [compiler],
            siting,
            options=options,
            unserved_penalty_x=config.unserved_penalty_x,
        )
        plan_costs[d] = fixed.per_draw_costs[0]
        plan_unserved[d] = fixed.per_draw_unserved_cost[0]
        optimum_costs[d] = free.per_draw_costs[0]
    regrets = plan_costs - optimum_costs

    report: Dict[str, object] = {
        "draws": int(config.draws),
        "mode": config.mode,
        "seed": int(config.seed),
        "alpha": float(config.alpha),
        "weather_noise": float(config.weather_noise),
        "demand_noise": float(config.demand_noise),
        "expected_cost": float(plan_costs.mean()),
        "cvar_cost": cvar(plan_costs, config.alpha),
        "regret_mean": float(regrets.mean()),
        "regret_max": float(regrets.max()),
        "regret_mean_pct": float(100.0 * (regrets / optimum_costs).mean()),
        "draws_with_unserved": int(np.count_nonzero(plan_unserved > 1e-6)),
        "per_draw_cost": [float(c) for c in plan_costs],
        "per_draw_optimum": [float(c) for c in optimum_costs],
        "per_draw_regret": [float(c) for c in regrets],
    }
    if config.mode == "stochastic":
        joint = solve_ensemble_lp(
            compilers,
            siting,
            options=options,
            unserved_penalty_x=config.unserved_penalty_x,
        )
        expected_det = float(plan_costs.mean())
        report["stochastic"] = {
            "expected_cost": float(joint.objective),
            "cvar_cost": cvar(joint.per_draw_costs, config.alpha),
            "sizing": joint.sizing,
            "per_draw_cost": [float(c) for c in joint.per_draw_costs],
            "num_cols": int(joint.num_cols),
            "num_rows": int(joint.num_rows),
            "iterations": int(joint.iterations),
            "solver": joint.solver,
        }
        report["stochastic_expected_cost"] = float(joint.objective)
        report["stochastic_cvar_cost"] = report["stochastic"]["cvar_cost"]
        report["stochastic_saving_pct"] = (
            float(100.0 * (expected_det - joint.objective) / expected_det)
            if expected_det > 0
            else 0.0
        )
    return report
