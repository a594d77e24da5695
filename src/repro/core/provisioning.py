"""Fixed-siting provisioning LP (step 2 of the paper's heuristic).

Once the heuristic has decided *where* datacenters are placed and whether each
is "small" or "large" (which fixes the per-kW construction price), the
remaining problem — how much compute capacity, solar, wind and storage to
provision at each site, and how to distribute load and energy over the epochs
— is a pure LP.  This module builds and solves that LP and converts the
optimum into :class:`~repro.core.solution.NetworkPlan` objects.

The formulation follows Fig. 1 with one refinement: green energy is allocated
explicitly into "used directly", "stored to batteries", "stored to the grid"
and (implicitly) "curtailed", so that the green-fraction constraint counts
only green energy that actually serves the load (directly or via storage).
This closes a loophole in the figure's aggregate form in which simultaneous
charge/discharge could inflate the green numerator, and matches the intent
described in Sections II-B and IV.

The LP is assembled directly in HiGHS row form
(:class:`~repro.lpsolver.model.RowFormLP`).  Each per-epoch constraint
family — power balance, battery dynamics, net-metering bank, migration
coupling — is one block of COO triplets in a per-site skeleton, cached by a
:class:`ProvisioningCompiler` so the annealing search pays assembly costs
only once per ``(location, size class)`` pair it visits; sitings of the same
shape share one cached CSC pattern, so an assembly is one fancy-index of the
concatenated values.  Every epoch grid, a single-epoch one included, takes
this one path, and so do the batched pricing stack
(:meth:`ProvisioningCompiler.compile_batch`) and the incremental evaluator
(:class:`IncrementalSitingEvaluator`).  The test suite keeps a readable
per-epoch object-API builder of the same LP as its reference oracle.

Plan extraction is lazy: :class:`ProvisioningResult` materialises the
:class:`NetworkPlan` on first access of ``.plan``, so the thousands of
intermediate LPs the annealing search discards never pay extraction costs.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.costs import CostModel
from repro.core.problem import GreenEnforcement, SitingProblem, StorageMode
from repro.core.solution import DatacenterPlan, NetworkPlan
from repro.energy.profiles import LocationProfile
from repro.lpsolver import RowFormLP, SolverOptions
from repro.lpsolver import highs_backend
from repro.lpsolver.model import csc_pattern
from repro.lpsolver import validate as lp_validate

#: Per-epoch variable families of one site, in registration order (after the
#: four scalar sizing variables capacity/solar/wind/battery).
_EPOCH_FAMILIES = (
    "compute",
    "migrate",
    "brown",
    "green_direct",
    "battery_charge",
    "battery_discharge",
    "battery_level",
    "net_charge",
    "net_discharge",
    "net_level",
)

def _merge_duplicates(
    rows: np.ndarray, cols: np.ndarray, vals: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sum the triplets of one constraint block that share a ``(row, col)``.

    The cyclic coupling of the migration and storage-level rows reads epoch
    ``t - 1``, which on a single-epoch grid is ``t`` itself, so those blocks
    name one coordinate twice.  The merged entry keeps the position of the
    first occurrence (an explicit zero when the terms cancel), so a block
    without duplicates comes back unchanged.
    """
    codes = rows * np.int64(cols.max() + 1) + cols
    unique, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    if len(unique) == len(codes):
        return rows, cols, vals
    order = np.argsort(first)
    keep = first[order]
    return rows[keep], cols[keep], np.bincount(inverse, weights=vals)[order]


@dataclass
class _SiteLayout:
    """Index layout of one site's variables inside the model's vector.

    Variables are registered site by site, so the layout is fully determined by the site's base offset and the number of epochs:
    ``[capacity, solar, wind, battery]`` followed by the ten per-epoch
    families of ``_EPOCH_FAMILIES``.
    """

    profile: LocationProfile
    size_class: str
    base: int
    num_epochs: int

    def __post_init__(self) -> None:
        t = np.arange(self.num_epochs, dtype=np.int64)
        self.capacity = self.base
        self.solar = self.base + 1
        self.wind = self.base + 2
        self.battery = self.base + 3
        for k, family in enumerate(_EPOCH_FAMILIES):
            setattr(self, family, self.base + 4 + k * self.num_epochs + t)

    @property
    def num_variables(self) -> int:
        return 4 + len(_EPOCH_FAMILIES) * self.num_epochs


@dataclass
class _SiteSkeleton:
    """Cached constraint/objective skeleton of one ``(location, size class)``.

    Everything is expressed in site-local variable indices ``0..n-1``; the
    compiler offsets rows and columns when stitching sites into an LP.
    ``tri_*`` carry the site's constraint blocks as one concatenation of COO
    triplets (site-local rows, one entry per ``(row, col)`` coordinate),
    ``rhs`` and the ``le_mask``/``ge_mask`` sense masks one entry per row
    (neither set: an equality).  ``green_*`` holds the site's contribution
    to the cross-site minimum-green coupling constraint.
    """

    num_epochs: int
    lower: np.ndarray
    upper: np.ndarray
    objective_cols: np.ndarray
    objective_vals: np.ndarray
    fixed_cost: float
    tri_rows: np.ndarray
    tri_cols: np.ndarray
    tri_vals: np.ndarray
    rhs: np.ndarray
    le_mask: np.ndarray
    ge_mask: np.ndarray
    green_rows: np.ndarray
    green_cols: np.ndarray
    green_vals: np.ndarray

    @property
    def num_rows(self) -> int:
        return int(self.rhs.shape[0])


@dataclass
class _SkeletonTemplate:
    """Location-independent structure of a site skeleton (one per class).

    All candidate locations of a problem share every index array, sense mask
    and right-hand side of their skeletons — only a handful of value slots
    (PUE and production series, the brown-plant cap, objective prices) differ.
    The template keeps a donor skeleton plus the slot positions inside its
    ``tri_vals``/``green_vals`` concatenations, so deriving the skeleton of a
    new location is a couple of array copies and slice writes instead of a
    full rebuild — the dominant cost of pricing large candidate sets.
    """

    donor: "_SiteSkeleton"
    #: block label -> start offset into tri_vals; slot layout is fixed per block.
    slots: Dict[str, int]
    brown_cols: np.ndarray


@dataclass
class _IncrementalSiteData:
    """Per-site delta arrays for the incremental (mutable-model) solve path.

    The incremental layout keeps every site block *uniform across size
    classes*: the ``small_dc`` row is always present (it is the first block
    row) and is relaxed to a free row for "large" sites, so a size-class flip
    is a pure value edit (objective coefficients + one row's bounds) and
    add/remove moves always splice ranges of identical shape.  ``row_*``
    carry the block rows row-wise over site-local columns (for ``addRows``);
    ``coupling_*`` carry this site's entries in the cross-site coupling rows
    column-wise (for ``addCols``; the coupling rows sit at fixed global
    indices ``0..T+G`` so these never need remapping).
    """

    name: str
    num_vars: int
    lower: np.ndarray
    upper: np.ndarray
    row_lower: np.ndarray
    row_upper: np.ndarray
    row_starts: np.ndarray
    row_cols: np.ndarray
    row_vals: np.ndarray
    small_dc_upper: float
    coupling_starts: np.ndarray
    coupling_rows: np.ndarray
    coupling_vals: np.ndarray
    cost_cols: np.ndarray
    cost_vals: Dict[str, np.ndarray]
    fixed: Dict[str, float]

    @property
    def num_rows(self) -> int:
        return int(self.row_lower.shape[0])


@dataclass
class BatchCompiledLP:
    """A block-diagonal stack of independent single-site pricing LPs.

    Produced by :meth:`ProvisioningCompiler.compile_batch`: one solve of
    ``row_form`` prices every site at once, and :meth:`site_costs` maps the
    stacked solution vector back to per-site monthly costs (each site's slice
    of the objective plus its fixed cost).  The blocks share no variables or
    rows, so the per-site costs equal the optima of the individual pricing
    LPs.
    """

    row_form: RowFormLP
    names: List[str]
    col_offsets: np.ndarray
    row_offsets: np.ndarray
    constants: np.ndarray

    def site_costs(self, x: np.ndarray) -> np.ndarray:
        """Per-site objective values of a stacked solution vector."""
        contributions = self.row_form.cost * np.asarray(x, dtype=float)
        return np.add.reduceat(contributions, self.col_offsets[:-1]) + self.constants


@dataclass
class _ModelTemplate:
    """Cached CSC sparsity pattern of one siting *shape*.

    Sitings whose ordered size-class tuples match produce LPs with identical
    sparsity patterns (per-site skeletons keep explicit zeros precisely so
    this holds across locations); only the coefficient values differ.  The
    template maps the deterministic triplet concatenation order onto CSC data
    order (``perm``) so assembling a new model of the same shape is a single
    fancy-index, and caches the per-row sense masks used to expand right-hand
    sides into HiGHS row bounds.
    """

    shape: Tuple[int, int]
    perm: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    le_mask: np.ndarray
    ge_mask: np.ndarray


class ProvisioningResult:
    """Outcome of a fixed-siting provisioning solve.

    ``monthly_cost`` is the LP objective.  The :class:`NetworkPlan` behind
    ``plan`` is extracted lazily on first access — the annealing search
    evaluates thousands of sitings but only ever reads the plan of the best
    one, so eager extraction would dominate the hot path.
    """

    __slots__ = ("feasible", "monthly_cost", "message", "_plan", "_extractor")

    def __init__(
        self,
        feasible: bool,
        monthly_cost: float,
        plan: Optional[NetworkPlan] = None,
        message: str = "",
        extractor: Optional[Callable[[], NetworkPlan]] = None,
    ) -> None:
        self.feasible = feasible
        self.monthly_cost = monthly_cost
        self.message = message
        self._plan = plan
        self._extractor = extractor

    @property
    def plan(self) -> Optional[NetworkPlan]:
        # Snapshot the extractor: results are shared across threads through
        # the siting memo, and two concurrent first reads must both see a
        # callable (duplicate extraction is harmless; both produce the same
        # plan from the same solve vector).
        extractor = self._extractor
        if self._plan is None and extractor is not None:
            self._plan = extractor()
            self._extractor = None
        return self._plan

    def __bool__(self) -> bool:  # pragma: no cover - convenience only
        return self.feasible

    def __repr__(self) -> str:
        return (
            f"ProvisioningResult(feasible={self.feasible}, "
            f"monthly_cost={self.monthly_cost:.6g}, message={self.message!r})"
        )


class ProvisioningCompiler:
    """Compiles siting decisions of one problem into provisioning models.

    The compiler caches the per-site constraint skeleton (COO triplets,
    bounds, objective coefficients) keyed by ``(location, size class)``.
    The annealing moves — add, remove, swap, resize, merge — revisit the same
    pairs constantly, so after warm-up a model assembly is little more than
    concatenating cached arrays and adding the cross-site coupling rows.
    Thread-safe; the parallel annealing chains share one compiler.
    """

    def __init__(self, problem: SitingProblem) -> None:
        self.problem = problem
        self.cost_model = CostModel(problem.params)
        self._profiles = problem.profile_map()
        self._skeletons: Dict[Tuple[str, str], _SiteSkeleton] = {}
        # Per-shape CSC pattern cache.
        self._templates: Dict[Tuple, _ModelTemplate] = {}
        # Per-site delta arrays for the incremental solve path.
        self._incremental: Dict[str, _IncrementalSiteData] = {}
        # Location-independent skeleton structure per size class; once built,
        # new locations' skeletons are derived by slot rewrites.
        self._skeleton_templates: Dict[str, _SkeletonTemplate] = {}
        self._lock = threading.Lock()
        # Warm-vs-cold skeleton accounting: hits reuse a compiled skeleton,
        # derives rewrite a class template's value slots, builds pay full
        # assembly.  Reported through ExperimentRunner.cache_stats() and the
        # serve daemon's /metrics.
        self.skeleton_hits = 0
        self.skeleton_derives = 0
        self.skeleton_builds = 0

    # -- per-site skeleton -------------------------------------------------------
    def site_skeleton(self, name: str, size_class: str) -> _SiteSkeleton:
        key = (name, size_class)
        with self._lock:
            skeleton = self._skeletons.get(key)
            template = self._skeleton_templates.get(size_class)
            if skeleton is not None:
                self.skeleton_hits += 1
                return skeleton
        if template is not None:
            # Fast path: every location shares the structure; only the
            # profile-dependent value slots are rewritten.
            skeleton = self._derive_site_skeleton(template, name, size_class)
            with self._lock:
                self.skeleton_derives += 1
        else:
            skeleton, template = self._build_site_skeleton(name, size_class)
            with self._lock:
                self.skeleton_builds += 1
                self._skeleton_templates.setdefault(size_class, template)
        with self._lock:
            skeleton = self._skeletons.setdefault(key, skeleton)
        return skeleton

    def skeleton_stats(self) -> Dict[str, int]:
        """Cumulative warm-vs-cold skeleton counters for this compiler."""
        with self._lock:
            return {
                "skeleton_hits": self.skeleton_hits,
                "skeleton_derives": self.skeleton_derives,
                "skeleton_builds": self.skeleton_builds,
            }

    def _derive_site_skeleton(
        self, template: _SkeletonTemplate, name: str, size_class: str
    ) -> _SiteSkeleton:
        """Skeleton of a new location derived from the class's template.

        Mirrors :meth:`_build_site_skeleton` exactly (the differential tests
        pin this): only the PUE/production value slots, the brown-plant cap
        bound, the objective prices and the green-coupling demand slots
        depend on the profile.
        """
        problem = self.problem
        params = problem.params
        profile = self._profiles.get(name)
        if profile is None:
            raise KeyError(f"siting refers to unknown location {name!r}")
        donor = template.donor
        T = donor.num_epochs
        weights = problem.epochs.epoch_weights_hours()
        pue = profile.pue
        mf_pue = params.migration_factor * pue

        tri_vals = donor.tri_vals.copy()
        slots = template.slots
        if "small_dc" in slots:
            tri_vals[slots["small_dc"]] = profile.max_pue
        o = slots["power_balance"]
        tri_vals[o + 4 * T : o + 5 * T] = -pue
        tri_vals[o + 5 * T : o + 6 * T] = -mf_pue
        o = slots["green_delivery_cap"]
        tri_vals[o : o + T] = pue
        tri_vals[o + T : o + 2 * T] = mf_pue
        o = slots["green_allocation"]
        tri_vals[o : o + T] = profile.solar_alpha
        tri_vals[o + T : o + 2 * T] = profile.wind_beta

        upper = donor.upper.copy()
        brown_cap = params.brown_plant_cap_fraction * profile.near_plant_capacity_kw
        upper[template.brown_cols] = max(0.0, brown_cap)

        coefficients = self.cost_model.linear_coefficients(profile, size_class)
        obj_vals = [
            np.array(
                [
                    coefficients["capacity_kw"],
                    coefficients["solar_kw"],
                    coefficients["wind_kw"],
                    coefficients["battery_kwh"],
                ]
            ),
            coefficients["brown_kwh_year"] * weights,
        ]
        if problem.storage is StorageMode.NET_METERING:
            obj_vals.append(coefficients["net_discharge_kwh_year"] * weights)
            obj_vals.append(coefficients["net_charge_kwh_year"] * weights)

        if params.min_green_fraction > 0:
            frac = params.min_green_fraction
            green_vals = donor.green_vals.copy()
            if problem.green_enforcement is GreenEnforcement.PER_EPOCH:
                green_vals[3 * T : 4 * T] = -(pue * frac)
                green_vals[4 * T : 5 * T] = -(mf_pue * frac)
            else:
                green_vals[3 * T : 4 * T] = -((pue * weights) * frac)
                green_vals[4 * T : 5 * T] = -((mf_pue * weights) * frac)
        else:
            green_vals = donor.green_vals

        # Index arrays, right-hand sides and sense masks are shared.
        return _SiteSkeleton(
            num_epochs=T,
            lower=donor.lower,
            upper=upper,
            objective_cols=donor.objective_cols,
            objective_vals=np.concatenate(obj_vals),
            fixed_cost=coefficients["fixed"],
            tri_rows=donor.tri_rows,
            tri_cols=donor.tri_cols,
            tri_vals=tri_vals,
            rhs=donor.rhs,
            le_mask=donor.le_mask,
            ge_mask=donor.ge_mask,
            green_rows=donor.green_rows,
            green_cols=donor.green_cols,
            green_vals=green_vals,
        )

    def _build_site_skeleton(
        self, name: str, size_class: str
    ) -> Tuple[_SiteSkeleton, _SkeletonTemplate]:
        problem = self.problem
        params = problem.params
        profile = self._profiles.get(name)
        if profile is None:
            raise KeyError(f"siting refers to unknown location {name!r}")
        epochs = problem.epochs
        T = epochs.num_epochs
        weights = epochs.epoch_weights_hours()
        # Scalar on uniform grids, per-epoch array on adaptively refined ones.
        hours = np.broadcast_to(np.asarray(epochs.epoch_hours, dtype=float), (T,))
        t = np.arange(T, dtype=np.int64)
        prev = (t - 1) % T
        ones = np.ones(T)

        allow_solar = problem.sources.allows_solar
        allow_wind = problem.sources.allows_wind
        use_batteries = problem.storage is StorageMode.BATTERIES
        use_net_metering = problem.storage is StorageMode.NET_METERING
        inf = float("inf")

        # Local variable layout mirrors _SiteLayout (and the tests' scalar oracle).
        cap, sol, wnd, bat = 0, 1, 2, 3
        fam = {
            family: 4 + k * T + t for k, family in enumerate(_EPOCH_FAMILIES)
        }
        n_vars = 4 + len(_EPOCH_FAMILIES) * T
        lower = np.zeros(n_vars)
        upper = np.full(n_vars, inf)
        upper[sol] = inf if allow_solar else 0.0
        upper[wnd] = inf if allow_wind else 0.0
        upper[bat] = inf if use_batteries else 0.0
        brown_cap = params.brown_plant_cap_fraction * profile.near_plant_capacity_kw
        upper[fam["brown"]] = max(0.0, brown_cap)
        storage_upper = inf if use_batteries else 0.0
        upper[fam["battery_charge"]] = storage_upper
        upper[fam["battery_discharge"]] = storage_upper
        upper[fam["battery_level"]] = storage_upper
        net_upper = inf if use_net_metering else 0.0
        upper[fam["net_charge"]] = net_upper
        upper[fam["net_discharge"]] = net_upper
        upper[fam["net_level"]] = net_upper

        pue = profile.pue
        mf_pue = params.migration_factor * pue

        # Constraint blocks, concatenated in order with block-local row
        # offsets applied; ``slots`` records where each block's values start.
        tri_rows: List[np.ndarray] = []
        tri_cols: List[np.ndarray] = []
        tri_vals: List[np.ndarray] = []
        rhs_parts: List[np.ndarray] = []
        le_parts: List[np.ndarray] = []
        ge_parts: List[np.ndarray] = []
        slots: Dict[str, int] = {}
        num_rows = 0
        num_vals = 0

        def block(row_lists, col_lists, val_lists, sense, rhs, label):
            nonlocal num_rows, num_vals
            rows, cols, vals = _merge_duplicates(
                np.concatenate(row_lists),
                np.concatenate(col_lists),
                np.concatenate(val_lists),
            )
            rhs = np.asarray(rhs, dtype=float)
            tri_rows.append(rows + num_rows)
            tri_cols.append(cols)
            tri_vals.append(vals)
            rhs_parts.append(rhs)
            le_parts.append(np.full(len(rhs), sense == "<="))
            ge_parts.append(np.full(len(rhs), sense == ">="))
            slots[label] = num_vals
            num_rows += len(rhs)
            num_vals += len(vals)

        # Size-class consistency: the construction price per kW assumed in the
        # objective is only valid within the class's power range.
        if size_class == "small":
            block(
                [np.zeros(1, dtype=np.int64)],
                [np.array([cap], dtype=np.int64)],
                [np.array([profile.max_pue])],
                "<=",
                [params.small_dc_threshold_kw],
                "small_dc",
            )
        # Migration overhead: load that left this site since the previous epoch
        # still consumes energy here during this epoch.
        block(
            [t, t, t],
            [fam["migrate"], fam["compute"][prev], fam["compute"]],
            [ones, -ones, ones],
            ">=",
            np.zeros(T),
            "migration",
        )
        # Constraint 1: provisioned capacity covers compute plus incoming load.
        block(
            [t, t, t],
            [np.full(T, cap, dtype=np.int64), fam["compute"], fam["migrate"]],
            [ones, -ones, -ones],
            ">=",
            np.zeros(T),
            "capacity_cover",
        )
        # Constraint 5: demand is met by direct green, storage draws and brown.
        block(
            [t, t, t, t, t, t],
            [
                fam["green_direct"],
                fam["battery_discharge"],
                fam["net_discharge"],
                fam["brown"],
                fam["compute"],
                fam["migrate"],
            ],
            [ones, ones, ones, ones, -pue, -mf_pue],
            ">=",
            np.zeros(T),
            "power_balance",
        )
        # Green energy only counts toward the requirement when it actually
        # serves load: what is delivered (directly or from storage) in an epoch
        # cannot exceed that epoch's demand.  Surplus production is curtailed
        # (or, with net metering, banked for later).
        block(
            [t, t, t, t, t],
            [
                fam["compute"],
                fam["migrate"],
                fam["green_direct"],
                fam["battery_discharge"],
                fam["net_discharge"],
            ],
            [pue, mf_pue, -ones, -ones, -ones],
            ">=",
            np.zeros(T),
            "green_delivery_cap",
        )
        # Green allocation: direct use plus storage charging cannot exceed production.
        block(
            [t, t, t, t, t],
            [
                np.full(T, sol, dtype=np.int64),
                np.full(T, wnd, dtype=np.int64),
                fam["green_direct"],
                fam["battery_charge"],
                fam["net_charge"],
            ],
            [profile.solar_alpha, profile.wind_beta, -ones, -ones, -ones],
            ">=",
            np.zeros(T),
            "green_allocation",
        )
        if use_batteries:
            # Constraints 6-7: battery level dynamics (cyclic over the year).
            eff_hours = params.battery_efficiency * hours
            block(
                [t, t, t, t],
                [
                    fam["battery_level"],
                    fam["battery_level"][prev],
                    fam["battery_charge"],
                    fam["battery_discharge"],
                ],
                [ones, -ones, -eff_hours, hours],
                "==",
                np.zeros(T),
                "battery_dynamics",
            )
            block(
                [t, t],
                [fam["battery_level"], np.full(T, bat, dtype=np.int64)],
                [ones, -ones],
                "<=",
                np.zeros(T),
                "battery_capacity",
            )
        if use_net_metering:
            # Constraints 8-9: net-metered energy bank (cyclic over the year).
            block(
                [t, t, t, t],
                [
                    fam["net_level"],
                    fam["net_level"][prev],
                    fam["net_charge"],
                    fam["net_discharge"],
                ],
                [ones, -ones, -hours, hours],
                "==",
                np.zeros(T),
                "net_dynamics",
            )

        # Objective contribution of this site.
        coefficients = self.cost_model.linear_coefficients(profile, size_class)
        obj_cols = [np.array([cap, sol, wnd, bat], dtype=np.int64), fam["brown"]]
        obj_vals = [
            np.array(
                [
                    coefficients["capacity_kw"],
                    coefficients["solar_kw"],
                    coefficients["wind_kw"],
                    coefficients["battery_kwh"],
                ]
            ),
            coefficients["brown_kwh_year"] * weights,
        ]
        if use_net_metering:
            obj_cols.append(fam["net_discharge"])
            obj_vals.append(coefficients["net_discharge_kwh_year"] * weights)
            obj_cols.append(fam["net_charge"])
            obj_vals.append(coefficients["net_charge_kwh_year"] * weights)

        # This site's slice of the cross-site minimum-green coupling row(s):
        # delivered green counts positive, a ``frac`` share of the demand
        # counts negative (annual form weights epochs by their hours).
        if params.min_green_fraction > 0:
            frac = params.min_green_fraction
            per_epoch = problem.green_enforcement is GreenEnforcement.PER_EPOCH
            if per_epoch:
                green_val = np.ones(T)
                compute_val = -(pue * frac)
                migrate_val = -(mf_pue * frac)
                green_rows = np.concatenate([t] * 5)
            else:
                green_val = weights.astype(float)
                compute_val = -((pue * weights) * frac)
                migrate_val = -((mf_pue * weights) * frac)
                green_rows = np.zeros(5 * T, dtype=np.int64)
            green_cols = np.concatenate(
                [
                    fam["green_direct"],
                    fam["battery_discharge"],
                    fam["net_discharge"],
                    fam["compute"],
                    fam["migrate"],
                ]
            )
            green_vals = np.concatenate(
                [green_val, green_val, green_val, compute_val, migrate_val]
            )
        else:
            green_rows = np.empty(0, dtype=np.int64)
            green_cols = np.empty(0, dtype=np.int64)
            green_vals = np.empty(0)

        skeleton = _SiteSkeleton(
            num_epochs=T,
            lower=lower,
            upper=upper,
            objective_cols=np.concatenate(obj_cols),
            objective_vals=np.concatenate(obj_vals),
            fixed_cost=coefficients["fixed"],
            tri_rows=np.concatenate(tri_rows),
            tri_cols=np.concatenate(tri_cols),
            tri_vals=np.concatenate(tri_vals),
            rhs=np.concatenate(rhs_parts),
            le_mask=np.concatenate(le_parts),
            ge_mask=np.concatenate(ge_parts),
            green_rows=green_rows,
            green_cols=green_cols,
            green_vals=green_vals,
        )
        template = _SkeletonTemplate(donor=skeleton, slots=slots, brown_cols=fam["brown"])
        return skeleton, template

    # -- cross-process skeleton shipping -------------------------------------------
    def export_shared_state(self) -> Dict[str, Dict]:
        """Snapshot of the compiled per-site skeletons and class templates.

        Everything in the snapshot is plain data (numpy arrays, dataclasses),
        so it pickles across a process boundary; a worker-side compiler built
        for an *equivalent* problem seeds itself with
        :meth:`seed_shared_state` and then derives any further location's
        skeleton by slot rewrites instead of a full donor build.  Live HiGHS
        state (CSC templates, mutable models, solver contexts) never ships.
        """
        with self._lock:
            return {
                "templates": dict(self._skeleton_templates),
                "skeletons": dict(self._skeletons),
            }

    def seed_shared_state(self, state: Mapping[str, Dict]) -> None:
        """Adopt another compiler's exported skeletons (first writer wins)."""
        with self._lock:
            for size_class, template in state.get("templates", {}).items():
                self._skeleton_templates.setdefault(size_class, template)
            for key, skeleton in state.get("skeletons", {}).items():
                name = key[0]
                if name in self._profiles:
                    self._skeletons.setdefault(key, skeleton)

    # -- per-site incremental delta arrays ----------------------------------------
    def incremental_site_data(self, name: str) -> _IncrementalSiteData:
        """Delta arrays for splicing one site in/out of a mutable model."""
        with self._lock:
            data = self._incremental.get(name)
        if data is None:
            data = self._build_incremental_site_data(name)
            with self._lock:
                data = self._incremental.setdefault(name, data)
        return data

    def _build_incremental_site_data(self, name: str) -> _IncrementalSiteData:
        # The "small" skeleton carries the full structure (its small_dc row is
        # the one the "large" class relaxes); the class only changes objective
        # coefficients and the fixed cost.
        small = self.site_skeleton(name, "small")
        large = self.site_skeleton(name, "large")
        params = self.problem.params
        T = small.num_epochs
        n_vars = len(small.lower)
        if small.num_rows != large.num_rows + 1 or not small.le_mask[0]:
            raise RuntimeError("incremental layout expects the small_dc row first")

        row_lower = np.where(small.le_mask, -np.inf, small.rhs)
        row_upper = np.where(small.ge_mask, np.inf, small.rhs)
        order = np.argsort(small.tri_rows, kind="stable")
        row_starts = np.zeros(small.num_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(small.tri_rows, minlength=small.num_rows), out=row_starts[1:])

        # This site's entries in the coupling rows: compute columns feed the
        # total-capacity rows [0, T); the green contribution lands on the
        # min-green row(s) at [T, T+G).
        t = np.arange(T, dtype=np.int64)
        coup_cols = [4 + t]
        coup_rows = [t]
        coup_vals = [np.ones(T)]
        if params.min_green_fraction > 0:
            coup_cols.append(small.green_cols)
            coup_rows.append(T + small.green_rows)
            coup_vals.append(small.green_vals)
        cols = np.concatenate(coup_cols)
        rows = np.concatenate(coup_rows)
        vals = np.concatenate(coup_vals)
        col_order = np.argsort(cols, kind="stable")
        coupling_starts = np.zeros(n_vars + 1, dtype=np.int64)
        np.cumsum(np.bincount(cols, minlength=n_vars), out=coupling_starts[1:])

        if not np.array_equal(small.objective_cols, large.objective_cols):
            raise RuntimeError("objective support must not depend on the size class")
        return _IncrementalSiteData(
            name=name,
            num_vars=n_vars,
            lower=small.lower,
            upper=small.upper,
            row_lower=row_lower,
            row_upper=row_upper,
            row_starts=row_starts,
            row_cols=small.tri_cols[order],
            row_vals=small.tri_vals[order],
            small_dc_upper=float(row_upper[0]),
            coupling_starts=coupling_starts,
            coupling_rows=rows[col_order],
            coupling_vals=vals[col_order],
            cost_cols=small.objective_cols,
            cost_vals={"small": small.objective_vals, "large": large.objective_vals},
            fixed={"small": small.fixed_cost, "large": large.fixed_cost},
        )

    # -- templated row-form assembly ------------------------------------------------
    def compile_row_form(
        self, siting: Mapping[str, str], enforce_spread: bool = True
    ) -> Tuple[RowFormLP, List[_SiteLayout]]:
        """Assemble the provisioning LP of one siting in HiGHS row form.

        Sitings with the same ordered size-class tuple share one CSC sparsity
        pattern (:meth:`_build_template`, built on first use), so an assembly
        concatenates the sites' values, bounds and right-hand sides in a
        fixed order and places the values with one fancy-index.  Values
        that no longer fit the shape's pattern raise ``RuntimeError``.
        """
        problem = self.problem
        params = problem.params
        T = problem.num_epochs
        skeletons: List[_SiteSkeleton] = []
        classes: List[str] = []
        for name, size_class in siting.items():
            skeletons.append(self.site_skeleton(name, size_class))
            classes.append(size_class)
        num_sites = len(skeletons)
        nvars_site = len(skeletons[0].lower)
        has_green = params.min_green_fraction > 0
        per_epoch = problem.green_enforcement is GreenEnforcement.PER_EPOCH

        key = (tuple(classes), bool(enforce_spread))
        with self._lock:
            template = self._templates.get(key)
        if template is None:
            template = self._build_template(skeletons, enforce_spread, has_green, per_epoch)
            with self._lock:
                template = self._templates.setdefault(key, template)

        # Values, right-hand sides, bounds and costs in the same deterministic
        # order the template's pattern was built in.
        vals_parts = [skeleton.tri_vals for skeleton in skeletons]
        rhs_parts = [skeleton.rhs for skeleton in skeletons]
        vals_parts.append(np.ones(T * num_sites))  # total_capacity
        rhs_parts.append(np.full(T, params.total_capacity_kw))
        if has_green:
            vals_parts.extend(skeleton.green_vals for skeleton in skeletons)
            rhs_parts.append(np.zeros(T if per_epoch else 1))
        if enforce_spread:
            vals_parts.append(np.ones(num_sites))
            rhs_parts.append(np.full(num_sites, params.total_capacity_kw / num_sites))
        vals = np.concatenate(vals_parts)
        rhs = np.concatenate(rhs_parts)
        if len(vals) != len(template.perm) or len(rhs) != template.shape[0]:
            raise RuntimeError(
                f"siting {tuple(siting)} drifted from its shape's CSC pattern: "
                f"{len(vals)} values and {len(rhs)} rows for a pattern of "
                f"{len(template.perm)} entries and {template.shape[0]} rows"
            )

        num_cols = num_sites * nvars_site
        cost = np.zeros(num_cols)
        fixed_cost = 0.0
        for index, skeleton in enumerate(skeletons):
            cost[skeleton.objective_cols + index * nvars_site] = skeleton.objective_vals
            fixed_cost += skeleton.fixed_cost
        row_form = RowFormLP(
            cost=cost,
            a_indptr=template.indptr,
            a_indices=template.indices,
            a_data=vals[template.perm],
            shape=template.shape,
            row_lower=np.where(template.le_mask, -np.inf, rhs),
            row_upper=np.where(template.ge_mask, np.inf, rhs),
            lower=np.concatenate([skeleton.lower for skeleton in skeletons]),
            upper=np.concatenate([skeleton.upper for skeleton in skeletons]),
            objective_constant=fixed_cost,
        )
        if lp_validate.validation_enabled():
            lp_validate.validate_row_form(
                row_form,
                f"compiled skeleton instantiation ({num_sites} sites x {T} epochs)",
            )
        profiles = self._profiles
        layouts = [
            _SiteLayout(
                profile=profiles[name],
                size_class=size_class,
                base=index * nvars_site,
                num_epochs=T,
            )
            for index, (name, size_class) in enumerate(siting.items())
        ]
        return row_form, layouts

    #: The former name of :meth:`compile_row_form`; ``perfbench/spans.py``
    #: still wraps it.
    compile = compile_row_form

    def compile_batch(
        self,
        sitings: Sequence[Tuple[str, str]],
        enforce_spread: bool = False,
    ) -> BatchCompiledLP:
        """Stack independent single-site LPs into one block-diagonal mega-LP.

        ``sitings`` lists ``(location, size_class)`` pairs; each becomes its
        own complete pricing LP — including its total-capacity and green
        coupling rows, exactly as :meth:`compile_row_form` builds them for a
        one-site siting — and the blocks are concatenated block-diagonally in
        the given order.  One solve of the result prices every location at
        once; :meth:`BatchCompiledLP.site_costs` recovers the per-site costs.
        ``sitings`` must not be empty.
        """
        from repro.lpsolver.batch import stack_block_diagonal

        blocks: List[RowFormLP] = []
        names: List[str] = []
        for name, size_class in sitings:
            blocks.append(self.compile_row_form({name: size_class}, enforce_spread)[0])
            names.append(name)
        stacked, col_offsets, row_offsets = stack_block_diagonal(blocks)
        return BatchCompiledLP(
            row_form=stacked,
            names=names,
            col_offsets=col_offsets,
            row_offsets=row_offsets,
            constants=np.array([block.objective_constant for block in blocks]),
        )

    def _build_template(
        self,
        skeletons: List[_SiteSkeleton],
        enforce_spread: bool,
        has_green: bool,
        per_epoch: bool,
    ) -> _ModelTemplate:
        """CSC pattern of one siting shape; duplicate coordinates raise ``ValueError``."""
        problem = self.problem
        T = problem.num_epochs
        t = np.arange(T, dtype=np.int64)
        num_sites = len(skeletons)
        nvars_site = len(skeletons[0].lower)
        num_cols = num_sites * nvars_site
        compute_local = 4 + t  # compute is the first per-epoch family
        capacity_local = 0

        rows_parts: List[np.ndarray] = []
        cols_parts: List[np.ndarray] = []
        le_parts: List[np.ndarray] = []
        ge_parts: List[np.ndarray] = []
        row_offset = 0
        for index, skeleton in enumerate(skeletons):
            rows_parts.append(skeleton.tri_rows + row_offset)
            cols_parts.append(skeleton.tri_cols + index * nvars_site)
            le_parts.append(skeleton.le_mask)
            ge_parts.append(skeleton.ge_mask)
            row_offset += skeleton.num_rows
        rows_parts.append(np.tile(t, num_sites) + row_offset)
        cols_parts.append(
            np.concatenate([compute_local + index * nvars_site for index in range(num_sites)])
        )
        le_parts.append(np.zeros(T, dtype=bool))
        ge_parts.append(np.ones(T, dtype=bool))
        row_offset += T
        if has_green:
            green_rows = T if per_epoch else 1
            for index, skeleton in enumerate(skeletons):
                rows_parts.append(skeleton.green_rows + row_offset)
                cols_parts.append(skeleton.green_cols + index * nvars_site)
            le_parts.append(np.zeros(green_rows, dtype=bool))
            ge_parts.append(np.ones(green_rows, dtype=bool))
            row_offset += green_rows
        if enforce_spread:
            rows_parts.append(np.arange(num_sites, dtype=np.int64) + row_offset)
            cols_parts.append(
                np.array(
                    [capacity_local + index * nvars_site for index in range(num_sites)],
                    dtype=np.int64,
                )
            )
            le_parts.append(np.zeros(num_sites, dtype=bool))
            ge_parts.append(np.ones(num_sites, dtype=bool))
            row_offset += num_sites

        shape = (row_offset, num_cols)
        perm, indices, indptr = csc_pattern(
            np.concatenate(rows_parts), np.concatenate(cols_parts), shape
        )
        return _ModelTemplate(
            shape=shape,
            perm=perm,
            indices=indices,
            indptr=indptr,
            le_mask=np.concatenate(le_parts),
            ge_mask=np.concatenate(ge_parts),
        )


class ProvisioningModelBuilder:
    """Builds the Fig. 1 constraints for a given siting decision.

    Parameters
    ----------
    problem:
        The siting problem (candidate profiles, parameters, scenario switches).
    siting:
        Mapping from location name to size class (``"small"`` or ``"large"``)
        for the locations where a datacenter is placed.
    enforce_spread:
        When True (default), each sited datacenter must host at least
        ``totalCapacity / n`` compute capacity so that the failure of ``n - 1``
        datacenters leaves ``S/n`` servers, the paper's stricter availability
        condition.
    compiler:
        Optional shared :class:`ProvisioningCompiler` whose per-site skeleton
        cache should be reused (the heuristic passes one per search).
    """

    def __init__(
        self,
        problem: SitingProblem,
        siting: Mapping[str, str],
        enforce_spread: bool = True,
        compiler: Optional[ProvisioningCompiler] = None,
    ) -> None:
        if not siting:
            raise ValueError("the siting decision must place at least one datacenter")
        for name, size_class in siting.items():
            if size_class not in ("small", "large"):
                raise ValueError(f"unknown size class {size_class!r} for {name!r}")
        self.problem = problem
        self.siting = dict(siting)
        self.enforce_spread = enforce_spread
        if compiler is not None and compiler.problem is not problem:
            raise ValueError("the shared compiler was built for a different problem")
        self.compiler = compiler or ProvisioningCompiler(problem)
        self.cost_model = self.compiler.cost_model
        #: The compiled LP and the per-site variable layouts inside it.
        self.row_form, self.sites = self.compiler.compile_row_form(siting, enforce_spread)

    # -- solving ------------------------------------------------------------------------------
    def solve(
        self, options: Optional[SolverOptions] = None, context: Optional[object] = None
    ) -> ProvisioningResult:
        """Solve the LP; the resulting :class:`NetworkPlan` extracts lazily."""
        options = options or SolverOptions()
        result = highs_backend.solve_row_form(self.row_form, options, context)
        dims = (self.row_form.num_variables, self.row_form.num_rows)
        if not result.is_optimal:
            return ProvisioningResult(
                feasible=False,
                monthly_cost=float("inf"),
                plan=None,
                message=f"{result.status.value}: {result.message}",
            )
        # The extractor closes over small snapshots (layouts, cost model,
        # solution vector) rather than the builder itself, so memoized results
        # do not pin the compiled model arrays for the search's lifetime.
        problem, cost_model, sites = self.problem, self.cost_model, self.sites
        return ProvisioningResult(
            feasible=True,
            monthly_cost=result.objective,
            plan=None,
            message=result.message,
            extractor=lambda: _extract_network_plan(problem, cost_model, sites, dims, result),
        )


class IncrementalSitingEvaluator:
    """Evaluates siting decisions as deltas on one persistent HiGHS model.

    The annealing search's neighbour moves change one or two sites at a time,
    but the rebuild path re-passes the whole LP and cold-solves it for every
    move.  This evaluator instead keeps a
    :class:`~repro.lpsolver.highs_backend.MutableHighsModel` loaded with the
    *current* siting's LP and expresses each requested siting as a structural
    delta against it:

    * **remove** deletes the site's column and row ranges (HiGHS drops the
      columns' coupling-row entries with them),
    * **add** appends the site's columns (with their coupling-row entries)
      and block rows,
    * **resize** flips objective coefficients and the ``small_dc`` row bounds
      in place, and
    * the availability-spread floors are value edits whenever the site count
      changes.

    Row layout: coupling rows first (``total_capacity`` at ``[0, T)``, the
    min-green row(s) at ``[T, T+G)``), then one uniform block per site — the
    skeleton rows with ``small_dc`` always present (relaxed to a free row for
    "large" sites) plus the spread row when enforced.  Columns are the
    per-site variable blocks in site order.  The previous optimal basis is
    projected across every delta, so the dual simplex warm-starts across
    moves; objective values are identical to a cold solve (the LP optimum is
    unique in value), which the differential tests pin against the rebuild
    path.  Instances are not thread-safe: one evaluator per annealing chain.
    """

    def __init__(
        self,
        compiler: ProvisioningCompiler,
        enforce_spread: bool = True,
        options: Optional[SolverOptions] = None,
    ) -> None:
        problem = compiler.problem
        self.compiler = compiler
        self.problem = problem
        self.enforce_spread = enforce_spread
        self.options = options or SolverOptions()
        params = problem.params
        self._T = problem.num_epochs
        if params.min_green_fraction > 0:
            per_epoch = problem.green_enforcement is GreenEnforcement.PER_EPOCH
            self._G = self._T if per_epoch else 1
        else:
            self._G = 0
        self._coupling = self._T + self._G
        self._model = highs_backend.MutableHighsModel()
        self._sites: List[Tuple[str, str]] = []
        self._fixed = 0.0
        self._loaded = False
        #: Per-site block row count (uniform across sites and classes);
        #: resolved from the first site's data.
        self._block_rows = 0
        self._num_vars = 0
        #: Last optimal basis per siting *shape* (site count, small count).
        #: Site blocks are structurally identical, so a same-shape basis
        #: transfers across location mixes far better than padding newly
        #: spliced columns nonbasic — structural moves restore the shape's
        #: stored (native) basis, pure value edits keep the carried basis.
        self._shape_bases: Dict[Tuple[int, int], object] = {}
        self.solves = 0

    # -- model mutation -----------------------------------------------------------
    def _append_site(self, name: str, size_class: str) -> None:
        data = self.compiler.incremental_site_data(name)
        if self._block_rows == 0:
            self._block_rows = data.num_rows + 1  # + spread row
            self._num_vars = data.num_vars
        base = self._model.num_cols
        cost = np.zeros(data.num_vars)
        cost[data.cost_cols] = data.cost_vals[size_class]
        self._model.add_cols(
            cost,
            data.lower,
            data.upper,
            data.coupling_starts,
            data.coupling_rows,
            data.coupling_vals,
        )
        row_lower = data.row_lower.copy()
        row_upper = data.row_upper.copy()
        if size_class == "large":
            row_upper[0] = np.inf  # small_dc row relaxed to a free row
        # Block rows plus the availability-spread row (capacity >= floor; the
        # floor is set by _set_spread_floors once the site count is known).
        starts = np.concatenate([data.row_starts, [data.row_starts[-1] + 1]])
        cols = np.concatenate([data.row_cols + base, [base]])
        vals = np.concatenate([data.row_vals, [1.0]])
        self._model.add_rows(
            np.concatenate([row_lower, [0.0]]),
            np.concatenate([row_upper, [np.inf]]),
            starts,
            cols,
            vals,
        )
        self._fixed += data.fixed[size_class]

    def _set_spread_floors(self) -> None:
        # The spread row is always part of the block layout; without the
        # availability constraint its floor simply stays at zero.
        if not self.enforce_spread:
            return
        floor = self.problem.params.total_capacity_kw / len(self._sites)
        for index in range(len(self._sites)):
            row = self._coupling + index * self._block_rows + self._block_rows - 1
            self._model.change_row_bounds(row, floor, np.inf)

    def _initial_load(self, siting: Mapping[str, str]) -> None:
        params = self.problem.params
        T, G = self._T, self._G
        row_lower = np.concatenate([np.full(T, params.total_capacity_kw), np.zeros(G)])
        row_upper = np.full(T + G, np.inf)
        empty = RowFormLP(
            cost=np.zeros(0),
            a_indptr=np.zeros(1, dtype=np.int32),
            a_indices=np.zeros(0, dtype=np.int32),
            a_data=np.zeros(0),
            shape=(T + G, 0),
            row_lower=row_lower,
            row_upper=row_upper,
            lower=np.zeros(0),
            upper=np.zeros(0),
            objective_constant=0.0,
        )
        self._model.load(empty)
        self._fixed = 0.0
        for name, size_class in siting.items():
            self._append_site(name, size_class)
        self._sites = list(siting.items())
        self._set_spread_floors()
        self._loaded = True

    def _apply(self, siting: Mapping[str, str]) -> bool:
        """Mutate the model to ``siting``; True when sites were spliced."""
        removed = [i for i, (name, _) in enumerate(self._sites) if name not in siting]
        if removed:
            coupling, R, n = self._coupling, self._block_rows, self._num_vars
            col_ranges = [np.arange(i * n, (i + 1) * n, dtype=np.int64) for i in removed]
            row_ranges = [
                np.arange(coupling + i * R, coupling + (i + 1) * R, dtype=np.int64)
                for i in removed
            ]
            self._model.delete_cols(np.concatenate(col_ranges))
            self._model.delete_rows(np.concatenate(row_ranges))
            for i in removed:
                name, size_class = self._sites[i]
                self._fixed -= self.compiler.incremental_site_data(name).fixed[size_class]
            self._sites = [s for i, s in enumerate(self._sites) if i not in set(removed)]
        # Size-class flips on retained sites are pure value edits.
        for index, (name, old_class) in enumerate(self._sites):
            new_class = siting[name]
            if new_class == old_class:
                continue
            data = self.compiler.incremental_site_data(name)
            base = index * self._num_vars
            self._model.change_col_costs(
                data.cost_cols + base, data.cost_vals[new_class]
            )
            small_dc_row = self._coupling + index * self._block_rows
            upper = data.small_dc_upper if new_class == "small" else np.inf
            self._model.change_row_bounds(small_dc_row, -np.inf, upper)
            self._fixed += data.fixed[new_class] - data.fixed[old_class]
            self._sites[index] = (name, new_class)
        current = {name for name, _ in self._sites}
        added = False
        for name, size_class in siting.items():
            if name not in current:
                self._append_site(name, size_class)
                self._sites.append((name, size_class))
                added = True
        # New blocks carry a zero floor placeholder and the floor value
        # itself depends on the site count, so floors must be reset whenever
        # a site was spliced in or out — including swaps, where the count is
        # unchanged but a fresh block arrived.
        if added or removed:
            self._set_spread_floors()
        return bool(added or removed)

    # -- evaluation ---------------------------------------------------------------
    def evaluate(self, siting: Mapping[str, str]) -> ProvisioningResult:
        """Mutate the persistent model to ``siting`` and solve it warm."""
        if not siting:
            raise ValueError("the siting decision must place at least one datacenter")
        if not self._loaded:
            self._initial_load(siting)
            structural = True
        else:
            structural = self._apply(siting)
        shape = (
            len(self._sites),
            sum(1 for _, size_class in self._sites if size_class == "small"),
        )
        if structural:
            stored = self._shape_bases.get(shape)
            if stored is not None:
                self._model.restore_basis(stored)
        result = self._model.solve(self.options)
        self.solves += 1
        if result.is_optimal:
            snapshot = self._model.basis_snapshot()
            if snapshot is not None:
                self._shape_bases[shape] = snapshot
        if not result.is_optimal:
            return ProvisioningResult(
                feasible=False,
                monthly_cost=float("inf"),
                plan=None,
                message=f"{result.status.value}: {result.message}",
            )
        result.objective = result.objective + self._fixed
        profiles = self.compiler._profiles
        T, n = self._T, self._num_vars
        layouts = [
            _SiteLayout(
                profile=profiles[name], size_class=size_class, base=index * n, num_epochs=T
            )
            for index, (name, size_class) in enumerate(self._sites)
        ]
        dims = (self._model.num_cols, self._model.num_rows)
        problem, cost_model = self.problem, self.compiler.cost_model
        return ProvisioningResult(
            feasible=True,
            monthly_cost=result.objective,
            plan=None,
            message=result.message,
            extractor=lambda: _extract_network_plan(problem, cost_model, layouts, dims, result),
        )

    def rebuild(self, siting: Mapping[str, str]) -> ProvisioningResult:
        """Differential oracle: the same siting, rebuilt and cold-solved."""
        return solve_provisioning(
            self.problem,
            siting,
            options=self.options,
            enforce_spread=self.enforce_spread,
            compiler=self.compiler,
        )


def _extract_network_plan(
    problem: SitingProblem,
    cost_model: CostModel,
    sites: List[_SiteLayout],
    dims: Tuple[int, int],
    result,
) -> NetworkPlan:
    datacenters = [_extract_datacenter_plan(cost_model, site, result) for site in sites]
    return NetworkPlan(
        datacenters=datacenters,
        params=problem.params,
        storage=problem.storage.value,
        sources=problem.sources.value,
        solver_info={
            "objective": result.objective,
            "num_variables": dims[0],
            "num_constraints": dims[1],
        },
    )


def _extract_datacenter_plan(cost_model: CostModel, site: _SiteLayout, result) -> DatacenterPlan:
    profile = site.profile
    scalars = result.value_array(
        np.array([site.capacity, site.solar, site.wind, site.battery])
    )
    capacity_kw, solar_kw, wind_kw, battery_kwh = (float(v) for v in scalars)
    series = {
        "compute_power_kw": result.value_array(site.compute),
        "migrate_power_kw": result.value_array(site.migrate),
        "brown_power_kw": result.value_array(site.brown),
        "green_direct_kw": result.value_array(site.green_direct),
        "battery_charge_kw": result.value_array(site.battery_charge),
        "battery_discharge_kw": result.value_array(site.battery_discharge),
        "net_charge_kw": result.value_array(site.net_charge),
        "net_discharge_kw": result.value_array(site.net_discharge),
    }
    monthly_costs = {
        "land_dc": cost_model.land_monthly(profile, capacity_kw, 0.0, 0.0),
        "land_solar": cost_model.land_monthly(profile, 0.0, solar_kw, 0.0),
        "land_wind": cost_model.land_monthly(profile, 0.0, 0.0, wind_kw),
        "building_dc": cost_model.building_dc_monthly(profile, capacity_kw, site.size_class),
        "building_solar": cost_model.building_solar_monthly(solar_kw),
        "building_wind": cost_model.building_wind_monthly(wind_kw),
        "it_equipment": cost_model.it_equipment_monthly(capacity_kw),
        "battery": cost_model.battery_monthly(battery_kwh),
        "connection": cost_model.capex_independent_monthly(profile),
        "network_bandwidth": cost_model.network_bandwidth_monthly(capacity_kw),
        "brown_energy": cost_model.brown_energy_monthly(
            profile,
            series["brown_power_kw"],
            series["net_discharge_kw"],
            series["net_charge_kw"],
        ),
    }
    return DatacenterPlan(
        profile=profile,
        size_class=site.size_class,
        capacity_kw=capacity_kw,
        solar_kw=solar_kw,
        wind_kw=wind_kw,
        battery_kwh=battery_kwh,
        monthly_costs=monthly_costs,
        **series,
    )


def solve_provisioning(
    problem: SitingProblem,
    siting: Mapping[str, str],
    options: Optional[SolverOptions] = None,
    enforce_spread: bool = True,
    compiler: Optional[ProvisioningCompiler] = None,
    solver_context: Optional[object] = None,
) -> ProvisioningResult:
    """Convenience wrapper: build and solve the fixed-siting LP in one call.

    ``compiler`` shares a per-site skeleton cache across calls on the same
    problem; ``solver_context`` enables HiGHS basis reuse across structurally
    identical solves (see :class:`~repro.lpsolver.HighsSolveContext`).
    """
    builder = ProvisioningModelBuilder(
        problem, siting, enforce_spread=enforce_spread, compiler=compiler
    )
    return builder.solve(options, context=solver_context)


def cheapest_size_classes(problem: SitingProblem, names: List[str]) -> Dict[str, str]:
    """Initial small/large guess: "large" when an even capacity split exceeds 10 MW."""
    if not names:
        return {}
    share_kw = problem.params.total_capacity_kw / len(names)
    size = "large" if share_kw * 1.1 > problem.params.small_dc_threshold_kw else "small"
    return {name: size for name in names}
