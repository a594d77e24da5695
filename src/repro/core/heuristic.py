"""Heuristic solver: location filtering plus simulated-annealing siting search.

Section II-C of the paper makes the MILP tractable in three steps:

1. *Filter* the candidate locations down to the 50-100 most promising ones by
   pricing a few common single-datacenter configurations at every location and
   discarding expensive or redundant candidates.
2. *Fix the siting* (which locations host a datacenter and whether each is
   small or large), which turns the MILP into an LP solved exactly.
3. *Search* over sitings with a simulated-annealing procedure whose neighbour
   moves add, remove, swap, resize or merge datacenters, running several
   search chains with different move mixes that periodically synchronise on
   the best solution found.

The implementation mirrors those steps and, like the paper's tool, runs the
expensive parts concurrently when the hardware allows it:

* the *filter* prices candidate locations in chunks (optionally across a
  thread pool), each chunk reusing one warm-started HiGHS context — the
  pricing LPs all share the same structure, so the previous optimal basis
  cuts the simplex work roughly in half;
* the *search* runs its annealing chains either sequentially (each chain
  starting from the best siting found so far, the role of the paper's
  periodic synchronisation) or as parallel chains that explore independently
  from the shared starting point and synchronise at the end.  Parallel mode
  is deterministic for a fixed seed: each chain owns its RNG, provisioning
  LPs are solved cold (no cross-chain solver state), and the evaluation memo
  is a table of futures so exactly one chain computes each unique siting.

Every provisioning evaluation is memoized by its frozen siting — the
annealing moves revisit states constantly — and all evaluations share one
:class:`~repro.core.provisioning.ProvisioningCompiler` so the per-site model
skeleton is built once per ``(location, size class)`` pair.
"""

from __future__ import annotations

import math
import numbers
import random
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field, replace
from typing import Dict, List, MutableMapping, Optional, Sequence, Tuple

from repro.core.problem import GreenEnforcement, SitingProblem
from repro.core.provisioning import (
    IncrementalSitingEvaluator,
    ProvisioningCompiler,
    ProvisioningResult,
    solve_provisioning,
)
from repro.core.screening import price_batch, price_per_site, screen_lower_bounds
from repro.core.single_site import (
    priced_in_chunks,
    pricing_chunk_count,
    scoring_parameters,
    scoring_sources,
    single_site_row_estimate,
    single_site_size_class,
    split_chunks,
)
from repro.core.solution import NetworkPlan
from repro.lpsolver import SolverOptions
from repro.lpsolver.highs_backend import HighsSolveContext
from repro.parallel.executors import (
    EXECUTOR_KINDS,
    ExecutorFactory,
    result_with_serial_fallback,
)
from repro.parallel.work import (
    BatchPricingTask,
    ChainTask,
    new_token,
    run_batch_pricing_chunk,
    run_chain_task,
)

#: Neighbour-move identifiers (the paper's four move kinds; "swap" is the
#: combination of a remove and an add in one step, and "merge" removes one
#: datacenter letting the LP grow the remaining ones).
MOVES = ("add", "remove", "swap", "resize", "merge")

#: Filter shortlists shared across solvers of one candidate profile set:
#: scoring-problem key -> (shortlist, filter stats of the pass that built it).
Shortlists = MutableMapping[Tuple, Tuple[Tuple[str, ...], Dict[str, float]]]


@dataclass
class SearchSettings:
    """Tunables of the heuristic search."""

    keep_locations: int = 12          #: candidates kept after filtering
    max_iterations: int = 60          #: SA iterations per chain
    patience: int = 20                #: stop a chain after this many non-improving iterations
    initial_temperature: float = 0.05  #: SA temperature as a fraction of the current cost
    cooling: float = 0.93             #: geometric temperature decay per iteration
    num_chains: int = 2               #: number of annealing chains
    seed: int = 0                     #: RNG seed
    max_datacenters: int = 6          #: cap on simultaneously sited datacenters
    move_weights: Dict[str, float] = field(
        default_factory=lambda: {"add": 1.0, "remove": 1.0, "swap": 2.0, "resize": 1.0, "merge": 0.5}
    )
    #: Run annealing chains on a thread pool.  ``None`` (default) means
    #: sequential, where chain *k* starts from the best siting of chains
    #: ``0..k-1`` — the two modes explore different trajectories, so the
    #: default never depends on the machine's CPU count and a fixed seed
    #: reproduces the same siting everywhere.  Set True to explore chains
    #: independently in parallel (also deterministic for a fixed seed, for
    #: any worker count — but along the parallel trajectory).
    parallel_chains: Optional[bool] = None
    #: Worker cap for the filter pricing pass and the parallel chains
    #: (``None`` = CPUs available to this process, honouring container CPU
    #: quotas via the scheduling affinity mask).
    max_workers: Optional[int] = None
    #: How the filter chunks and the parallel chains execute: ``"thread"``
    #: (default), ``"process"`` (true multi-core scaling; work crosses the
    #: pickling boundary of :mod:`repro.parallel.work`) or ``"serial"``.
    #: The knob never changes results — for a fixed seed, costs and sitings
    #: are bit-identical across all three for any worker count; only the
    #: ``parallel_chains`` trajectory switch does.
    executor: str = "thread"
    #: Evaluate sequential-search moves on a persistent mutable HiGHS model
    #: (column/row deltas + projected-basis warm starts) instead of
    #: rebuilding the LP per move.  ``None`` (default) enables it; False
    #: forces rebuilds.
    incremental_lp: Optional[bool] = None
    #: Adaptive epoch grid: > 1 runs the filter and annealing search on a
    #: grid whose epochs are this factor coarser, then re-solves the best
    #: siting on selectively refined grids (only the epochs where the plan
    #: is storage- or migration-bound return to full resolution) until the
    #: objective converges.  1 disables the scheme.
    coarse_epoch_factor: int = 1
    #: Relative objective tolerance of the refinement loop.
    refine_tolerance: float = 0.002
    #: Cap on refinement rounds (each round solves one provisioning LP).
    refine_max_rounds: int = 6
    #: Stage-1 filter screen: prune candidates whose vectorized admissible
    #: lower bound (:func:`~repro.core.screening.screen_lower_bounds`) proves
    #: they cannot enter the shortlist, so only a fraction of the catalogue is
    #: ever priced exactly.  The pruning is exact — the shortlist is identical
    #: with the screen on or off.  ``None`` (default) enables it.
    filter_screen: Optional[bool] = None
    #: Stage-2 filter pricing: solve each pricing chunk as one block-diagonal
    #: mega-LP (:func:`~repro.core.screening.price_batch`) instead of per-site
    #: warm-started solves.  ``None`` (default) enables it; False forces the
    #: per-site path.
    filter_batch: Optional[bool] = None

    def __post_init__(self) -> None:
        if self.keep_locations < 1:
            raise ValueError("at least one location must survive filtering")
        if self.max_iterations < 1 or self.num_chains < 1:
            raise ValueError("the search needs at least one iteration and one chain")
        if not 0.0 < self.cooling <= 1.0:
            raise ValueError("the cooling factor must lie in (0, 1]")
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        if self.executor not in EXECUTOR_KINDS:
            raise ValueError(
                f"unknown executor {self.executor!r}; expected one of {EXECUTOR_KINDS}"
            )
        if self.coarse_epoch_factor < 1:
            raise ValueError("coarse_epoch_factor must be at least 1")
        if self.refine_tolerance < 0:
            raise ValueError("refine_tolerance cannot be negative")
        if self.refine_max_rounds < 1:
            raise ValueError("the refinement loop needs at least one round")
        unknown = set(self.move_weights) - set(MOVES)
        if unknown:
            raise ValueError(f"unknown neighbour moves: {sorted(unknown)}")
        for move, weight in self.move_weights.items():
            if not isinstance(weight, numbers.Real) or not math.isfinite(weight) or weight < 0:
                raise ValueError(
                    f"the weight of move {move!r} must be a finite number >= 0, got {weight!r}"
                )
        if not any(weight > 0 for weight in self.move_weights.values()):
            raise ValueError("at least one neighbour move needs a positive weight")


@dataclass
class HeuristicSolution:
    """Best plan found by the heuristic together with search diagnostics."""

    plan: Optional[NetworkPlan]
    monthly_cost: float
    feasible: bool
    evaluations: int
    filtered_locations: List[str]
    history: List[Tuple[int, float]]
    message: str = ""
    cache_hits: int = 0
    stats: Dict[str, float] = field(default_factory=dict)


@dataclass
class _ChainOutcome:
    """What one annealing chain reports back to the merge step."""

    chain: int
    best_siting: Dict[str, str]
    best_result: ProvisioningResult
    improvements: List[Tuple[int, float]]


class HeuristicSolver:
    """Filter + fixed-siting LP + simulated annealing (Section II-C)."""

    def __init__(
        self,
        problem: SitingProblem,
        settings: Optional[SearchSettings] = None,
        solver_options: Optional[SolverOptions] = None,
        compiler: Optional[ProvisioningCompiler] = None,
        shortlists: Optional[Shortlists] = None,
    ) -> None:
        self.problem = problem
        self.settings = settings or SearchSettings()
        self.solver_options = solver_options or SolverOptions()
        # An externally shared compiler must have been built for an equivalent
        # problem (same profiles, parameters and scenario switches); the
        # ExperimentRunner keys its shared compilers by that problem signature.
        self._compiler = compiler or ProvisioningCompiler(problem)
        # Filter shortlists shared with other solvers over the same candidate
        # profiles (the ExperimentRunner keeps one mapping per profile set),
        # keyed by the content of the scoring problem; the scope tells a
        # coarse-grid sub-solver's entries apart from the fine grid's.
        self._shortlists = shortlists
        self._shortlist_scope: Tuple = ()
        # The memo key is the canonical sorted (location, class) tuple, so
        # any move order that reaches the same siting hits the same entry.
        self._cache: Dict[Tuple[Tuple[str, str], ...], Future] = {}
        self._cache_owner: Dict[Tuple[Tuple[str, str], ...], Optional[int]] = {}
        self._cache_lock = threading.Lock()
        self._cache_hits = 0
        self._cross_chain_hits = 0
        self._evaluations = 0
        # Basis warm-start contexts for the annealing loop, keyed by siting
        # shape (site count, small-class count).  Only used while the chains
        # run sequentially: contexts are not thread-safe, and cold solves keep
        # the parallel search's results independent of chain scheduling.
        self._sa_contexts: Dict[Tuple[int, int], HighsSolveContext] = {}
        self._sa_warm_starts = False
        # Persistent mutable-model evaluator for the sequential search; moves
        # become column/row deltas with projected-basis warm starts.
        self._sa_incremental: Optional[IncrementalSitingEvaluator] = None
        # Process-pool chain tasks of this search share one worker-side
        # problem/compiler rebuild, keyed by this token.
        self._chain_token = new_token("chains")
        # Diagnostics of the last filter pass (candidate count, exact
        # pricings, screen-survival rate); merged into the solution stats.
        self._filter_stats: Dict[str, float] = {}
        # When set (by process-pool chain workers), every canonical siting
        # key that reaches the memo is appended, in request order; the parent
        # replays the logs to reproduce the shared-memo hit accounting.
        self._request_log: Optional[List[Tuple[Tuple[str, str], ...]]] = None

    # -- worker accounting ---------------------------------------------------------
    def _factory(self) -> ExecutorFactory:
        """The executor factory behind the filter chunks and parallel chains."""
        return ExecutorFactory(
            kind=self.settings.executor, max_workers=self.settings.max_workers
        )

    def _workers(self, upper: int) -> int:
        """Concurrency to use, bounded by settings, available CPUs and the task size."""
        return self._factory().workers(upper)

    @property
    def evaluations(self) -> int:
        """Provisioning LPs actually solved (memo misses)."""
        return self._evaluations

    @property
    def cache_hits(self) -> int:
        """Provisioning evaluations answered from the siting memo."""
        return self._cache_hits

    @property
    def cross_chain_hits(self) -> int:
        """Memo hits on entries that a *different* chain computed."""
        return self._cross_chain_hits

    # -- step 1: filtering ---------------------------------------------------------
    def filter_locations(self) -> List[str]:
        """Rank candidates by single-site cost and keep the cheapest ones.

        The score of a location is the cost of a single datacenter carrying an
        equal share of the service with the problem's green requirement and
        scenario switches — the "common configuration" pricing the paper uses.
        Infeasible locations (for example, ones whose nearest brown plant is
        too small) are discarded.

        The pricing pass runs in two stages.  Stage 1 computes a vectorized
        *admissible* lower bound on every candidate's score
        (:func:`~repro.core.screening.screen_lower_bounds`) — pure numpy over
        the stacked epoch profiles, no LPs.  Stage 2 prices candidates
        exactly in ascending-bound rounds, after each round dropping every
        still-unpriced candidate whose bound exceeds both the current
        ``keep``-th cheapest feasible cost and the cheapest cost of its
        longitude band: such a candidate provably cannot enter the shortlist
        (its exact cost is at least its bound), so the pruning never changes
        the result, only the work.  Exact pricing solves each size-capped
        chunk either as one block-diagonal mega-LP or through one
        warm-started HiGHS context per chunk; both the chunk split and the
        round schedule depend only on the candidate data, so shortlists are
        bit-identical across serial, thread and process execution.

        Like the paper's filter, similar locations are not all kept: the
        survivors are spread across time zones (the paper removes "subsets of
        locations that are similar (e.g., same time zone)"), which is what
        allows follow-the-renewables solutions — especially solar-heavy,
        no-storage ones — to place datacenters around the globe.

        With a shared ``shortlists`` mapping, the pass runs once per scoring
        problem.  The key holds only content: the frozen scoring parameters,
        the scoring sources, storage and green enforcement, ``keep`` and the
        screen/batch switches (plus the coarsening factor of an adaptive
        sub-solver).  Points of a cost-vs-green sweep above the 50 % scoring
        cap all price the same problem, so later ones return the stored
        shortlist and copy its filter stats, with ``filter_shortlist_hit`` set.
        """
        problem = self.problem
        settings = self.settings
        share_kw = problem.params.total_capacity_kw / max(1, problem.min_datacenters)
        # For the *scoring* step, require only a modest green share: a site can
        # be a valuable night-time/receiver location in a follow-the-renewables
        # network even if it cannot host the full green requirement by itself.
        score_green = min(problem.params.min_green_fraction, 0.5)
        # One shared pricing problem (the single-site scoring configuration of
        # SingleSiteAnalyzer.cost_at) so every location's LP flows through the
        # same compiler.  Scoring always uses ANNUAL green enforcement (as
        # cost_at does): the filter ranks sites by their annual economics even
        # when the network problem enforces the share per epoch.
        pricing_params = scoring_parameters(problem.params, share_kw, score_green)
        pricing_problem = problem.with_updates(
            params=pricing_params,
            sources=scoring_sources(score_green, problem.sources),
            green_enforcement=GreenEnforcement.ANNUAL,
        )
        use_screen = (
            settings.filter_screen if settings.filter_screen is not None else True
        )
        use_batch = (
            settings.filter_batch if settings.filter_batch is not None else True
        )
        keep = max(settings.keep_locations, problem.min_datacenters)
        # Everything the shortlist depends on besides the candidate profiles,
        # which the owner of the shared mapping holds fixed.
        shortlist_key = self._shortlist_scope + (
            pricing_params,
            pricing_problem.sources,
            pricing_problem.storage,
            pricing_problem.green_enforcement,
            keep,
            use_screen,
            use_batch,
        )
        if self._shortlists is not None:
            stored = self._shortlists.get(shortlist_key)
            if stored is not None:
                shortlist, stats = stored
                self._filter_stats = {**stats, "filter_shortlist_hit": 1.0}
                return list(shortlist)
        profiles = pricing_problem.profiles
        sitings = [
            (profile.name, single_site_size_class(share_kw, profile, pricing_params))
            for profile in profiles
        ]
        longitudes = [profile.location.point.longitude for profile in profiles]
        bands = [int((longitude + 180.0) // 45.0) for longitude in longitudes]
        factory = self._factory()
        pricing_compiler = ProvisioningCompiler(pricing_problem)

        if use_screen:
            screen = screen_lower_bounds(pricing_problem, dict(sitings))
            bounds = screen.lower_bounds
            # Ascending-bound order prices the likely shortlist first, which
            # makes the pruning thresholds tight after the very first round;
            # certified-infeasible candidates are never priced at all.
            pending = [
                int(i) for i in screen.order if not screen.certified_infeasible[i]
            ]
        else:
            bounds = None
            pending = list(range(len(profiles)))

        inf = float("inf")
        scored: List[Tuple[float, str, float]] = []
        feasible_costs: List[float] = []
        band_best: Dict[int, float] = {}
        priced = 0
        # Galloping rounds: small first round (the shortlist is usually found
        # there), doubling so the no-pruning worst case stays a handful of
        # rounds.  Without the screen there is nothing to prune between
        # rounds, so everything is priced in one pass.
        round_size = max(4 * keep, 64) if bounds is not None else max(1, len(pending))
        while pending:
            take, pending = pending[:round_size], pending[round_size:]
            rows = self._price_filter_round(
                pricing_problem,
                [sitings[i] for i in take],
                factory,
                use_batch,
                pricing_compiler,
            )
            priced += len(take)
            for index, (name, cost, feasible) in zip(take, rows):
                if not feasible:
                    continue
                scored.append((cost, name, longitudes[index]))
                feasible_costs.append(cost)
                if cost < band_best.get(bands[index], inf):
                    band_best[bands[index]] = cost
            if bounds is not None and pending:
                # A candidate can only make the shortlist as its band's
                # cheapest or as one of the keep globally cheapest; both
                # thresholds only ever decrease, so the drops are permanent.
                global_cut = (
                    sorted(feasible_costs)[keep - 1]
                    if len(feasible_costs) >= keep
                    else inf
                )
                pending = [
                    i
                    for i in pending
                    if bounds[i] <= global_cut
                    or bounds[i] <= band_best.get(bands[i], inf)
                ]
            round_size *= 2

        self._filter_stats = {
            "filter_candidates": float(len(profiles)),
            "filter_priced": float(priced),
            "filter_screened_out": float(len(profiles) - priced),
            "filter_screen_rate": priced / len(profiles) if profiles else 0.0,
            "filter_screen": float(use_screen),
            "filter_batched": float(use_batch),
            "filter_shortlist_hit": 0.0,
        }

        scored.sort()

        # First pass: cheapest location of each 45-degree longitude band, so the
        # shortlist spans time zones; second pass: fill with the globally cheapest.
        selected: List[str] = []
        seen_bands: set = set()
        for cost, name, longitude in scored:
            band = int((longitude + 180.0) // 45.0)
            if band not in seen_bands and len(selected) < keep:
                selected.append(name)
                seen_bands.add(band)
        for cost, name, _ in scored:
            if len(selected) >= keep:
                break
            if name not in selected:
                selected.append(name)
        if self._shortlists is not None:
            # Concurrent misses compute the same deterministic shortlist.
            self._shortlists.setdefault(
                shortlist_key, (tuple(selected), dict(self._filter_stats))
            )
        return selected

    def _price_filter_round(
        self,
        pricing_problem: SitingProblem,
        sitings: List[Tuple[str, str]],
        factory: ExecutorFactory,
        use_batch: bool,
        compiler: ProvisioningCompiler,
    ) -> List[Tuple[str, float, bool]]:
        """Exactly price one round of ``(location, size_class)`` candidates.

        The round is split into size-capped chunks
        (:func:`~repro.core.single_site.pricing_chunk_count` — the split
        depends only on the round's size, never on the executor or worker
        count) and each chunk is priced either as one block-diagonal stack or
        through its own warm-started context, on the configured executor.
        Rows come back in ``sitings`` order for every executor kind.
        """
        num_chunks = pricing_chunk_count(
            len(sitings), single_site_row_estimate(pricing_problem)
        )
        if factory.effective_kind == "process" and len(sitings) > 1:
            chunks = split_chunks(sitings, num_chunks)
            tasks = [
                BatchPricingTask(
                    problem=pricing_problem.restricted_to([name for name, _ in chunk]),
                    sitings=tuple(chunk),
                    options=self.solver_options,
                    batch=use_batch,
                )
                for chunk in chunks
            ]
            rows: List[Tuple[str, float, bool]] = []
            with factory.create(len(tasks)) as pool:
                futures = [pool.submit(run_batch_pricing_chunk, task) for task in tasks]
                for future, task in zip(futures, tasks):
                    rows.extend(
                        result_with_serial_fallback(future, run_batch_pricing_chunk, task)
                    )
            return rows

        def run_chunk(chunk: List[Tuple[str, str]]) -> List[Tuple[str, float, bool]]:
            if use_batch:
                return price_batch(
                    pricing_problem, chunk, self.solver_options, compiler=compiler
                )
            return price_per_site(
                pricing_problem, chunk, self.solver_options, compiler=compiler
            )

        return priced_in_chunks(
            sitings, run_chunk, num_chunks=num_chunks, workers=self._workers(num_chunks)
        )

    # -- step 2: fixed-siting evaluation ----------------------------------------------
    def evaluate(
        self, siting: Dict[str, str], chain: Optional[int] = None
    ) -> ProvisioningResult:
        """Solve (and memoize) the provisioning LP for a siting decision.

        The memo is a table of futures keyed by the canonical sorted
        ``(location, class)`` tuple — different move orders reaching the same
        siting hit the same entry.  The first caller of a siting computes it,
        concurrent callers of the same siting block on the same future.
        Results are therefore independent of chain scheduling, which is what
        keeps the parallel search deterministic.  ``chain`` attributes memo
        hits: a hit on an entry another chain computed counts as cross-chain.
        """
        if len(siting) < self.problem.min_datacenters:
            return ProvisioningResult(
                feasible=False,
                monthly_cost=float("inf"),
                plan=None,
                message=(
                    f"{len(siting)} datacenters violate the availability requirement of "
                    f"{self.problem.min_datacenters}"
                ),
            )
        key = tuple(sorted(siting.items()))
        if self._request_log is not None:
            self._request_log.append(key)
        with self._cache_lock:
            future = self._cache.get(key)
            owner = future is None
            if owner:
                future = Future()
                self._cache[key] = future
                self._cache_owner[key] = chain
                self._evaluations += 1
            else:
                self._cache_hits += 1
                owner_chain = self._cache_owner.get(key)
                # Only chain-to-chain sharing counts: the initial siting is
                # evaluated outside any chain (chain=None) and must not
                # inflate the cross-chain stat of single-chain runs.
                if chain is not None and owner_chain is not None and owner_chain != chain:
                    self._cross_chain_hits += 1
        if owner:
            try:
                if self._sa_incremental is not None:
                    # Sequential search: the persistent mutable model follows
                    # the chain's moves as column/row deltas.
                    result = self._sa_incremental.evaluate(siting)
                else:
                    context = None
                    if self._sa_warm_starts:
                        shape = (
                            len(siting),
                            sum(1 for c in siting.values() if c == "small"),
                        )
                        context = self._sa_contexts.get(shape)
                        if context is None:
                            context = self._sa_contexts.setdefault(
                                shape, HighsSolveContext()
                            )
                    result = solve_provisioning(
                        self.problem,
                        siting,
                        options=self.solver_options,
                        compiler=self._compiler,
                        solver_context=context,
                    )
            except BaseException as error:  # propagate to all waiters
                future.set_exception(error)
                raise
            future.set_result(result)
            return result
        return future.result()

    # -- step 3: simulated annealing ----------------------------------------------------
    def solve(self) -> HeuristicSolution:
        """Run the full heuristic and return the best plan found."""
        settings = self.settings
        problem = self.problem
        if settings.coarse_epoch_factor > 1:
            adaptive = self._solve_adaptive()
            if adaptive is not None:
                return adaptive
        filter_started = time.perf_counter()
        candidates = self.filter_locations()
        filter_seconds = time.perf_counter() - filter_started
        if len(candidates) < problem.min_datacenters:
            return HeuristicSolution(
                plan=None,
                monthly_cost=float("inf"),
                feasible=False,
                evaluations=self._evaluations,
                filtered_locations=candidates,
                history=[],
                message=(
                    f"only {len(candidates)} feasible candidate locations, but the "
                    f"availability constraint requires {problem.min_datacenters}"
                ),
                cache_hits=self._cache_hits,
                stats={"filter_seconds": filter_seconds, **self._filter_stats},
            )

        search_started = time.perf_counter()
        factory = self._factory()
        chain_workers = factory.workers(settings.num_chains)
        parallel = bool(settings.parallel_chains) and settings.num_chains > 1
        process_chains = parallel and factory.effective_kind == "process"
        self._sa_warm_starts = not parallel
        use_incremental = (
            settings.incremental_lp if settings.incremental_lp is not None else True
        )
        if parallel or not use_incremental:
            # The evaluator is single-threaded; parallel chains solve cold.
            self._sa_incremental = None
        elif self._sa_incremental is None:
            self._sa_incremental = IncrementalSitingEvaluator(
                self._compiler, options=self.solver_options
            )
        best_siting = self._initial_siting(candidates)
        best_result = self.evaluate(best_siting)
        history: List[Tuple[int, float]] = [(0, best_result.monthly_cost)]

        if process_chains:
            # Chains cross the pickling boundary: each worker rebuilds the
            # problem/compiler once per process and runs the identical chain
            # trajectory (cold solves, chain-seeded RNG), so the merged
            # costs and sitings are bit-identical to the thread path.  Only
            # a picklable outcome payload returns; the winning siting is
            # re-evaluated in the parent (one LP, same cold solve) to attach
            # a plan-bearing result.
            payloads = self._run_chains_process(best_siting, candidates, factory)
            winner: Optional[Dict[str, str]] = None
            best_cost = best_result.monthly_cost
            # Replay every chain's memo-request sequence against shared-memo
            # accounting: a key is an evaluation the first time any chain (or
            # the parent, for the start siting) requests it and a hit after
            # that.  The totals are order-independent, so they equal the
            # thread/serial paths' counts bit for bit — records built from
            # them never depend on the executor kind.
            seen: Dict[Tuple[Tuple[str, str], ...], Optional[int]] = {
                key: None for key in self._cache
            }
            for payload in payloads:
                offset = payload.chain * settings.max_iterations
                history.extend(
                    (offset + iteration, cost) for iteration, cost in payload.improvements
                )
                for key in payload.requests:
                    if key in seen:
                        self._cache_hits += 1
                        owner = seen[key]
                        if owner is not None and owner != payload.chain:
                            self._cross_chain_hits += 1
                    else:
                        self._evaluations += 1
                        seen[key] = payload.chain
                if payload.best_cost < best_cost - 1e-6:
                    best_cost = payload.best_cost
                    winner = dict(payload.best_siting)
            if winner is not None:
                best_siting = winner
                # Solve once more, outside the memo (the replay already
                # accounted for this siting), purely to attach a plan; the
                # reported cost stays the worker's value, which was computed
                # in the chain's own evaluation order — re-solving under the
                # merged (sorted) site order could differ in the last
                # floating-point bits.
                parent_result = solve_provisioning(
                    self.problem,
                    best_siting,
                    options=self.solver_options,
                    compiler=self._compiler,
                )
                best_result = ProvisioningResult(
                    feasible=parent_result.feasible,
                    monthly_cost=best_cost if parent_result.feasible else float("inf"),
                    plan=None,
                    message=parent_result.message,
                    extractor=lambda: parent_result.plan,
                )
        elif parallel:
            # All chains explore independently from the shared initial best and
            # synchronise at the end; the merge prefers lower cost, ties broken
            # by chain index, so the outcome is reproducible for a fixed seed.
            with factory.create(settings.num_chains) as pool:
                outcomes = list(
                    pool.map(
                        # This branch only ever sees thread/serial factories —
                        # the process path ships picklable ChainTask
                        # descriptors through _run_chains_process instead, and
                        # the closure captures live LP state that must never
                        # cross a pickle boundary.
                        lambda chain: self._run_chain(chain, best_siting, best_result, candidates),  # reprolint: ok(PKL001) thread/serial-only branch

                        range(settings.num_chains),
                    )
                )
            for outcome in outcomes:
                offset = outcome.chain * settings.max_iterations
                history.extend(
                    (offset + iteration, cost) for iteration, cost in outcome.improvements
                )
                if outcome.best_result.monthly_cost < best_result.monthly_cost - 1e-6:
                    best_siting, best_result = outcome.best_siting, outcome.best_result
        else:
            # Sequential chains: each starts from the best state found so far,
            # which plays the role of the paper's periodic synchronisation
            # between parallel instances.
            iteration_offset = 0
            for chain in range(settings.num_chains):
                outcome = self._run_chain(chain, best_siting, best_result, candidates)
                history.extend(
                    (iteration_offset + iteration, cost)
                    for iteration, cost in outcome.improvements
                )
                iteration_offset += settings.max_iterations
                if outcome.best_result.monthly_cost < best_result.monthly_cost - 1e-6:
                    best_siting, best_result = outcome.best_siting, outcome.best_result
        search_seconds = time.perf_counter() - search_started

        requests = self._evaluations + self._cache_hits
        return HeuristicSolution(
            plan=best_result.plan,
            monthly_cost=best_result.monthly_cost,
            feasible=best_result.feasible,
            evaluations=self._evaluations,
            filtered_locations=candidates,
            history=sorted(history),
            message=best_result.message,
            cache_hits=self._cache_hits,
            stats={
                "filter_seconds": filter_seconds,
                **self._filter_stats,
                "search_seconds": search_seconds,
                "parallel_chains": float(parallel),
                "process_chains": float(process_chains),
                "chain_workers": float(min(chain_workers, settings.num_chains)),
                "incremental_lp": float(self._sa_incremental is not None),
                "memo_hit_rate": self._cache_hits / requests if requests else 0.0,
                "memo_cross_chain_hits": float(self._cross_chain_hits),
            },
        )

    def _solve_adaptive(self) -> Optional[HeuristicSolution]:
        """Coarse-grid search plus targeted epoch refinement of the winner.

        The filter and the annealing chains run against a problem whose epoch
        grid is ``coarse_epoch_factor`` times coarser (every provisioning LP
        shrinks by that factor); the best siting found is then re-solved on
        adaptively refined grids — only the epochs where the plan is storage-
        or migration-bound return to full resolution — until the objective
        converges within ``refine_tolerance``.  Returns ``None`` when the
        problem's grid cannot be coarsened (the caller falls back to the
        plain fine-grid search).
        """
        from repro.core.adaptive_grid import (
            AdaptiveGridRefiner,
            can_coarsen,
            coarsen_problem,
        )
        from dataclasses import replace

        settings = self.settings
        factor = settings.coarse_epoch_factor
        if not can_coarsen(self.problem.epochs, factor):
            return None
        coarse_problem = coarsen_problem(self.problem, factor)
        sub = HeuristicSolver(
            coarse_problem,
            replace(settings, coarse_epoch_factor=1),
            self.solver_options,
            shortlists=self._shortlists,
        )
        sub._shortlist_scope = self._shortlist_scope + (("coarse_epoch_factor", factor),)
        coarse = sub.solve()
        # Accumulate (a solver can be solved more than once) so the public
        # counters stay consistent with the returned solution's stats.
        self._evaluations += sub._evaluations
        self._cache_hits += sub._cache_hits
        self._cross_chain_hits += sub._cross_chain_hits
        coarse.stats["coarse_epoch_factor"] = float(factor)
        coarse.stats["coarse_epochs"] = float(coarse_problem.num_epochs)
        coarse.stats["fine_epochs"] = float(self.problem.num_epochs)
        if not coarse.feasible or coarse.plan is None:
            return coarse
        refine_started = time.perf_counter()
        siting = {dc.name: dc.size_class for dc in coarse.plan.datacenters}
        refiner = AdaptiveGridRefiner(
            self.problem,
            factor=factor,
            tolerance=settings.refine_tolerance,
            max_rounds=settings.refine_max_rounds,
            options=self.solver_options,
        )
        final, report = refiner.refine(siting)
        self._evaluations += report.rounds  # the refinement LPs count too
        if not final.feasible:  # pragma: no cover - refinement keeps feasibility
            final = solve_provisioning(
                self.problem, siting, options=self.solver_options, compiler=self._compiler
            )
        stats = dict(coarse.stats)
        stats.update(
            {
                "refine_seconds": time.perf_counter() - refine_started,
                "refine_rounds": float(report.rounds),
                "refine_converged": float(report.converged),
                "refine_final_epochs": float(report.num_epochs_trace[-1]),
            }
        )
        return HeuristicSolution(
            plan=final.plan,
            monthly_cost=final.monthly_cost,
            feasible=final.feasible,
            evaluations=coarse.evaluations + report.rounds,
            filtered_locations=coarse.filtered_locations,
            history=coarse.history,
            message=final.message,
            cache_hits=coarse.cache_hits,
            stats=stats,
        )

    def _run_chains_process(
        self,
        start_siting: Dict[str, str],
        candidates: Sequence[str],
        factory: ExecutorFactory,
    ):
        """Fan the annealing chains out over a process pool.

        Each :class:`~repro.parallel.work.ChainTask` ships the problem
        restricted to the filtered candidates, the parent compiler's compiled
        skeletons/templates (plain arrays — never HiGHS handles) and the
        shared start siting *in its original insertion order*: the neighbour
        moves draw from ``list(siting)``, so the dict order is part of the
        chain's deterministic trajectory.  Chain tasks are submitted and
        collected in chain order; a chain that raises propagates when its
        future is collected, after every other chain future has been resolved
        by the pool (no waiter deadlocks, and the parent memo stays clean).
        """
        settings = self.settings
        worker_settings = replace(
            settings, executor="serial", parallel_chains=False, max_workers=1
        )
        search_problem = self.problem.restricted_to(list(candidates))
        compiler_state = self._compiler.export_shared_state()
        tasks = [
            ChainTask(
                token=self._chain_token,
                problem=search_problem,
                settings=worker_settings,
                options=self.solver_options,
                chain=chain,
                start_siting=tuple(start_siting.items()),
                candidates=tuple(candidates),
                compiler_state=compiler_state,
            )
            for chain in range(settings.num_chains)
        ]
        with factory.create(len(tasks)) as pool:
            futures = [pool.submit(run_chain_task, task) for task in tasks]
            return [
                result_with_serial_fallback(future, run_chain_task, task)
                for future, task in zip(futures, tasks)
            ]

    def _run_chain(
        self,
        chain: int,
        start_siting: Dict[str, str],
        start_result: ProvisioningResult,
        candidates: Sequence[str],
    ) -> _ChainOutcome:
        """One annealing chain; deterministic given its index and start state."""
        settings = self.settings
        rng = random.Random(settings.seed + 7919 * chain)
        move_weights = self._chain_move_weights(chain)
        current_siting = dict(start_siting)
        current_result = start_result
        best_siting = dict(start_siting)
        best_result = start_result
        improvements: List[Tuple[int, float]] = []
        temperature = settings.initial_temperature
        stale = 0
        for iteration in range(1, settings.max_iterations + 1):
            neighbour = self._neighbour(current_siting, candidates, rng, move_weights)
            if neighbour is None:
                continue
            result = self.evaluate(neighbour, chain=chain)
            if not result.feasible:
                continue
            if self._accept(current_result, result, temperature, rng):
                current_siting, current_result = neighbour, result
            if result.feasible and result.monthly_cost < best_result.monthly_cost - 1e-6:
                best_siting, best_result = dict(neighbour), result
                improvements.append((iteration, result.monthly_cost))
                stale = 0
            else:
                stale += 1
            temperature *= settings.cooling
            if stale >= settings.patience:
                break
        return _ChainOutcome(
            chain=chain,
            best_siting=best_siting,
            best_result=best_result,
            improvements=improvements,
        )

    # -- helpers --------------------------------------------------------------------------
    def _initial_siting(self, candidates: Sequence[str]) -> Dict[str, str]:
        """Start from the availability-minimum number of cheapest locations."""
        problem = self.problem
        count = min(len(candidates), max(problem.min_datacenters, 2))
        chosen = list(candidates[:count])
        return self._size_classes(chosen)

    def _size_classes(self, names: Sequence[str]) -> Dict[str, str]:
        problem = self.problem
        share_kw = problem.params.total_capacity_kw / max(1, len(names))
        siting = {}
        for name in names:
            max_pue = problem.profile_by_name(name).max_pue
            total_power = share_kw * max_pue
            siting[name] = "small" if total_power <= problem.params.small_dc_threshold_kw else "large"
        return siting

    def _chain_move_weights(self, chain: int) -> Dict[str, float]:
        """Each chain emphasises a different neighbour-generation mix."""
        weights = dict(self.settings.move_weights)
        emphasised = MOVES[chain % len(MOVES)]
        weights[emphasised] = weights.get(emphasised, 1.0) * 2.0
        return weights

    def _neighbour(
        self,
        siting: Dict[str, str],
        candidates: Sequence[str],
        rng: random.Random,
        move_weights: Dict[str, float],
    ) -> Optional[Dict[str, str]]:
        problem = self.problem
        settings = self.settings
        moves, weights = zip(*[(m, w) for m, w in move_weights.items() if w > 0])
        move = rng.choices(moves, weights=weights, k=1)[0]
        outside = [name for name in candidates if name not in siting]
        current = list(siting)

        if move == "add" and outside and len(siting) < settings.max_datacenters:
            names = current + [rng.choice(outside)]
            return self._size_classes(names)
        if move in ("remove", "merge") and len(siting) > problem.min_datacenters:
            victim = rng.choice(current)
            names = [name for name in current if name != victim]
            return self._size_classes(names)
        if move == "swap" and outside:
            victim = rng.choice(current)
            names = [name for name in current if name != victim]
            names.append(rng.choice(outside))
            return self._size_classes(names)
        if move == "resize":
            name = rng.choice(current)
            new_siting = dict(siting)
            new_siting[name] = "large" if siting[name] == "small" else "small"
            return new_siting
        return None

    @staticmethod
    def _accept(
        current: ProvisioningResult,
        candidate: ProvisioningResult,
        temperature: float,
        rng: random.Random,
    ) -> bool:
        if not current.feasible:
            return candidate.feasible
        if candidate.monthly_cost <= current.monthly_cost:
            return True
        if temperature <= 0:
            return False
        relative_increase = (candidate.monthly_cost - current.monthly_cost) / max(
            1.0, current.monthly_cost
        )
        return rng.random() < math.exp(-relative_increase / temperature)
