"""Differential tests for the runner's shared filter shortlists.

The filter scores candidates with the green share capped at 50 %, so the
0.5, 0.75 and 1.0 points of one Fig. 8-10 curve price the same scoring
problem.  An :class:`ExperimentRunner` builds that shortlist once per
scoring problem and profile set; these tests pin that reusing it never
changes a record, whatever the point order or executor, and that points
whose filter differs never share an entry.

The Fig. 8-10 sweeps run on a 40-location catalogue with a shorter search
so the module stays fast; the sweep axes (sources x green fraction, three
storage modes) are the registered ones.
"""

import json
import sys

import pytest

from repro.core import HeuristicSolver, SearchSettings
from repro.scenarios import ExperimentRunner, ParameterSweep, get_scenario

DOWNSIZE = {"num_locations": 40, "search.max_iterations": 6, "search.patience": 4}


def paper_sweeps():
    sweeps = []
    for name in ("fig08", "fig09", "fig10"):
        registered = get_scenario(name).build()
        sweeps.append(
            ParameterSweep(
                base=registered.base.with_updates(**DOWNSIZE),
                axes=registered.axes,
                mode=registered.mode,
                name=name,
            )
        )
    return sweeps


def paper_specs():
    return [point.spec for sweep in paper_sweeps() for point in sweep.points()]


def dump(records):
    """Byte-level form of a record list (records may hold NaN)."""
    return json.dumps(records, sort_keys=True)


@pytest.fixture(scope="module")
def fresh_records():
    """Every point on a runner of its own: no shortlist is ever reused."""
    return [
        ExperimentRunner(workers=1, executor="serial").run_point(spec).record
        for spec in paper_specs()
    ]


class TestSharedRunnerIsBitIdentical:
    def test_registered_order(self, fresh_records):
        runner = ExperimentRunner(workers=1, executor="serial")
        records = [runner.run_point(spec).record for spec in paper_specs()]
        assert dump(records) == dump(fresh_records)
        stats = runner.cache_stats()
        # 39 distinct problems; the 0.75 and 1.0 points of each of the nine
        # (storage, sources) curves reuse the 0.5 point's shortlist.
        assert stats["shortlist_hits"] == 18
        assert stats["shortlist_builds"] == 21

    def test_reversed_order(self, fresh_records):
        runner = ExperimentRunner(workers=1, executor="serial")
        specs = paper_specs()
        records = [runner.run_point(spec).record for spec in reversed(specs)]
        assert dump(records[::-1]) == dump(fresh_records)
        assert runner.cache_stats()["shortlist_hits"] == 18

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_concurrent_runner(self, fresh_records, executor):
        runner = ExperimentRunner(workers=2, executor=executor)
        records = [
            point.record for sweep in paper_sweeps() for point in runner.run(sweep)
        ]
        assert dump(records) == dump(fresh_records)


def test_thread_stress_keeps_one_entry_per_scoring_problem(fresh_records):
    """More threads than cores and frequent switches: no update is lost."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = ExperimentRunner(workers=4, executor="thread")
        records = [
            point.record for sweep in paper_sweeps() for point in runner.run(sweep)
        ]
    finally:
        sys.setswitchinterval(interval)
    assert dump(records) == dump(fresh_records)
    stats = runner.cache_stats()
    # Every distinct problem counts once, as a build or a hit; racing misses
    # may build a shortlist twice, but the mapping keeps one entry per key.
    assert stats["shortlist_builds"] + stats["shortlist_hits"] == 39
    (shortlists,) = runner._shortlists.values()
    assert len(shortlists) == 21


def variant_specs():
    base = get_scenario("fig08").build().base.with_updates(
        min_green_fraction=0.75, **DOWNSIZE
    )
    return {
        "base": base,
        "storage": base.with_updates(storage="batteries"),
        "sources": base.with_updates(sources="wind"),
        "keep_locations": base.with_updates(**{"search.keep_locations": 8}),
        "filter_screen": base.with_updates(**{"search.filter_screen": False}),
        "filter_batch": base.with_updates(**{"search.filter_batch": False}),
    }


class TestShortlistKeys:
    def test_filter_variants_never_share(self):
        runner = ExperimentRunner(workers=1, executor="serial")
        specs = variant_specs()
        for spec in specs.values():
            runner.run_point(spec)
        stats = runner.cache_stats()
        assert stats["shortlist_hits"] == 0
        assert stats["shortlist_builds"] == len(specs)
        (shortlists,) = runner._shortlists.values()
        assert len(shortlists) == len(specs)

    def test_same_scoring_problem_shares(self):
        runner = ExperimentRunner(workers=1, executor="serial")
        base = variant_specs()["base"]
        miss = runner.run_point(base.with_updates(min_green_fraction=0.5))
        hit = runner.run_point(base.with_updates(min_green_fraction=1.0))
        assert runner.cache_stats()["shortlist_hits"] == 1
        assert miss.solution.stats["filter_shortlist_hit"] == 0.0
        assert hit.solution.stats["filter_shortlist_hit"] == 1.0
        assert hit.solution.filtered_locations == miss.solution.filtered_locations
        for key in ("filter_priced", "filter_candidates", "filter_screened_out"):
            assert hit.solution.stats[key] == miss.solution.stats[key]

    def test_profile_sets_never_share(self):
        runner = ExperimentRunner(workers=1, executor="serial")
        base = variant_specs()["base"]
        runner.run_point(base)
        runner.run_point(base.with_updates(catalog_seed=base.catalog_seed + 1))
        assert runner.cache_stats()["shortlist_hits"] == 0
        assert len(runner._shortlists) == 2


class TestSolverShortlists:
    def problem(self):
        from repro.core import PlacementTool

        spec = variant_specs()["base"]
        return PlacementTool.from_spec(spec).build_problem(min_green_fraction=0.75)

    def test_hit_returns_stored_shortlist_and_stats(self):
        problem = self.problem()
        shortlists = {}
        settings = SearchSettings(keep_locations=6)
        first = HeuristicSolver(problem, settings, shortlists=shortlists)
        built = first.filter_locations()
        second = HeuristicSolver(problem, settings, shortlists=shortlists)
        reused = second.filter_locations()
        assert reused == built
        assert second._filter_stats == {**first._filter_stats, "filter_shortlist_hit": 1.0}
        assert HeuristicSolver(problem, settings).filter_locations() == built

    def test_coarse_sub_solver_keys_carry_the_factor(self):
        problem = self.problem()
        shortlists = {}
        base = dict(keep_locations=6, max_iterations=2, patience=2, num_chains=1)
        fine = HeuristicSolver(problem, SearchSettings(**base), shortlists=shortlists)
        fine.filter_locations()
        coarse = HeuristicSolver(
            problem, SearchSettings(coarse_epoch_factor=2, **base), shortlists=shortlists
        )
        solution = coarse.solve()
        assert solution.stats["filter_shortlist_hit"] == 0.0
        assert len(shortlists) == 2
        assert any(("coarse_epoch_factor", 2) in key for key in shortlists)
        again = HeuristicSolver(
            problem, SearchSettings(coarse_epoch_factor=2, **base), shortlists=shortlists
        ).solve()
        assert again.stats["filter_shortlist_hit"] == 1.0
        assert again.monthly_cost == solution.monthly_cost
