"""Perf smoke check: the Section III-D points must stay cheap.

Wall-clock on shared CI runners is too noisy to gate on, so this pins
deterministic *counts*:

* the 60-location point's provisioning-LP evaluations (filter pricing is
  excluded; the counter is the siting-evaluation memo's miss count) — a
  regression means the siting memo, the adaptive epoch-grid scheme or the
  search schedule silently got worse;
* the 1373-location point's exactly-priced filter candidates — a regression
  means the vectorized screen stopped pruning (every candidate would fall
  back to an exact LP solve, the pre-two-stage behaviour).  A generous
  wall-clock ceiling on the filter stage backs the count gate: it only
  trips on order-of-magnitude regressions, not runner jitter;
* the 1373-location catalogue's profile build: the scalar haversine
  evaluations (counted by wrapping ``haversine_km`` from outside), the
  weather hours synthesized through the batched entry point
  (``TMYGenerator.generate_batch``) and the chunk runs
  (``build_profile_chunk``).  A regression means the nearest-infrastructure
  lookup went back to scanning every plant and backbone per location, the
  weather went back to synthesizing the full year (or skipped locations),
  or the stage went back to one weather pass per location; a generous
  wall-clock ceiling backs the counts;
* the registered ``fig08`` sweep through one serial runner: exactly how many
  filter shortlists the runner builds and reuses (the filter caps the
  scoring green share at 50 %, so each curve's 0.75 and 1.0 points reuse
  the 0.5 point's shortlist), and the native HiGHS bases converted to
  status arrays by the search (counted by wrapping
  ``highs_backend.status_arrays`` from outside).  A regression means the
  runner stopped sharing shortlists, or splices went back to projecting
  the basis eagerly.

Usage::

    PYTHONPATH=src python benchmarks/perf_smoke.py
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Iterator

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_sec3d_solver_scaling import run_heuristic  # noqa: E402

from repro.energy import EpochGrid, ProfileBuilder  # noqa: E402
from repro.lpsolver import highs_backend  # noqa: E402
from repro.scenarios import ExperimentRunner, get_scenario  # noqa: E402
from repro.energy import profiles  # noqa: E402
from repro.geo import coordinates  # noqa: E402
from repro.weather import build_world_catalog  # noqa: E402
from repro.weather.synthesis import TMYGenerator  # noqa: E402

#: Ceiling on sec3d 60-location LP evaluations (currently 11: 9 siting
#: evaluations on the coarse grid plus 2 adaptive refinement rounds).
LPS_SOLVED_CEILING = 16

#: The full-catalogue filter point the screen gate runs at.
FILTER_CANDIDATES = 1373

#: Ceiling on the fraction of the catalogue the filter may price exactly
#: (currently ~11 %: the screen's admissible bound prunes the rest).
FILTER_PRICED_FRACTION_CEILING = 0.25

#: Generous ceiling on the filter stage's wall-clock at 1373 candidates
#: (currently ~0.15 s threaded / ~0.35 s serial; the ceiling only catches
#: order-of-magnitude regressions such as losing the screen entirely).
FILTER_SECONDS_CEILING = 2.0

#: The catalogue the profile-stage gate builds (the paper's 1373 locations).
PROFILE_LOCATIONS = 1373

#: Locations per weather chunk the profile stage must batch
#: (``repro.energy.profiles.PROFILE_CHUNK_SIZE``, pinned here so a change to
#: it is a deliberate change to this gate): 1373 locations run 22 chunks.
PROFILE_CHUNK_LOCATIONS = 64

#: Ceiling on scalar haversine evaluations per location in the profile stage:
#: one exact recompute for the nearest plant and one for the nearest backbone,
#: plus 5 % for shortlist ties (a scan of every plant and backbone, three
#: scans per location, was ~770 per location).
PROFILE_HAVERSINES_PER_LOCATION_CEILING = 1.05 * 2

#: Generous ceiling on the profile stage's wall-clock at 1373 locations
#: (currently ~1.1 s serial on a 2-vCPU VM, ~6 s with full-year weather,
#: per-location passes and scalar nearest scans; only order-of-magnitude
#: regressions trip it).
PROFILE_SECONDS_CEILING = 5.0

#: The registered sweep the shortlist gate runs: 3 sources x 5 green
#: fractions, 13 distinct problems (the 0 % points canonicalise alike).
SWEEP_SCENARIO = "fig08"

#: Filter shortlists the sweep must build and reuse, exactly: one at 0 %
#: green, one per source at 25 % and one per source at 50 %, reused by the
#: 75 % and 100 % points.
SWEEP_SHORTLIST_BUILDS = 7
SWEEP_SHORTLIST_HITS = 6

#: Ceiling on native bases converted to status arrays over the sweep
#: (currently 35; 201 when every splice projected the basis eagerly).
SWEEP_BASIS_CONVERSIONS_CEILING = 40


@contextlib.contextmanager
def _counting(
    owner: object, name: str, tally: Dict[str, int], count: Callable[..., int]
) -> Iterator[None]:
    """Wrap ``owner.name`` from outside, adding ``count(*args)`` to ``tally[name]``."""
    original = getattr(owner, name)
    tally.setdefault(name, 0)

    @functools.wraps(original)
    def counted(*args, **kwargs):
        tally[name] += count(*args, **kwargs)
        return original(*args, **kwargs)

    setattr(owner, name, counted)
    try:
        yield
    finally:
        setattr(owner, name, original)


def _generated_hours(self, names, latitudes_deg, climates, hours) -> int:
    return int(np.size(hours))


def run_profile_stage() -> dict:
    """Build every profile of the 1373-location catalogue, counting the work."""
    catalog = build_world_catalog(num_locations=PROFILE_LOCATIONS, seed=2014)
    grid = EpochGrid.from_seasons(days_per_season=1, hours_per_epoch=3)
    tally: Dict[str, int] = {}
    with contextlib.ExitStack() as stack:
        # Every loaded module that binds haversine_km by name, like the
        # defining module, gets the counting wrapper.
        haversine_km = coordinates.haversine_km
        for module in list(sys.modules.values()):
            if getattr(module, "haversine_km", None) is haversine_km:
                stack.enter_context(_counting(module, "haversine_km", tally, lambda *a: 1))
        stack.enter_context(_counting(TMYGenerator, "generate_batch", tally, _generated_hours))
        stack.enter_context(_counting(profiles, "build_profile_chunk", tally, lambda *a: 1))
        started = time.perf_counter()
        built = ProfileBuilder(catalog).build_all(grid)
        elapsed = time.perf_counter() - started
    return {
        "locations": len(built),
        "haversines": tally["haversine_km"],
        "weather_hours": tally["generate_batch"],
        "chunks": tally["build_profile_chunk"],
        "grid_hours": grid.num_epochs * grid.hours_per_epoch,
        "elapsed_s": elapsed,
    }


def run_sweep_stage() -> dict:
    """Run the registered sweep through one serial runner, counting the work."""
    tally: Dict[str, int] = {}
    runner = ExperimentRunner(workers=1, executor="serial")
    with _counting(highs_backend, "status_arrays", tally, lambda *a: 1):
        results = runner.run(get_scenario(SWEEP_SCENARIO).build())
    stats = runner.cache_stats()
    return {
        "points": len(results),
        "feasible": all(point.record["feasible"] for point in results),
        "shortlist_builds": stats["shortlist_builds"],
        "shortlist_hits": stats["shortlist_hits"],
        "basis_conversions": tally["status_arrays"],
    }


def main() -> int:
    result = run_heuristic(60)
    lps = result["evaluations"]
    print(
        f"sec3d 60 candidates: {lps} LPs solved (ceiling {LPS_SOLVED_CEILING}), "
        f"{result['elapsed_s']:.3f}s, cost ${result['cost_musd']:.2f}M/month, "
        f"feasible={result['feasible']}"
    )
    if not result["feasible"]:
        print("FAIL: the 60-location benchmark instance became infeasible")
        return 1
    if lps > LPS_SOLVED_CEILING:
        print(
            f"FAIL: lps_solved {lps} exceeds the pinned ceiling {LPS_SOLVED_CEILING} — "
            "the search is solving more LPs than the recorded trajectory"
        )
        return 1

    full = run_heuristic(FILTER_CANDIDATES)
    priced = full["filter_priced"]
    priced_ceiling = FILTER_PRICED_FRACTION_CEILING * FILTER_CANDIDATES
    print(
        f"sec3d {FILTER_CANDIDATES} candidates: filter priced {priced:.0f} exactly "
        f"(ceiling {priced_ceiling:.0f}), filter {full['filter_seconds']:.3f}s "
        f"(ceiling {FILTER_SECONDS_CEILING:.1f}s), "
        f"survival {100 * full['filter_screen_rate']:.1f} %"
    )
    if not full["feasible"]:
        print(f"FAIL: the {FILTER_CANDIDATES}-location benchmark instance became infeasible")
        return 1
    if priced > priced_ceiling:
        print(
            f"FAIL: the filter priced {priced:.0f} candidates exactly, above the "
            f"{priced_ceiling:.0f} ceiling — the admissible screen stopped pruning"
        )
        return 1
    if full["filter_seconds"] > FILTER_SECONDS_CEILING:
        print(
            f"FAIL: the filter stage took {full['filter_seconds']:.3f}s, above the "
            f"{FILTER_SECONDS_CEILING:.1f}s ceiling"
        )
        return 1

    stage = run_profile_stage()
    locations = stage["locations"]
    haversine_ceiling = PROFILE_HAVERSINES_PER_LOCATION_CEILING * locations
    expected_hours = stage["grid_hours"] * locations
    expected_chunks = math.ceil(locations / PROFILE_CHUNK_LOCATIONS)
    print(
        f"profiles {locations} locations: {stage['haversines']} scalar haversines "
        f"(ceiling {haversine_ceiling:.0f}), {stage['weather_hours']} weather hours "
        f"(exactly {expected_hours}), {stage['chunks']} chunks "
        f"(exactly {expected_chunks}), {stage['elapsed_s']:.3f}s "
        f"(ceiling {PROFILE_SECONDS_CEILING:.1f}s)"
    )
    if stage["haversines"] > haversine_ceiling:
        print(
            f"FAIL: the profile stage evaluated {stage['haversines']} scalar haversines, "
            f"above the {haversine_ceiling:.0f} ceiling — the nearest-infrastructure "
            "lookup is scanning every plant and backbone again"
        )
        return 1
    if stage["weather_hours"] != expected_hours:
        print(
            f"FAIL: the profile stage synthesized {stage['weather_hours']} weather hours "
            f"through TMYGenerator.generate_batch, not the {expected_hours} the epoch "
            "grid reads for every location"
        )
        return 1
    if stage["chunks"] != expected_chunks:
        print(
            f"FAIL: the profile stage ran {stage['chunks']} weather chunks, not "
            f"{expected_chunks} of {PROFILE_CHUNK_LOCATIONS} locations — the stage no "
            "longer batches locations as pinned"
        )
        return 1
    if stage["elapsed_s"] > PROFILE_SECONDS_CEILING:
        print(
            f"FAIL: the profile stage took {stage['elapsed_s']:.3f}s, above the "
            f"{PROFILE_SECONDS_CEILING:.1f}s ceiling"
        )
        return 1

    sweep = run_sweep_stage()
    print(
        f"{SWEEP_SCENARIO} sweep {sweep['points']} points: "
        f"{sweep['shortlist_builds']} shortlists built (exactly {SWEEP_SHORTLIST_BUILDS}), "
        f"{sweep['shortlist_hits']} reused (exactly {SWEEP_SHORTLIST_HITS}), "
        f"{sweep['basis_conversions']} bases converted to status arrays "
        f"(ceiling {SWEEP_BASIS_CONVERSIONS_CEILING})"
    )
    if not sweep["feasible"]:
        print(f"FAIL: a point of the {SWEEP_SCENARIO} sweep became infeasible")
        return 1
    if (sweep["shortlist_builds"], sweep["shortlist_hits"]) != (
        SWEEP_SHORTLIST_BUILDS,
        SWEEP_SHORTLIST_HITS,
    ):
        print(
            f"FAIL: the runner built {sweep['shortlist_builds']} filter shortlists and "
            f"reused {sweep['shortlist_hits']}, not {SWEEP_SHORTLIST_BUILDS} and "
            f"{SWEEP_SHORTLIST_HITS} — points with the same scoring problem no longer "
            "share one shortlist, or points that differ do"
        )
        return 1
    if sweep["basis_conversions"] > SWEEP_BASIS_CONVERSIONS_CEILING:
        print(
            f"FAIL: the sweep converted {sweep['basis_conversions']} native bases to "
            f"status arrays, above the {SWEEP_BASIS_CONVERSIONS_CEILING} ceiling — "
            "splices are projecting the basis before it is read"
        )
        return 1
    print("perf smoke OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
