"""Bit-identity of the profile build against the full-year reference path.

:class:`ProfileBuilder` synthesizes weather only at the (UTC-shifted) hours
the epoch grid reads, for a chunk of locations at once, on any executor, and
finds every location's nearest plant and backbone with one vectorized scan
per catalogue.  All are shortcuts: the profiles must be byte-identical to
:func:`oracles.reference_profiles`, which builds them one location at a time
from full-year TMYs (:func:`oracles.reference_tmy`) with ``np.roll`` and a
scalar nearest scan, on several catalogue seeds and grids, anchors (with
their overrides) included.  The 200-location catalogues are not a multiple
of the chunk size, so the last chunk is ragged.  A golden digest of the
``sec3d`` profiles pins the path against drift in all of them.
"""

import math

import numpy as np
import pytest

from oracles import PROFILE_SCALARS, PROFILE_SERIES, profile_digest, reference_profiles
from repro.energy import EpochGrid, ProfileBuilder
from repro.energy import profiles as profiles_module
from repro.parallel import ExecutorFactory
from repro.scenarios.registry import get_scenario
from repro.weather import build_world_catalog

CATALOG_SEEDS = (1, 7, 2014)

#: Enough locations that every synthetic band and every anchor is covered.
NUM_LOCATIONS = 200

#: ``(days_per_season, hours_per_epoch)``: the test grid, a coarse grid and
#: an hourly two-days-per-season grid.
GRIDS = ((1, 3), (1, 12), (2, 1))

#: sha256 (see :func:`oracles.profile_digest`) of the 60-location ``sec3d``
#: profiles, recorded with the full-year build.
SEC3D_PROFILE_SHA256 = "e495b5cdec38584687da7aabfff01a7a958e7949b980470646785465da2ef14f"


#: Executors the chunked build must agree on, two workers each.
FACTORIES = {
    "serial": ExecutorFactory(kind="serial"),
    "thread": ExecutorFactory(kind="thread", max_workers=2),
    "process": ExecutorFactory(kind="process", max_workers=2),
}

#: The test grid, on which the executor and warm-cache variants run.
TEST_GRID = EpochGrid.from_seasons(days_per_season=1, hours_per_epoch=3)


@pytest.fixture(scope="module", params=CATALOG_SEEDS)
def catalog(request):
    return build_world_catalog(num_locations=NUM_LOCATIONS, seed=request.param)


@pytest.fixture(scope="module")
def reference_on_test_grid(catalog):
    return reference_profiles(catalog, TEST_GRID)


def assert_byte_identical(built, expected):
    assert len(built) == len(expected)
    for got, want in zip(built, expected):
        assert got.location == want.location
        assert got.epochs == want.epochs
        for name in PROFILE_SERIES:
            assert getattr(got, name).dtype == np.float64
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (got.name, name)
        for name in PROFILE_SCALARS:
            assert np.float64(getattr(got, name)).tobytes() == np.float64(
                getattr(want, name)
            ).tobytes(), (got.name, name)
    assert profile_digest(built) == profile_digest(expected)


@pytest.mark.parametrize("days_per_season, hours_per_epoch", GRIDS)
def test_profiles_byte_identical_to_full_year_reference(catalog, days_per_season, hours_per_epoch):
    grid = EpochGrid.from_seasons(days_per_season=days_per_season, hours_per_epoch=hours_per_epoch)
    built = ProfileBuilder(catalog).build_all(grid)
    assert sum(location.is_anchor for location in catalog) > 0
    assert len(built) == NUM_LOCATIONS
    assert_byte_identical(built, reference_profiles(catalog, grid))


@pytest.mark.parametrize("kind", sorted(FACTORIES))
def test_every_executor_builds_the_reference(catalog, reference_on_test_grid, kind):
    assert NUM_LOCATIONS % profiles_module.PROFILE_CHUNK_SIZE != 0  # a ragged last chunk
    built = ProfileBuilder(catalog).build_all(TEST_GRID, factory=FACTORIES[kind])
    assert [profile.name for profile in built] == catalog.names
    assert_byte_identical(built, reference_on_test_grid)


def test_build_matches_the_build_all_row(catalog, reference_on_test_grid):
    # The first and last location of a chunk, an anchor and the ragged tail.
    anchor = next(index for index, location in enumerate(catalog) if location.is_anchor)
    rows = sorted({0, 63, 64, anchor, NUM_LOCATIONS - 1})
    rows_of_all = ProfileBuilder(catalog).build_all(TEST_GRID)
    for row in rows:
        alone = ProfileBuilder(catalog).build(catalog.locations[row], TEST_GRID)
        assert_byte_identical([alone], [rows_of_all[row]])
        assert_byte_identical([alone], [reference_on_test_grid[row]])


def test_warmed_builder_reuses_built_profiles(catalog, reference_on_test_grid):
    builder = ProfileBuilder(catalog)
    warmed = {
        row: builder.build(catalog.locations[row], TEST_GRID) for row in (5, 64, NUM_LOCATIONS - 1)
    }
    built = builder.build_all(TEST_GRID, factory=FACTORIES["thread"])
    for row, profile in warmed.items():
        assert built[row] is profile
    assert_byte_identical(built, reference_on_test_grid)
    assert builder.build_all(TEST_GRID) == built


def test_chunks_run_once_per_64_missing_locations(catalog, monkeypatch):
    calls = []
    original = profiles_module.build_profile_chunk

    def counted(task):
        calls.append(len(task.names))
        return original(task)

    monkeypatch.setattr(profiles_module, "build_profile_chunk", counted)
    builder = ProfileBuilder(catalog)
    builder.build_all(TEST_GRID)
    chunk = profiles_module.PROFILE_CHUNK_SIZE
    assert len(calls) == math.ceil(NUM_LOCATIONS / chunk)
    assert calls == [chunk] * (NUM_LOCATIONS // chunk) + [NUM_LOCATIONS % chunk]
    builder.build_all(TEST_GRID)  # every profile cached: no chunk runs
    assert len(calls) == math.ceil(NUM_LOCATIONS / chunk)


def test_build_leaves_full_year_tmy_cache_empty():
    catalog = build_world_catalog(num_locations=16, seed=3)
    ProfileBuilder(catalog).build_all(EpochGrid.from_seasons())
    assert not catalog._tmy_cache


def test_sec3d_profiles_match_golden_digest():
    spec = get_scenario("sec3d").build().base
    profiles = ProfileBuilder(spec.build_catalog()).build_all(spec.build_epoch_grid())
    assert len(profiles) == 60
    assert profile_digest(profiles) == SEC3D_PROFILE_SHA256
