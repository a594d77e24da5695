"""Bit-identity of the profile build against the full-year reference path.

:class:`ProfileBuilder` synthesizes weather only at the (UTC-shifted) hours
the epoch grid reads, and finds every location's nearest plant and backbone
with one vectorized scan per catalogue.  Both are shortcuts: the profiles
must be byte-identical to :func:`oracles.reference_profiles`, which builds
them from full-year TMYs with ``np.roll`` and a scalar nearest scan, on
several catalogue seeds and grids, anchors (with their overrides) included.
A golden digest of the ``sec3d`` profiles pins the path against drift in
both.
"""

import numpy as np
import pytest

from oracles import PROFILE_SCALARS, PROFILE_SERIES, profile_digest, reference_profiles
from repro.energy import EpochGrid, ProfileBuilder
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


@pytest.fixture(scope="module", params=CATALOG_SEEDS)
def catalog(request):
    return build_world_catalog(num_locations=NUM_LOCATIONS, seed=request.param)


@pytest.mark.parametrize("days_per_season, hours_per_epoch", GRIDS)
def test_profiles_byte_identical_to_full_year_reference(catalog, days_per_season, hours_per_epoch):
    grid = EpochGrid.from_seasons(days_per_season=days_per_season, hours_per_epoch=hours_per_epoch)
    built = ProfileBuilder(catalog).build_all(grid)
    expected = reference_profiles(catalog, grid)
    assert sum(location.is_anchor for location in catalog) > 0
    assert len(built) == len(expected) == NUM_LOCATIONS
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


def test_build_leaves_full_year_tmy_cache_empty():
    catalog = build_world_catalog(num_locations=16, seed=3)
    ProfileBuilder(catalog).build_all(EpochGrid.from_seasons())
    assert not catalog._tmy_cache


def test_sec3d_profiles_match_golden_digest():
    spec = get_scenario("sec3d").build().base
    profiles = ProfileBuilder(spec.build_catalog()).build_all(spec.build_epoch_grid())
    assert len(profiles) == 60
    assert profile_digest(profiles) == SEC3D_PROFILE_SHA256
