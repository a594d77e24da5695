"""Tests for geographic coordinates and distances."""

import numpy as np
import pytest

from repro.geo import (
    GeoPoint,
    haversine_km,
    nearest_point,
    nearest_points,
    synthesize_infrastructure,
)
from repro.geo.coordinates import bounding_latitudes


class TestGeoPoint:
    def test_valid_point(self):
        point = GeoPoint(41.4, 2.2)
        assert point.latitude == pytest.approx(41.4)

    @pytest.mark.parametrize("latitude", [-91.0, 91.0])
    def test_invalid_latitude(self, latitude):
        with pytest.raises(ValueError):
            GeoPoint(latitude, 0.0)

    @pytest.mark.parametrize("longitude", [-181.0, 181.0])
    def test_invalid_longitude(self, longitude):
        with pytest.raises(ValueError):
            GeoPoint(0.0, longitude)


class TestHaversine:
    def test_zero_distance(self):
        point = GeoPoint(10.0, 20.0)
        assert haversine_km(point, point) == pytest.approx(0.0, abs=1e-9)

    def test_symmetry(self):
        a = GeoPoint(41.39, 2.17)   # Barcelona
        b = GeoPoint(40.52, -74.46)  # Piscataway
        assert haversine_km(a, b) == pytest.approx(haversine_km(b, a))

    def test_known_distance_barcelona_piscataway(self):
        a = GeoPoint(41.39, 2.17)
        b = GeoPoint(40.52, -74.46)
        # The trans-Atlantic link of the paper's validation is roughly 6200 km.
        assert 5800 <= haversine_km(a, b) <= 6600

    def test_quarter_circumference(self):
        equator = GeoPoint(0.0, 0.0)
        pole = GeoPoint(90.0, 0.0)
        assert haversine_km(equator, pole) == pytest.approx(10_007.5, rel=0.01)

    def test_method_on_point(self):
        a = GeoPoint(0.0, 0.0)
        b = GeoPoint(0.0, 1.0)
        assert a.distance_km(b) == pytest.approx(111.19, rel=0.01)


class TestNearestPoint:
    class _Item:
        def __init__(self, name, lat, lon):
            self.name = name
            self.point = GeoPoint(lat, lon)

    def test_picks_closest(self):
        origin = GeoPoint(0.0, 0.0)
        items = [self._Item("far", 40.0, 40.0), self._Item("near", 1.0, 1.0)]
        nearest, distance = nearest_point(origin, items)
        assert nearest.name == "near"
        assert distance == pytest.approx(haversine_km(origin, items[1].point))

    def test_empty_candidates(self):
        nearest, distance = nearest_point(GeoPoint(0, 0), [])
        assert nearest is None
        assert distance == float("inf")

    def test_custom_accessor(self):
        origin = GeoPoint(0.0, 0.0)
        items = [(GeoPoint(2.0, 2.0), "a"), (GeoPoint(0.5, 0.5), "b")]
        nearest, _ = nearest_point(origin, items, point_of=lambda item: item[0])
        assert nearest[1] == "b"


class TestNearestPoints:
    @staticmethod
    def _scalar_scan(origin, items):
        best, best_distance = None, float("inf")
        for item in items:
            distance = haversine_km(origin, item.point)
            if distance < best_distance:
                best, best_distance = item, distance
        return best, best_distance

    def test_matches_scalar_scan_exactly(self):
        infrastructure = synthesize_infrastructure()
        rng = np.random.default_rng(11)
        origins = [
            GeoPoint(float(lat), float(lon))
            for lat, lon in zip(rng.uniform(-60, 70, 400), rng.uniform(-180, 180, 400))
        ]
        for items in (infrastructure.plants, infrastructure.backbones):
            for origin, (item, distance) in zip(origins, nearest_points(origins, items)):
                expected_item, expected_distance = self._scalar_scan(origin, items)
                assert item is expected_item
                assert distance.hex() == expected_distance.hex()

    def test_ties_go_to_the_first_candidate(self):
        items = [
            TestNearestPoint._Item("far", 5.0, 5.0),
            TestNearestPoint._Item("first", 1.0, 1.0),
            TestNearestPoint._Item("twin", 1.0, 1.0),
        ]
        [(nearest, _)] = nearest_points([GeoPoint(0.0, 0.0)], items)
        assert nearest.name == "first"

    def test_coincident_and_antipodal_origins(self):
        items = [
            TestNearestPoint._Item("pole", 90.0, 0.0),
            TestNearestPoint._Item("origin", 0.0, 0.0),
        ]
        found = nearest_points([GeoPoint(0.0, 0.0), GeoPoint(-90.0, 0.0)], items)
        assert found[0] == (items[1], 0.0)
        assert found[1][0] is items[1]

    def test_empty_inputs(self):
        assert nearest_points([], [TestNearestPoint._Item("a", 0.0, 0.0)]) == []
        assert nearest_points([GeoPoint(0, 0)] * 2, []) == [(None, float("inf"))] * 2


class TestBoundingLatitudes:
    def test_bounds(self):
        points = [GeoPoint(-10, 0), GeoPoint(25, 10), GeoPoint(3, -5)]
        assert bounding_latitudes(points) == (-10, 25)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            bounding_latitudes([])
