"""Geographic coordinates and great-circle distances."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

EARTH_RADIUS_KM = 6371.0


@dataclass(frozen=True)
class GeoPoint:
    """A point on the globe in decimal degrees."""

    latitude: float
    longitude: float

    def __post_init__(self) -> None:
        if not -90.0 <= self.latitude <= 90.0:
            raise ValueError(f"latitude {self.latitude} out of range [-90, 90]")
        if not -180.0 <= self.longitude <= 180.0:
            raise ValueError(f"longitude {self.longitude} out of range [-180, 180]")

    def distance_km(self, other: "GeoPoint") -> float:
        """Great-circle distance to ``other`` in kilometres."""
        return haversine_km(self, other)


def haversine_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle (haversine) distance between two points, in kilometres."""
    lat1, lon1 = math.radians(a.latitude), math.radians(a.longitude)
    lat2, lon2 = math.radians(b.latitude), math.radians(b.longitude)
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    h = min(1.0, h)
    return 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(h))


T = TypeVar("T")

#: Shortlist margin of :func:`nearest_points`: candidates whose vectorized
#: distance lies within this relative slack of the row minimum are
#: re-evaluated exactly.  The vectorized and scalar haversines differ by a
#: few ulps, so the exact minimum is always on the shortlist.
_SHORTLIST_RTOL = 1e-9

#: Origins per vectorized block, bounding the (origins x candidates) matrix.
_BLOCK_ROWS = 2048


def nearest_points(
    origins: Sequence[GeoPoint],
    candidates: Sequence[T],
    point_of: Optional[Callable[[T], GeoPoint]] = None,
) -> List[Tuple[Optional[T], float]]:
    """``(nearest candidate, distance_km)`` for every origin, in one scan.

    One vectorized haversine pass over the (origins x candidates) matrix
    shortlists, per origin, the candidates within a relative
    ``_SHORTLIST_RTOL`` of the row minimum.  Only those are re-evaluated
    with the scalar :func:`haversine_km`, and the first strict minimum in
    candidate order wins, so the result is exactly what a scalar scan of
    every candidate returns: the same candidate and the same distance bits.

    ``point_of`` extracts a :class:`GeoPoint` from each candidate; by default
    the candidate is assumed to expose a ``point`` attribute.  An origin gets
    ``(None, inf)`` when ``candidates`` is empty.
    """
    if point_of is None:
        point_of = operator.attrgetter("point")
    origins = list(origins)
    if not candidates:
        return [(None, math.inf)] * len(origins)
    points = [point_of(candidate) for candidate in candidates]
    lat2 = np.radians([point.latitude for point in points])
    lon2 = np.radians([point.longitude for point in points])
    cos_lat2 = np.cos(lat2)
    nearest: List[Tuple[Optional[T], float]] = []
    for start in range(0, len(origins), _BLOCK_ROWS):
        block = origins[start : start + _BLOCK_ROWS]
        lat1 = np.radians([origin.latitude for origin in block])[:, None]
        lon1 = np.radians([origin.longitude for origin in block])[:, None]
        h = np.sin((lat2 - lat1) / 2.0) ** 2 + np.cos(lat1) * cos_lat2 * np.sin(
            (lon2 - lon1) / 2.0
        ) ** 2
        distances = 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.minimum(h, 1.0)))
        limits = distances.min(axis=1) * (1.0 + _SHORTLIST_RTOL)
        for origin, row, limit in zip(block, distances, limits):
            best: Optional[T] = None
            best_distance = math.inf
            for index in np.flatnonzero(row <= limit):
                distance = haversine_km(origin, points[index])
                if distance < best_distance:
                    best, best_distance = candidates[index], distance
            nearest.append((best, best_distance))
    return nearest


def nearest_point(
    origin: GeoPoint,
    candidates: Sequence[T],
    point_of: Optional[Callable[[T], GeoPoint]] = None,
) -> Tuple[Optional[T], float]:
    """Return ``(nearest candidate, distance_km)`` from ``origin``.

    The one-origin case of :func:`nearest_points`; ``(None, inf)`` when
    ``candidates`` is empty.
    """
    return nearest_points([origin], candidates, point_of)[0]


def bounding_latitudes(points: Iterable[GeoPoint]) -> Tuple[float, float]:
    """Smallest and largest latitude in an iterable of points."""
    latitudes = [p.latitude for p in points]
    if not latitudes:
        raise ValueError("bounding_latitudes requires at least one point")
    return min(latitudes), max(latitudes)
