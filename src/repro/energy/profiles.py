"""Per-location epoch profiles consumed by the placement framework.

The optimisation of Fig. 1 works on discrete time slots ("epochs").  Using
all 8760 hours of the TMY year for every candidate location makes the LPs
needlessly large, so — like the paper's own tool — we aggregate the year into
a set of *representative days*, each standing in for an equal slice of the
year, split into epochs of a few hours.  A :class:`LocationProfile` holds the
aggregated ``alpha``/``beta``/``PUE`` series for one location together with
the per-location scalars (prices, distances, plant capacity) needed by the
cost model.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.energy.capacity_factor import capacity_factor
from repro.energy.pue import PUEModel
from repro.energy.solar_plant import SolarPanelModel
from repro.energy.wind_plant import WindTurbineModel
from repro.parallel.executors import ExecutorFactory, result_with_serial_fallback
from repro.weather.locations import Location, WorldCatalog
from repro.weather.records import DAYS_PER_YEAR, HOURS_PER_DAY, HOURS_PER_YEAR
from repro.weather.synthesis import ClimateProfile, TMYGenerator


def calibrate_series(
    series: np.ndarray,
    target_mean: float,
    upper: float = 1.0,
    iterations: int = 60,
) -> np.ndarray:
    """Scale a production series so its mean hits ``target_mean``.

    Scaling preserves the diurnal/seasonal shape; values are clipped to
    ``[0, upper]`` and the scale factor is re-estimated a few times so the
    clipped series converges to the requested mean (used to pin anchor
    locations to the capacity factors published in the paper).
    """
    values = np.clip(np.asarray(series, dtype=float), 0.0, upper)
    if not 0.0 <= target_mean <= upper:
        raise ValueError(f"target mean {target_mean} outside [0, {upper}]")
    if target_mean == 0.0:
        return np.zeros_like(values)
    if float(values.max()) <= 0.0:
        # Nothing to scale: fall back to a flat series at the target level.
        return np.full_like(values, target_mean)
    if abs(float(values.mean()) - target_mean) <= 1e-6:
        # Already calibrated (e.g. a series rebuilt from calibrated data).
        return values

    def mean_at(scale: float) -> float:
        return float(np.clip(values * scale, 0.0, upper).mean())

    # The clipped mean is non-decreasing in the scale factor, so a simple
    # bisection finds the factor that hits the target (when it is reachable).
    low, high = 0.0, 1.0
    high_mean = mean_at(high)
    growth = 0
    while high_mean < target_mean and growth < 60:
        high *= 4.0
        high_mean = mean_at(high)
        growth += 1
    if high_mean < target_mean:
        # Target unreachable (too few non-zero entries): return the best effort.
        return np.clip(values * high, 0.0, upper)
    for _ in range(iterations):
        middle = 0.5 * (low + high)
        middle_mean = mean_at(middle)
        if middle_mean < target_mean:
            low = middle
        else:
            high = middle
            high_mean = middle_mean
        if abs(high_mean - target_mean) <= 1e-6:
            break
    return np.clip(values * high, 0.0, upper)


@dataclass(frozen=True)
class EpochGrid:
    """Discretisation of the year into epochs over representative days.

    Attributes
    ----------
    representative_days:
        Day-of-year indices (0-based) of the days that stand in for the year.
    hours_per_epoch:
        Epoch duration in whole hours; must be positive and divide 24.
    """

    representative_days: tuple
    hours_per_epoch: int = 1

    def __post_init__(self) -> None:
        if not self.representative_days:
            raise ValueError("at least one representative day is required")
        hours = self.hours_per_epoch
        if isinstance(hours, bool) or not isinstance(hours, numbers.Integral):
            raise ValueError(f"hours_per_epoch must be a whole number of hours, got {hours!r}")
        if hours < 1 or HOURS_PER_DAY % hours != 0:
            raise ValueError(f"hours_per_epoch must be a positive divisor of 24, got {hours}")
        for day in self.representative_days:
            if not 0 <= day < DAYS_PER_YEAR:
                raise ValueError(f"representative day {day} outside the year")
        # Hour-of-year indices, precomputed once: every profile build and
        # aggregate reads them.
        epoch_starts = (
            np.asarray(self.representative_days, dtype=np.int64)[:, None] * HOURS_PER_DAY
            + np.arange(0, HOURS_PER_DAY, self.hours_per_epoch)
        ).reshape(-1, 1)
        indices = epoch_starts + np.arange(self.hours_per_epoch)
        indices.flags.writeable = False
        object.__setattr__(self, "_hour_indices", indices)

    @classmethod
    def from_seasons(cls, days_per_season: int = 1, hours_per_epoch: int = 3) -> "EpochGrid":
        """Pick representative days spread over the four seasons.

        With the defaults this yields 4 days x 8 epochs = 32 epochs, which is
        what the fast test configurations use; benchmarks use finer grids.
        """
        season_centres = (15, 105, 196, 288)  # mid-Jan, mid-Apr, mid-Jul, mid-Oct
        days: List[int] = []
        for centre in season_centres:
            for offset in range(days_per_season):
                days.append((centre + offset * 7) % DAYS_PER_YEAR)
        return cls(representative_days=tuple(sorted(days)), hours_per_epoch=hours_per_epoch)

    @property
    def epochs_per_day(self) -> int:
        return HOURS_PER_DAY // self.hours_per_epoch

    @property
    def num_epochs(self) -> int:
        return len(self.representative_days) * self.epochs_per_day

    @property
    def day_weight(self) -> float:
        """Number of real days each representative day stands for."""
        return DAYS_PER_YEAR / len(self.representative_days)

    @property
    def epoch_hours(self) -> float:
        """Duration of one epoch in hours (within its representative day)."""
        return float(self.hours_per_epoch)

    def epoch_weights_hours(self) -> np.ndarray:
        """Hours of the year represented by each epoch (sums to 8760)."""
        weight = self.hours_per_epoch * self.day_weight
        return np.full(self.num_epochs, weight)

    def hour_indices(self) -> np.ndarray:
        """Hour-of-year index array of shape (num_epochs, hours_per_epoch), read-only."""
        return self._hour_indices

    def aggregate(self, hourly_values: np.ndarray) -> np.ndarray:
        """Average an 8760-hour array into the epoch grid."""
        hourly = np.asarray(hourly_values, dtype=float)
        indices = self.hour_indices()
        return hourly[indices].mean(axis=1)

    def epoch_index(self, hour_of_year: float) -> int:
        """Map an absolute hour cyclically onto the grid's epoch sequence.

        The emulation layer runs simulation time over the grid's
        representative days back to back, so the mapping wraps around.
        """
        return int(hour_of_year // self.hours_per_epoch) % self.num_epochs


@dataclass(frozen=True)
class RefinedEpochGrid:
    """Epoch grid with *non-uniform* epoch durations.

    Produced by the adaptive epoch-grid scheme
    (:mod:`repro.core.adaptive_grid`): most of a representative day stays at
    a coarse resolution while the spans where the provisioning plan is
    storage- or migration-bound are split back to full resolution.
    ``day_patterns`` holds one tuple of epoch durations (in hours) per
    representative day; each pattern must sum to 24.  The interface mirrors
    :class:`EpochGrid` except that ``epoch_hours`` (and ``hours_per_epoch``)
    are per-epoch rather than scalar — the model builders broadcast either
    form.
    """

    representative_days: tuple
    day_patterns: tuple

    def __post_init__(self) -> None:
        if not self.representative_days:
            raise ValueError("at least one representative day is required")
        if len(self.day_patterns) != len(self.representative_days):
            raise ValueError("one duration pattern per representative day is required")
        for pattern in self.day_patterns:
            if not pattern or sum(pattern) != HOURS_PER_DAY:
                raise ValueError("every day pattern must sum to 24 hours")
            if any(int(h) != h or h < 1 for h in pattern):
                raise ValueError("epoch durations must be whole hours of at least one hour")
        for day in self.representative_days:
            if not 0 <= day < DAYS_PER_YEAR:
                raise ValueError(f"representative day {day} outside the year")
        # Cumulative epoch end-hours, precomputed once: epoch_index runs per
        # simulated hour per datacenter in the emulation loop.
        object.__setattr__(self, "_epoch_ends", np.cumsum(self.epoch_hours))

    @property
    def hours_per_epoch(self) -> tuple:
        """Per-day duration patterns; doubles as the grid-equality key."""
        return self.day_patterns

    @property
    def num_epochs(self) -> int:
        return sum(len(pattern) for pattern in self.day_patterns)

    @property
    def day_weight(self) -> float:
        """Number of real days each representative day stands for."""
        return DAYS_PER_YEAR / len(self.representative_days)

    @property
    def epoch_hours(self) -> np.ndarray:
        """Duration of each epoch in hours (non-uniform array form)."""
        return np.array(
            [hours for pattern in self.day_patterns for hours in pattern], dtype=float
        )

    def epoch_weights_hours(self) -> np.ndarray:
        """Hours of the year represented by each epoch (sums to 8760)."""
        return self.epoch_hours * self.day_weight

    def hour_indices(self) -> List[np.ndarray]:
        """Hour-of-year indices per epoch (ragged: one array per epoch)."""
        indices: List[np.ndarray] = []
        for day, pattern in zip(self.representative_days, self.day_patterns):
            start = day * HOURS_PER_DAY
            for hours in pattern:
                indices.append(np.arange(start, start + int(hours)))
                start += int(hours)
        return indices

    def aggregate(self, hourly_values: np.ndarray) -> np.ndarray:
        """Average an 8760-hour array into the (non-uniform) epoch grid."""
        hourly = np.asarray(hourly_values, dtype=float)
        return np.array([hourly[idx].mean() for idx in self.hour_indices()])

    def epoch_index(self, hour_of_year: float) -> int:
        """Map an absolute hour cyclically onto the non-uniform epochs."""
        ends = self._epoch_ends
        wrapped = float(hour_of_year) % ends[-1]
        return int(np.searchsorted(ends, wrapped, side="right"))


@dataclass
class LocationProfile:
    """Everything the cost model and the optimiser need about one location."""

    location: Location
    epochs: EpochGrid
    solar_alpha: np.ndarray
    wind_beta: np.ndarray
    pue: np.ndarray
    land_price_per_m2: float
    energy_price_per_kwh: float
    distance_power_km: float
    distance_network_km: float
    near_plant_capacity_kw: float

    def __post_init__(self) -> None:
        expected = self.epochs.num_epochs
        for name in ("solar_alpha", "wind_beta", "pue"):
            array = np.asarray(getattr(self, name), dtype=float)
            if array.shape != (expected,):
                raise ValueError(f"profile series {name} must have {expected} epochs")
            setattr(self, name, array)
        if np.any(self.pue < 1.0 - 1e-9):
            raise ValueError("PUE cannot be below 1.0")

    @property
    def name(self) -> str:
        return self.location.name

    @property
    def solar_capacity_factor(self) -> float:
        return capacity_factor(self.solar_alpha)

    @property
    def wind_capacity_factor(self) -> float:
        return capacity_factor(self.wind_beta)

    @property
    def average_pue(self) -> float:
        return float(np.mean(self.pue))

    @property
    def max_pue(self) -> float:
        return float(np.max(self.pue))


#: Locations per profile-stage chunk.  Fixed, never derived from the worker
#: count, so the split is the same on every executor; small enough that a
#: chunk's ``(locations, epochs, hours)`` weather arrays leave peak memory
#: flat (256-location chunks cost ~10 MB more on a 1373-location plan), large
#: enough that the channel arithmetic runs once per chunk, not per location.
PROFILE_CHUNK_SIZE = 64

#: The default profile-stage executor: chunks run inline, in order.
_SERIAL = ExecutorFactory(kind="serial")


@dataclass(frozen=True)
class ProfileChunkTask:
    """One contiguous chunk of the profile stage, as plain picklable data.

    Carries what the weather and production models read per location and
    nothing of the catalogue's lazy state (nearest-infrastructure scans, the
    full-year TMY cache), so a chunk runs the same on any executor.
    """

    generator: TMYGenerator
    names: Tuple[str, ...]
    latitudes: Tuple[float, ...]
    climates: Tuple[ClimateProfile, ...]
    #: Whole-hour UTC shift of each location (its longitude / 15, rounded).
    shifts: Tuple[int, ...]
    #: The grid's ``(epochs, hours)`` hour-of-year indices.
    hour_indices: np.ndarray
    solar_model: SolarPanelModel
    wind_model: WindTurbineModel
    pue_model: PUEModel


def build_profile_chunk(task: ProfileChunkTask) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Uncalibrated ``(alpha, beta, pue)`` epoch series of a chunk, one row per location.

    The TMY channels are in local solar time; the optimiser and the
    GreenNebula scheduler reason about all locations at the same instant, so
    the series are shifted to UTC.  This is what makes the sun "move" from
    one candidate location to the next — the effect the follow-the-renewables
    solutions exploit.  Only the (shifted) hours the grid reads are
    synthesized, for the whole chunk at once.
    """
    shifts = np.asarray(task.shifts, dtype=np.int64)[:, None, None]
    hours = (task.hour_indices[None] + shifts) % HOURS_PER_YEAR
    tmy = task.generator.generate_batch(task.names, task.latitudes, task.climates, hours)
    alpha = task.solar_model.production_fraction(tmy.ghi_w_m2, tmy.temperature_c)
    beta = task.wind_model.production_fraction(
        tmy.wind_speed_m_s, tmy.pressure_kpa, tmy.temperature_c
    )
    pue = task.pue_model.series(tmy.temperature_c)
    return alpha.mean(axis=-1), beta.mean(axis=-1), pue.mean(axis=-1)


class ProfileBuilder:
    """Build :class:`LocationProfile` objects from a :class:`WorldCatalog`."""

    def __init__(
        self,
        catalog: WorldCatalog,
        solar_model: Optional[SolarPanelModel] = None,
        wind_model: Optional[WindTurbineModel] = None,
        pue_model: Optional[PUEModel] = None,
    ) -> None:
        self.catalog = catalog
        self.solar_model = solar_model or SolarPanelModel()
        self.wind_model = wind_model or WindTurbineModel()
        self.pue_model = pue_model or PUEModel()
        self._cache: Dict[tuple, LocationProfile] = {}

    def build(self, location: Location, epochs: EpochGrid) -> LocationProfile:
        """Build (and cache) the profile of one location on an epoch grid."""
        return self._build([location], epochs, _SERIAL)[0]

    def build_all(
        self,
        epochs: EpochGrid,
        names: Optional[Iterable[str]] = None,
        factory: Optional[ExecutorFactory] = None,
    ) -> List[LocationProfile]:
        """Profiles for all (or the named subset of) catalogue locations.

        Locations not built yet are synthesized in contiguous chunks of
        :data:`PROFILE_CHUNK_SIZE` on ``factory``'s executor (serial by
        default).  Profiles are byte-identical for every executor kind.
        """
        if names is None:
            locations: Sequence[Location] = self.catalog.locations
        else:
            locations = [self.catalog.get(name) for name in names]
        return self._build(locations, epochs, factory or _SERIAL)

    def _build(
        self, locations: Sequence[Location], epochs: EpochGrid, factory: ExecutorFactory
    ) -> List[LocationProfile]:
        grid_key = (epochs.representative_days, epochs.hours_per_epoch)
        missing: Dict[str, Location] = {}
        for location in locations:
            if (location.name,) + grid_key not in self._cache:
                missing.setdefault(location.name, location)
        pending = list(missing.values())
        chunks = [
            pending[start : start + PROFILE_CHUNK_SIZE]
            for start in range(0, len(pending), PROFILE_CHUNK_SIZE)
        ]
        if chunks:
            tasks = [self._chunk_task(chunk, epochs) for chunk in chunks]
            with factory.create(len(tasks)) as pool:
                futures = [pool.submit(build_profile_chunk, task) for task in tasks]
                for chunk, task, future in zip(chunks, tasks, futures):
                    series = result_with_serial_fallback(future, build_profile_chunk, task)
                    for location, alpha, beta, pue in zip(chunk, *series):
                        self._cache[(location.name,) + grid_key] = self._profile(
                            location, epochs, alpha, beta, pue
                        )
        return [self._cache[(location.name,) + grid_key] for location in locations]

    def _chunk_task(self, chunk: Sequence[Location], epochs: EpochGrid) -> ProfileChunkTask:
        return ProfileChunkTask(
            generator=self.catalog.tmy_generator,
            names=tuple(location.name for location in chunk),
            latitudes=tuple(location.point.latitude for location in chunk),
            climates=tuple(location.climate for location in chunk),
            shifts=tuple(int(round(location.point.longitude / 15.0)) for location in chunk),
            hour_indices=epochs.hour_indices(),
            solar_model=self.solar_model,
            wind_model=self.wind_model,
            pue_model=self.pue_model,
        )

    def _profile(
        self,
        location: Location,
        epochs: EpochGrid,
        alpha: np.ndarray,
        beta: np.ndarray,
        pue: np.ndarray,
    ) -> LocationProfile:
        """One location's profile: anchor calibrations and catalogue scalars."""
        overrides = location.overrides
        if overrides.solar_capacity_factor is not None:
            alpha = calibrate_series(alpha, overrides.solar_capacity_factor)
        if overrides.wind_capacity_factor is not None:
            beta = calibrate_series(beta, overrides.wind_capacity_factor)
        if overrides.max_pue is not None:
            pue = _calibrate_pue(pue, overrides.max_pue, self.pue_model.min_pue)
        return LocationProfile(
            location=location,
            epochs=epochs,
            solar_alpha=alpha,
            wind_beta=beta,
            pue=pue,
            land_price_per_m2=self.catalog.land_price_per_m2(location),
            energy_price_per_kwh=self.catalog.energy_price_per_kwh(location),
            distance_power_km=self.catalog.distance_to_power_km(location),
            distance_network_km=self.catalog.distance_to_network_km(location),
            near_plant_capacity_kw=self.catalog.near_plant_capacity_kw(location),
        )


def _calibrate_pue(pue: np.ndarray, target_max: float, floor: float) -> np.ndarray:
    """Rescale a PUE series so its maximum equals ``target_max`` (>= floor)."""
    target_max = max(target_max, floor)
    overhead = pue - 1.0
    peak = float(overhead.max())
    if peak <= 1e-9:
        return np.full_like(pue, target_max)
    scaled = 1.0 + overhead * ((target_max - 1.0) / peak)
    return np.maximum(scaled, 1.0)
