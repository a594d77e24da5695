"""Deterministic synthetic TMY generation.

Each location is described by a :class:`ClimateProfile`; the
:class:`TMYGenerator` turns a profile into an hourly
:class:`~repro.weather.records.TMYDataset` that is fully deterministic for a
given ``(seed, location name)`` pair, so every run of the test-suite and the
benchmarks sees exactly the same "weather".  :meth:`TMYGenerator.generate_batch`
synthesizes many locations at once; each location's values do not depend on
the batch it is in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.weather.records import DAYS_PER_YEAR, HOURS_PER_DAY, HOURS_PER_YEAR, TMYDataset
from repro.weather.solar_geometry import clear_sky_irradiance


@dataclass(frozen=True)
class ClimateProfile:
    """Climate parameters of a synthetic location.

    Attributes
    ----------
    mean_temperature_c:
        Annual mean external temperature.
    seasonal_amplitude_c:
        Half peak-to-peak amplitude of the seasonal temperature cycle.
    diurnal_amplitude_c:
        Half peak-to-peak amplitude of the daily temperature cycle.
    cloudiness:
        Fraction in [0, 1]; 0 means permanently clear skies, 1 heavy overcast.
        It both attenuates irradiance and adds day-to-day variability.
    mean_wind_speed_m_s:
        Annual mean wind speed at hub height.
    wind_variability:
        Multiplicative day-to-day variability of wind (Weibull-like shape).
    wind_seasonality:
        Fraction in [0, 1]; how strongly wind follows a winter-peaked cycle.
    altitude_m:
        Site altitude, used to derive mean air pressure.
    """

    mean_temperature_c: float = 15.0
    seasonal_amplitude_c: float = 10.0
    diurnal_amplitude_c: float = 6.0
    cloudiness: float = 0.4
    mean_wind_speed_m_s: float = 5.0
    wind_variability: float = 0.5
    wind_seasonality: float = 0.3
    altitude_m: float = 200.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.cloudiness <= 1.0:
            raise ValueError("cloudiness must lie in [0, 1]")
        if self.mean_wind_speed_m_s < 0:
            raise ValueError("mean wind speed cannot be negative")
        if not 0.0 <= self.wind_seasonality <= 1.0:
            raise ValueError("wind seasonality must lie in [0, 1]")
        if self.wind_variability < 0:
            raise ValueError("wind variability cannot be negative")


#: The noise streams of one location, in the order they are drawn.
_STREAMS = (
    "temperature_daily",
    "temperature_hourly",
    "clearness_daily",
    "clearness_hourly",
    "wind_daily",
    "wind_hourly",
    "pressure_daily",
)


class TMYGenerator:
    """Generate deterministic synthetic TMY datasets.

    Parameters
    ----------
    seed:
        Global seed; combined with the location name so that each location has
        its own, but reproducible, weather noise.
    """

    def __init__(self, seed: int = 2014) -> None:
        self.seed = int(seed)

    # -- public API -------------------------------------------------------------
    def generate(
        self,
        name: str,
        latitude_deg: float,
        climate: ClimateProfile,
        hours: Optional[np.ndarray] = None,
    ) -> TMYDataset:
        """Generate the TMY for one location.

        ``hours`` (hour-of-year indices, any shape) restricts the channel
        arithmetic to those hours; ``None`` means the full year.  The random
        streams are drawn in full and in the same order either way, so the
        value at an hour never depends on which other hours were asked for.
        This is the one-location case of :meth:`generate_batch`.
        """
        full_year = hours is None
        hours = np.arange(HOURS_PER_YEAR) if full_year else np.asarray(hours)
        batch = self.generate_batch((name,), (latitude_deg,), (climate,), hours[None])
        return TMYDataset(
            temperature_c=batch.temperature_c[0],
            ghi_w_m2=batch.ghi_w_m2[0],
            wind_speed_m_s=batch.wind_speed_m_s[0],
            pressure_kpa=batch.pressure_kpa[0],
            hours=None if full_year else hours,
        )

    def generate_batch(
        self,
        names: Sequence[str],
        latitudes_deg: Sequence[float],
        climates: Sequence[ClimateProfile],
        hours: np.ndarray,
    ) -> TMYDataset:
        """The TMYs of several locations at once, with a leading location axis.

        ``hours`` has shape ``(locations, ...)``: row ``i`` holds the
        hour-of-year indices read for location ``i``, and every channel of
        the result has the shape of ``hours``.  Each location's random
        streams are drawn in full and in the same order as for a lone
        location, so row ``i`` is bit-identical to ``generate(names[i], ...)``
        at ``hours[i]``; only the channel arithmetic runs once over the batch.
        """
        hours = np.asarray(hours)
        count = len(names)
        if not count == len(latitudes_deg) == len(climates) == hours.shape[0]:
            raise ValueError("names, latitudes, climates and hours need one row per location")
        day_of_year = hours // HOURS_PER_DAY
        hour_of_day = hours % HOURS_PER_DAY
        noise = self._draw(names, climates, hours, day_of_year)

        # Per-location parameters as columns that broadcast over each row.
        def column(values: Sequence[float]) -> np.ndarray:
            return np.asarray(values, dtype=float).reshape((count,) + (1,) * (hours.ndim - 1))

        latitude = column(latitudes_deg)
        northern = latitude >= 0
        # The seasonal temperature cycle peaks in mid-summer: around day 200
        # in the northern hemisphere and day 20 in the southern hemisphere.
        # The diurnal cycle peaks mid-afternoon (15:00) and bottoms before dawn.
        seasonal = column([c.seasonal_amplitude_c for c in climates]) * np.cos(
            2.0 * math.pi * (day_of_year - np.where(northern, 200.0, 20.0)) / DAYS_PER_YEAR
        )
        diurnal = column([c.diurnal_amplitude_c for c in climates]) * np.cos(
            2.0 * math.pi * (hour_of_day - 15.0) / 24.0
        )
        temperature = (
            column([c.mean_temperature_c for c in climates])
            + seasonal
            + diurnal
            + noise["temperature_daily"]
            + noise["temperature_hourly"]
        )

        # Day-to-day clearness index: cloudy locations lose more energy and
        # see larger swings between overcast and clear days.
        clear = clear_sky_irradiance(latitude, day_of_year, hour_of_day)
        base_clearness = column([1.0 - 0.65 * c.cloudiness for c in climates])
        clearness = 0.5 * base_clearness + 0.5 * np.clip(noise["clearness_daily"], 0.05, 1.0)
        flicker = np.clip(noise["clearness_hourly"], 0.7, 1.2)
        ghi = np.maximum(0.0, clear * clearness * flicker)

        # Wind tends to peak in winter, with day-scale lognormal variability
        # approximating a Weibull distribution.
        wind_seasonal = 1.0 + column([c.wind_seasonality for c in climates]) * np.cos(
            2.0 * math.pi * (day_of_year - np.where(northern, 15.0, 195.0)) / DAYS_PER_YEAR
        )
        wind_diurnal = 1.0 + 0.15 * np.cos(2.0 * math.pi * (hour_of_day - 14.0) / 24.0)
        wind = np.maximum(
            0.0,
            column([c.mean_wind_speed_m_s for c in climates])
            * wind_seasonal
            * wind_diurnal
            * noise["wind_daily"]
            * np.clip(noise["wind_hourly"], 0.3, 2.0),
        )

        # Barometric formula for the mean plus small synoptic noise.  The mean
        # is a Python scalar per location (math.exp, not np.exp, whose last
        # bit can differ).
        mean_pressure = column(
            [101.325 * math.exp(-max(0.0, c.altitude_m) / 8434.0) for c in climates]
        )
        pressure = np.maximum(50.0, mean_pressure + noise["pressure_daily"])
        return TMYDataset(
            temperature_c=temperature,
            ghi_w_m2=ghi,
            wind_speed_m_s=wind,
            pressure_kpa=pressure,
            hours=hours,
        )

    # -- random streams ---------------------------------------------------------
    def _draw(
        self,
        names: Sequence[str],
        climates: Sequence[ClimateProfile],
        hours: np.ndarray,
        day_of_year: np.ndarray,
    ) -> Dict[str, np.ndarray]:
        """Every location's noise streams, read at its days and hours.

        Each location draws its daily and hourly streams for the whole year,
        in a fixed order, and only then reads them at the requested days and
        hours: the streams, and so the values, never depend on which hours
        are asked for.  The draws are the per-location floor of the batch;
        numpy's generators release the GIL while they fill an array.
        """
        noise = {stream: np.empty(hours.shape) for stream in _STREAMS}
        for row, (name, climate) in enumerate(zip(names, climates)):
            rng = self._rng(name)
            days, hours_row = day_of_year[row], hours[row]
            noise["temperature_daily"][row] = rng.normal(0.0, 1.5, DAYS_PER_YEAR)[days]
            noise["temperature_hourly"][row] = rng.normal(0.0, 0.4, HOURS_PER_YEAR)[hours_row]
            noise["clearness_daily"][row] = rng.beta(
                4.0 * (1.0 - climate.cloudiness) + 1.0,
                4.0 * climate.cloudiness + 1.0,
                DAYS_PER_YEAR,
            )[days]
            noise["clearness_hourly"][row] = rng.normal(1.0, 0.05, HOURS_PER_YEAR)[hours_row]
            noise["wind_daily"][row] = rng.lognormal(
                mean=-0.5 * climate.wind_variability**2,
                sigma=climate.wind_variability,
                size=DAYS_PER_YEAR,
            )[days]
            noise["wind_hourly"][row] = rng.normal(1.0, 0.15, HOURS_PER_YEAR)[hours_row]
            noise["pressure_daily"][row] = rng.normal(0.0, 0.6, DAYS_PER_YEAR)[days]
        return noise

    # -- helpers ----------------------------------------------------------------
    def _rng(self, name: str) -> np.random.Generator:
        digest = 0
        for char in name:
            digest = (digest * 131 + ord(char)) % (2**31)
        return np.random.default_rng((self.seed * 1_000_003 + digest) % (2**63))
