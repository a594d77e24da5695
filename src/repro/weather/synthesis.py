"""Deterministic synthetic TMY generation.

Each location is described by a :class:`ClimateProfile`; the
:class:`TMYGenerator` turns a profile into an hourly
:class:`~repro.weather.records.TMYDataset` that is fully deterministic for a
given ``(seed, location name)`` pair, so every run of the test-suite and the
benchmarks sees exactly the same "weather".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

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
        """
        rng = self._rng(name)
        full_year = hours is None
        hours = np.arange(HOURS_PER_YEAR) if full_year else np.asarray(hours)
        day_of_year = hours // HOURS_PER_DAY
        hour_of_day = hours % HOURS_PER_DAY

        temperature = self._temperature(latitude_deg, climate, hours, day_of_year, hour_of_day, rng)
        ghi = self._irradiance(latitude_deg, climate, hours, day_of_year, hour_of_day, rng)
        wind = self._wind(latitude_deg, climate, hours, day_of_year, hour_of_day, rng)
        pressure = self._pressure(climate, day_of_year, rng)
        return TMYDataset(
            temperature_c=temperature,
            ghi_w_m2=ghi,
            wind_speed_m_s=wind,
            pressure_kpa=pressure,
            hours=None if full_year else hours,
        )

    # -- channels ---------------------------------------------------------------
    # Each channel draws its daily and hourly noise for the whole year, in a
    # fixed order, and only then reads it at the requested days and hours:
    # the streams, and so the values, never depend on which hours are asked for.
    def _temperature(
        self,
        latitude_deg: float,
        climate: ClimateProfile,
        hours: np.ndarray,
        day_of_year: np.ndarray,
        hour_of_day: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        # Seasonal cycle peaks in mid-summer: around day 200 in the northern
        # hemisphere and day 20 in the southern hemisphere.
        peak_day = 200.0 if latitude_deg >= 0 else 20.0
        seasonal = climate.seasonal_amplitude_c * np.cos(
            2.0 * math.pi * (day_of_year - peak_day) / DAYS_PER_YEAR
        )
        # Diurnal cycle peaks mid-afternoon (15:00) and bottoms before dawn.
        diurnal = climate.diurnal_amplitude_c * np.cos(2.0 * math.pi * (hour_of_day - 15.0) / 24.0)
        daily_noise = rng.normal(0.0, 1.5, DAYS_PER_YEAR)[day_of_year]
        hourly_noise = rng.normal(0.0, 0.4, HOURS_PER_YEAR)[hours]
        return climate.mean_temperature_c + seasonal + diurnal + daily_noise + hourly_noise

    def _irradiance(
        self,
        latitude_deg: float,
        climate: ClimateProfile,
        hours: np.ndarray,
        day_of_year: np.ndarray,
        hour_of_day: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        clear = clear_sky_irradiance(latitude_deg, day_of_year, hour_of_day)
        # Day-to-day clearness index: cloudy locations lose more energy and
        # see larger swings between overcast and clear days.
        base_clearness = 1.0 - 0.65 * climate.cloudiness
        daily_clearness = rng.beta(
            4.0 * (1.0 - climate.cloudiness) + 1.0, 4.0 * climate.cloudiness + 1.0, DAYS_PER_YEAR
        )
        clearness = 0.5 * base_clearness + 0.5 * np.clip(daily_clearness[day_of_year], 0.05, 1.0)
        hourly_flicker = np.clip(rng.normal(1.0, 0.05, HOURS_PER_YEAR)[hours], 0.7, 1.2)
        return np.maximum(0.0, clear * clearness * hourly_flicker)

    def _wind(
        self,
        latitude_deg: float,
        climate: ClimateProfile,
        hours: np.ndarray,
        day_of_year: np.ndarray,
        hour_of_day: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        peak_day = 15.0 if latitude_deg >= 0 else 195.0  # wind tends to peak in winter
        seasonal = 1.0 + climate.wind_seasonality * np.cos(
            2.0 * math.pi * (day_of_year - peak_day) / DAYS_PER_YEAR
        )
        diurnal = 1.0 + 0.15 * np.cos(2.0 * math.pi * (hour_of_day - 14.0) / 24.0)
        # Day-scale lognormal variability approximating a Weibull distribution.
        daily = rng.lognormal(
            mean=-0.5 * climate.wind_variability**2,
            sigma=climate.wind_variability,
            size=DAYS_PER_YEAR,
        )[day_of_year]
        hourly = np.clip(rng.normal(1.0, 0.15, HOURS_PER_YEAR)[hours], 0.3, 2.0)
        wind = climate.mean_wind_speed_m_s * seasonal * diurnal * daily * hourly
        return np.maximum(0.0, wind)

    def _pressure(
        self,
        climate: ClimateProfile,
        day_of_year: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        # Barometric formula for the mean plus small synoptic noise.
        sea_level_kpa = 101.325
        scale_height_m = 8434.0
        mean_pressure = sea_level_kpa * math.exp(-max(0.0, climate.altitude_m) / scale_height_m)
        noise = rng.normal(0.0, 0.6, DAYS_PER_YEAR)[day_of_year]
        return np.maximum(50.0, mean_pressure + noise)

    # -- helpers ----------------------------------------------------------------
    def _rng(self, name: str) -> np.random.Generator:
        digest = 0
        for char in name:
            digest = (digest * 131 + ord(char)) % (2**31)
        return np.random.default_rng((self.seed * 1_000_003 + digest) % (2**63))
