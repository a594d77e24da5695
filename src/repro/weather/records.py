"""TMY dataset container.

A Typical Meteorological Year is an hourly dataset (8760 hours) selected so
that its annual statistics match the long-term climate of a location.  Our
synthetic equivalent stores the four channels the framework needs:
temperature, global horizontal irradiance, wind speed and air pressure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

HOURS_PER_YEAR = 8760
DAYS_PER_YEAR = 365
HOURS_PER_DAY = 24


@dataclass
class TMYDataset:
    """One synthetic Typical Meteorological Year for a location.

    All arrays have :data:`HOURS_PER_YEAR` entries, hour 0 being 00:00 local
    solar time on January 1st — unless ``hours`` is given, in which case the
    dataset holds only those hours of the year and every channel has the
    shape of ``hours``.

    Attributes
    ----------
    temperature_c:
        Dry-bulb external temperature in degrees Celsius.
    ghi_w_m2:
        Global horizontal irradiance in W/m^2.
    wind_speed_m_s:
        Wind speed at hub height in m/s.
    pressure_kpa:
        Air pressure in kPa (used for air-density correction of wind power).
    hours:
        Hour-of-year index of each entry; ``None`` for the full year.
    """

    temperature_c: np.ndarray
    ghi_w_m2: np.ndarray
    wind_speed_m_s: np.ndarray
    pressure_kpa: np.ndarray
    hours: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.hours is None:
            shape = (HOURS_PER_YEAR,)
        else:
            self.hours = np.asarray(self.hours, dtype=int)
            if np.any((self.hours < 0) | (self.hours >= HOURS_PER_YEAR)):
                raise ValueError("hour indices must lie within the year")
            shape = self.hours.shape
        for name in ("temperature_c", "ghi_w_m2", "wind_speed_m_s", "pressure_kpa"):
            array = np.asarray(getattr(self, name), dtype=float)
            if array.shape != shape:
                raise ValueError(
                    f"TMY channel {name} must have shape {shape} (one value per hour), "
                    f"got shape {array.shape}"
                )
            setattr(self, name, array)
        if np.any(self.ghi_w_m2 < -1e-9):
            raise ValueError("irradiance cannot be negative")
        if np.any(self.wind_speed_m_s < -1e-9):
            raise ValueError("wind speed cannot be negative")
        if np.any(self.pressure_kpa <= 0):
            raise ValueError("pressure must be positive")

    @property
    def num_hours(self) -> int:
        return HOURS_PER_YEAR if self.hours is None else int(self.hours.size)

    def hour_of_year(self) -> np.ndarray:
        """Hour-of-year index (0..8759) of each entry."""
        return np.arange(HOURS_PER_YEAR) if self.hours is None else self.hours

    def hour_of_day(self) -> np.ndarray:
        """Hour-of-day index (0..23) for each entry."""
        return self.hour_of_year() % HOURS_PER_DAY

    def day_of_year(self) -> np.ndarray:
        """Day-of-year index (0..364) for each entry."""
        return self.hour_of_year() // HOURS_PER_DAY

    def select_days(self, day_indices) -> "TMYDataset":
        """Return a dataset view restricted to whole days (used by tests).

        The result is *not* a full TMY (fewer than 8760 hours), so it is
        returned as plain arrays in a dictionary rather than a TMYDataset.
        """
        if self.hours is not None:
            raise ValueError("select_days needs a full-year TMY")
        day_indices = np.asarray(day_indices, dtype=int)
        if np.any(day_indices < 0) or np.any(day_indices >= DAYS_PER_YEAR):
            raise ValueError("day indices must lie within the year")
        hour_mask = np.concatenate(
            [np.arange(d * HOURS_PER_DAY, (d + 1) * HOURS_PER_DAY) for d in day_indices]
        )
        return {
            "temperature_c": self.temperature_c[hour_mask],
            "ghi_w_m2": self.ghi_w_m2[hour_mask],
            "wind_speed_m_s": self.wind_speed_m_s[hour_mask],
            "pressure_kpa": self.pressure_kpa[hour_mask],
        }

    def summary(self) -> dict:
        """Annual summary statistics used in documentation and tests."""
        return {
            "mean_temperature_c": float(np.mean(self.temperature_c)),
            "max_temperature_c": float(np.max(self.temperature_c)),
            "mean_ghi_w_m2": float(np.mean(self.ghi_w_m2)),
            "mean_wind_speed_m_s": float(np.mean(self.wind_speed_m_s)),
            "mean_pressure_kpa": float(np.mean(self.pressure_kpa)),
        }
