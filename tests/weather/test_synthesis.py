"""Tests for the synthetic TMY generator."""

import numpy as np
import pytest

from oracles import reference_tmy
from repro.weather import ClimateProfile, TMYGenerator
from repro.weather.records import HOURS_PER_YEAR, TMYDataset

CHANNELS = ("temperature_c", "ghi_w_m2", "wind_speed_m_s", "pressure_kpa")


@pytest.fixture(scope="module")
def generator():
    return TMYGenerator(seed=42)


@pytest.fixture(scope="module")
def temperate(generator):
    return generator.generate("temperate", 45.0, ClimateProfile())


class TestClimateProfile:
    def test_invalid_cloudiness(self):
        with pytest.raises(ValueError):
            ClimateProfile(cloudiness=1.5)

    def test_negative_wind_rejected(self):
        with pytest.raises(ValueError):
            ClimateProfile(mean_wind_speed_m_s=-1.0)

    def test_invalid_wind_seasonality(self):
        with pytest.raises(ValueError):
            ClimateProfile(wind_seasonality=2.0)


class TestTMYGeneration:
    def test_shape_and_type(self, temperate):
        assert isinstance(temperate, TMYDataset)
        assert temperate.temperature_c.shape == (HOURS_PER_YEAR,)
        assert temperate.ghi_w_m2.shape == (HOURS_PER_YEAR,)

    def test_determinism(self, generator):
        a = generator.generate("repeat", 30.0, ClimateProfile())
        b = generator.generate("repeat", 30.0, ClimateProfile())
        np.testing.assert_array_equal(a.temperature_c, b.temperature_c)
        np.testing.assert_array_equal(a.wind_speed_m_s, b.wind_speed_m_s)

    def test_different_locations_differ(self, generator):
        a = generator.generate("first", 30.0, ClimateProfile())
        b = generator.generate("second", 30.0, ClimateProfile())
        assert not np.array_equal(a.ghi_w_m2, b.ghi_w_m2)

    def test_mean_temperature_close_to_profile(self, generator):
        climate = ClimateProfile(mean_temperature_c=20.0)
        tmy = generator.generate("temp-check", 10.0, climate)
        assert np.mean(tmy.temperature_c) == pytest.approx(20.0, abs=1.5)

    def test_irradiance_nonnegative_and_zero_at_night(self, temperate):
        assert np.all(temperate.ghi_w_m2 >= 0.0)
        # Local midnight (hour 0 of each day) should have no sun at 45 deg latitude.
        midnights = temperate.ghi_w_m2[::24]
        assert np.all(midnights == 0.0)

    def test_summer_sunnier_than_winter_northern_hemisphere(self, temperate):
        daily = temperate.ghi_w_m2.reshape(365, 24).sum(axis=1)
        july = daily[182:212].mean()
        january = daily[0:30].mean()
        assert july > january

    def test_wind_mean_tracks_profile(self, generator):
        low = generator.generate("low-wind", 40.0, ClimateProfile(mean_wind_speed_m_s=3.0))
        high = generator.generate("high-wind", 40.0, ClimateProfile(mean_wind_speed_m_s=9.0))
        assert np.mean(high.wind_speed_m_s) > np.mean(low.wind_speed_m_s)

    def test_pressure_decreases_with_altitude(self, generator):
        sea = generator.generate("sea", 0.0, ClimateProfile(altitude_m=0.0))
        mountain = generator.generate("mountain", 0.0, ClimateProfile(altitude_m=2500.0))
        assert np.mean(mountain.pressure_kpa) < np.mean(sea.pressure_kpa)

    def test_cloudier_sites_produce_less_irradiance(self, generator):
        clear = generator.generate("clear", 30.0, ClimateProfile(cloudiness=0.1))
        cloudy = generator.generate("cloudy", 30.0, ClimateProfile(cloudiness=0.8))
        assert clear.ghi_w_m2.mean() > cloudy.ghi_w_m2.mean()

    @pytest.mark.parametrize("latitude", [45.0, -30.0])
    def test_hour_subset_is_bit_identical_to_full_year(self, generator, latitude):
        climate = ClimateProfile(cloudiness=0.6, wind_variability=0.7)
        full = generator.generate("subset", latitude, climate)
        rng = np.random.default_rng(5)
        for hours in (
            rng.integers(0, HOURS_PER_YEAR, 50),  # unsorted, with repeats
            np.arange(24 * 100, 24 * 102).reshape(8, 6),  # the (epochs, hours) layout
            np.array([0, HOURS_PER_YEAR - 1]),
        ):
            subset = generator.generate("subset", latitude, climate, hours)
            assert subset.num_hours == hours.size
            np.testing.assert_array_equal(subset.hour_of_year(), hours)
            for channel in ("temperature_c", "ghi_w_m2", "wind_speed_m_s", "pressure_kpa"):
                got = getattr(subset, channel)
                assert got.shape == hours.shape
                assert got.tobytes() == getattr(full, channel)[hours].tobytes(), channel

    def test_full_year_matches_the_per_location_reference(self, generator):
        for name, latitude, climate in (
            ("north", 52.0, ClimateProfile(cloudiness=0.7, altitude_m=1200.0)),
            ("south", -33.0, ClimateProfile(wind_variability=0.9, wind_seasonality=0.8)),
            ("equator", 0.0, ClimateProfile(altitude_m=-30.0)),
        ):
            got = generator.generate(name, latitude, climate)
            want = reference_tmy(generator, name, latitude, climate)
            for channel in CHANNELS:
                assert getattr(got, channel).tobytes() == getattr(want, channel).tobytes(), channel

    def test_batch_rows_are_bit_identical_to_lone_locations(self, generator):
        names = ("a", "b", "c", "d")
        latitudes = (61.0, -12.5, 0.0, 35.0)
        climates = (
            ClimateProfile(),
            ClimateProfile(cloudiness=0.9, mean_wind_speed_m_s=8.0),
            ClimateProfile(wind_variability=0.0, altitude_m=3000.0),
            ClimateProfile(mean_temperature_c=28.0, seasonal_amplitude_c=2.0),
        )
        # A different (epochs, hours) block per location, like UTC shifts.
        shifts = np.array([0, 5, -7, 300])[:, None, None]
        hours = (np.arange(24 * 40, 24 * 41).reshape(8, 3)[None] + shifts) % HOURS_PER_YEAR
        batch = generator.generate_batch(names, latitudes, climates, hours)
        assert batch.hours.shape == hours.shape
        for row, (name, latitude, climate) in enumerate(zip(names, latitudes, climates)):
            alone = generator.generate(name, latitude, climate, hours[row])
            for channel in CHANNELS:
                got = getattr(batch, channel)[row]
                assert got.shape == hours[row].shape
                assert got.tobytes() == getattr(alone, channel).tobytes(), (name, channel)

    def test_batch_needs_one_row_per_location(self, generator):
        with pytest.raises(ValueError, match="one row per location"):
            generator.generate_batch(
                ("a", "b"), (1.0, 2.0), (ClimateProfile(),) * 2, np.zeros((3, 4), dtype=int)
            )


class TestTMYDatasetValidation:
    def test_wrong_length_rejected(self):
        short = np.zeros(100)
        full = np.full(HOURS_PER_YEAR, 100.0)
        with pytest.raises(ValueError):
            TMYDataset(short, full, full, full)

    def test_negative_irradiance_rejected(self):
        full = np.full(HOURS_PER_YEAR, 10.0)
        bad = np.full(HOURS_PER_YEAR, -1.0)
        with pytest.raises(ValueError):
            TMYDataset(full, bad, full, full)

    def test_nonpositive_pressure_rejected(self):
        full = np.full(HOURS_PER_YEAR, 10.0)
        zero = np.zeros(HOURS_PER_YEAR)
        with pytest.raises(ValueError):
            TMYDataset(full, full, full, zero)

    def test_hour_subset_validation(self):
        values = np.full(3, 10.0)
        subset = TMYDataset(values, values, values, values, hours=[25, 26, 27])
        assert subset.day_of_year().tolist() == [1, 1, 1]
        assert subset.hour_of_day().tolist() == [1, 2, 3]
        with pytest.raises(ValueError):
            subset.select_days([0])
        with pytest.raises(ValueError):
            TMYDataset(values, values, values, values, hours=[0, 1])
        with pytest.raises(ValueError):
            TMYDataset(values, values, values, values, hours=[0, 1, HOURS_PER_YEAR])

    def test_day_and_hour_indices(self, temperate):
        assert temperate.hour_of_day()[25] == 1
        assert temperate.day_of_year()[25] == 1

    def test_select_days(self, temperate):
        subset = temperate.select_days([0, 10])
        assert subset["temperature_c"].shape == (48,)
        with pytest.raises(ValueError):
            temperate.select_days([400])

    def test_summary_keys(self, temperate):
        summary = temperate.summary()
        assert set(summary) == {
            "mean_temperature_c",
            "max_temperature_c",
            "mean_ghi_w_m2",
            "mean_wind_speed_m_s",
            "mean_pressure_kpa",
        }
