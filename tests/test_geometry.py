from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from qbackbone.geometry import (
    EARTH_RADIUS_KM,
    SatellitePassModel,
    StationPass,
    central_angle_rad,
    elevation_profile,
    service_interval,
    slant_range_km,
    visibility_window,
)
from qbackbone.scenario import satellite_source


def twin_model(
    altitude_km: float, peak_elevation_deg: float, peak_time_s: float = 0.0
) -> SatellitePassModel:
    """A pass seen identically from the egress and the ingress station."""
    station = StationPass(peak_elevation_deg, peak_time_s)
    return SatellitePassModel(altitude_km, egress=station, ingress=station)


def elevation_at(t_s: float, model: SatellitePassModel, station: StationPass) -> float | None:
    """``elevation_profile`` at one instant."""
    (elevation,) = elevation_profile([t_s], model, station)
    return elevation


def micius_model(altitude_km: float = 480.0, peak_time_s: float = 0.0) -> SatellitePassModel:
    return twin_model(altitude_km, 83.0, peak_time_s)


class TestSlantRange:
    def test_zenith_equals_altitude(self):
        assert slant_range_km(90.0, 500.0) == pytest.approx(500.0)

    def test_frozen_values(self):
        # brute-force oracle: law of cosines through the central angle
        assert slant_range_km(20.0, 500.0) == pytest.approx(1192.7971987277233, abs=0.1)
        assert slant_range_km(0.0, 500.0) == pytest.approx(2573.130389234094, abs=0.1)

    def test_law_of_cosines_oracle(self):
        re = EARTH_RADIUS_KM
        for el in (0.0, 5.0, 20.0, 45.0, 76.0, 90.0):
            for h in (474.0, 551.0, 804.0):
                gamma = central_angle_rad(el, h)
                r = re + h
                chord = math.sqrt(re**2 + r**2 - 2 * re * r * math.cos(gamma))
                assert slant_range_km(el, h) == pytest.approx(chord, rel=1e-12)

    def test_bounds(self):
        h = 500.0
        horizon = slant_range_km(0.0, h)
        for el in np.linspace(0.0, 90.0, 19):
            assert h <= slant_range_km(float(el), h) <= horizon

    def test_strictly_decreasing_in_elevation(self):
        values = [slant_range_km(float(el), 551.0) for el in np.linspace(0.0, 90.0, 91)]
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize(
        "elevation,altitude",
        [(-1.0, 500.0), (91.0, 500.0), (math.nan, 500.0), (45.0, 0.0), (45.0, -10.0)],
    )
    def test_domain_errors(self, elevation, altitude):
        with pytest.raises(ValueError):
            slant_range_km(elevation, altitude)


class TestCentralAngle:
    def test_zenith_is_zero(self):
        assert central_angle_rad(90.0, 480.0) == pytest.approx(0.0, abs=1e-12)
        assert central_angle_rad(90.0, 804.0) == pytest.approx(0.0, abs=1e-12)

    def test_frozen_values(self):
        assert central_angle_rad(20.0, 480.0) == pytest.approx(0.15865440553324411, abs=1e-4)
        assert central_angle_rad(76.0, 805.0) == pytest.approx(0.02787622957139324, abs=1e-4)

    def test_strictly_decreasing_in_elevation(self):
        values = [central_angle_rad(float(el), 480.0) for el in np.linspace(0.0, 90.0, 91)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            central_angle_rad(100.0, 480.0)


class TestElevationAt:
    def test_peak_by_construction(self):
        model = micius_model()
        assert elevation_at(0.0, model, model.egress) == pytest.approx(83.0, abs=1e-9)

    def test_symmetry_and_monotonicity(self):
        model = micius_model(peak_time_s=100.0)
        offsets = np.linspace(0.0, 140.0, 15)
        rising = [elevation_at(100.0 - float(dt), model, model.egress) for dt in offsets]
        falling = [elevation_at(100.0 + float(dt), model, model.egress) for dt in offsets]
        for r, f in zip(rising, falling):
            assert r == pytest.approx(f, abs=1e-9)
        assert all(a > b for a, b in zip(rising, rising[1:]))

    def test_mask_crossing_time(self):
        # half of the 20 degree window for an 83 degree, 480 km pass
        half = 142.2921202994694
        model = micius_model()
        assert elevation_at(half, model, model.egress) == pytest.approx(20.0, abs=1e-6)
        assert elevation_at(-half, model, model.egress) == pytest.approx(20.0, abs=1e-6)
        assert elevation_at(142.4, model, model.egress) == pytest.approx(20.0, abs=0.5)

    def test_below_horizon(self):
        model = micius_model()
        assert elevation_at(10000.0, model, model.egress) is None
        assert elevation_at(-10000.0, model, model.ingress) is None

    def test_pass_does_not_repeat_after_one_period(self):
        model = satellite_source("Micius").pass_model
        period = 2.0 * math.pi / model.angular_rate_rad_s
        peak = model.egress.peak_time_s
        assert elevation_at(peak, model, model.egress) == pytest.approx(83.0, abs=1e-9)
        for t in (peak + period, peak - period, peak + 2.0 * period, peak + 0.75 * period):
            assert elevation_at(t, model, model.egress) is None

    def test_profile_is_pointwise(self):
        model = micius_model(peak_time_s=100.0)
        times = np.linspace(-300.0, 500.0, 81).tolist()
        profile = elevation_profile(times, model, model.ingress)
        assert profile == [elevation_at(t, model, model.ingress) for t in times]
        assert None in profile and profile[40] == elevation_at(100.0, model, model.ingress)
        with pytest.raises(ValueError):
            elevation_profile([0.0, math.inf], model, model.egress)

    def test_zenith_pass(self):
        model = twin_model(500.0, 90.0)
        assert elevation_at(0.0, model, model.egress) == pytest.approx(90.0)

    def test_slant_range_round_trip(self):
        # range from the orbit geometry equals the closed form at theta(t)
        model = micius_model(peak_time_s=0.0)
        re = EARTH_RADIUS_KM
        r = model.orbit_radius_km
        gamma_min = central_angle_rad(83.0, model.altitude_km)
        for t in np.linspace(-140.0, 140.0, 29):
            theta = elevation_at(float(t), model, model.egress)
            assert theta is not None
            cos_gamma = math.cos(gamma_min) * math.cos(model.angular_rate_rad_s * float(t))
            chord = math.sqrt(re**2 + r**2 - 2 * re * r * cos_gamma)
            assert slant_range_km(theta, model.altitude_km) == pytest.approx(chord, rel=1e-6)


class TestVisibilityWindow:
    def test_single_station_equals_intersection_with_itself(self):
        # A zenith pass at one station is visible longer than the 83 degree
        # pass at the other, so the joint window, in either role order, is
        # the 83 degree station's window intersected with itself.
        twin = micius_model()
        wider = dataclasses.replace(twin, ingress=StationPass(90.0, 0.0))
        swapped = dataclasses.replace(wider, egress=wider.ingress, ingress=wider.egress)
        assert visibility_window(wider, 20.0) == visibility_window(twin, 20.0)
        assert visibility_window(swapped, 20.0) == visibility_window(twin, 20.0)
        zenith_start, zenith_end = visibility_window(twin_model(480.0, 90.0), 20.0)
        start, end = visibility_window(twin, 20.0)
        assert zenith_end - zenith_start > end - start

    def test_frozen_durations(self):
        micius = micius_model(480.0)
        start, end = visibility_window(micius, 20.0)
        assert end - start == pytest.approx(284.5842405989388, abs=0.01)
        assert end - start == pytest.approx(284.8, abs=1.0)

        start, end = visibility_window(twin_model(551.0, 88.0), 20.0)
        assert end - start == pytest.approx(322.4976985659435, abs=0.01)
        assert end - start == pytest.approx(322.5, abs=1.0)

    def test_mask_nesting(self):
        model = micius_model()
        wide_start, wide_end = visibility_window(model, 1.0)
        narrow_start, narrow_end = visibility_window(model, 20.0)
        assert wide_start < narrow_start
        assert wide_end > narrow_end

    def test_empty_when_mask_exceeds_peak(self):
        model = micius_model()
        assert visibility_window(model, 89.0) is None

    def test_disjoint_station_windows(self):
        model = SatellitePassModel(480.0, StationPass(83.0, 0.0), StationPass(83.0, 10000.0))
        assert visibility_window(model, 20.0) is None

    def test_service_interval_covers_window(self):
        model = SatellitePassModel(480.0, StationPass(83.0, 0.0), StationPass(75.0, 30.0))
        window_start, window_end = visibility_window(model, 20.0)
        start, end = service_interval(model, 20.0)
        assert start < window_start < window_end < end
        assert window_start - start < 1e-3 and end - window_end < 1e-3
        # a mask above both peaks still keeps each station's peak instant
        start, end = service_interval(twin_model(480.0, 30.0, 7.0), 31.0)
        assert start < 7.0 < end
        assert service_interval(model, 80.0)[0] > service_interval(model, 80.0)[1]

    def test_invalid_mask(self):
        with pytest.raises(ValueError):
            visibility_window(micius_model(), 0.0)


class TestValidation:
    def test_pass_model_invariants(self):
        with pytest.raises(ValueError):
            SatellitePassModel(-5.0, StationPass(45.0, 0.0), StationPass(45.0, 0.0))
        with pytest.raises(ValueError):
            StationPass(0.0, 0.0)
        with pytest.raises(ValueError):
            StationPass(95.0, 0.0)

    def test_angular_rate_positive_finite(self):
        model = micius_model()
        assert 0.0 < model.angular_rate_rad_s < 1.0
        assert math.isfinite(model.angular_rate_rad_s)
