from __future__ import annotations

import math

import numpy as np
import pytest

from qbackbone.geometry import (
    SatellitePassModel,
    StationPass,
    VisibilityWindow,
    elevation_at,
    slant_range_km,
    visibility_window,
)
from qbackbone.linkbudget import (
    AttenuationSample,
    FiberLink,
    FreeSpaceLinkParams,
    attenuation_profile,
    fiber_transmittance,
    freespace_transmittance,
)
from qbackbone.entanglement import FiberSource
from qbackbone.scenario import dark_fiber_source, fiber_source, satellite_source

DEFAULTS = FreeSpaceLinkParams()


class TestFiber:
    def test_zero_length(self):
        assert fiber_transmittance(FiberLink(0.0, 0.2)) == 1.0

    def test_frozen_values(self):
        assert fiber_transmittance(FiberLink(5.0, 0.2)) == pytest.approx(
            0.7943282347242815, abs=1e-5
        )
        assert fiber_transmittance(FiberLink(75.0, 0.16)) == pytest.approx(
            0.06309573444801933, abs=1e-5
        )

    def test_multiplicative(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            l1, l2 = rng.uniform(0.0, 200.0, size=2)
            alpha = float(rng.uniform(0.05, 0.5))
            combined = fiber_transmittance(FiberLink(l1 + l2, alpha))
            split = fiber_transmittance(FiberLink(float(l1), alpha)) * fiber_transmittance(
                FiberLink(float(l2), alpha)
            )
            assert combined == pytest.approx(split, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            FiberLink(-1.0, 0.2)
        with pytest.raises(ValueError):
            FiberLink(5.0, -0.2)


class TestFreespace:
    def test_below_service_elevation(self):
        assert freespace_transmittance(19.9, 500.0, DEFAULTS) == 0.0
        assert freespace_transmittance(0.0, 500.0, DEFAULTS) == 0.0
        assert freespace_transmittance(-5.0, 500.0, DEFAULTS) == 0.0

    def test_frozen_values(self):
        # factor-by-factor oracle evaluation with the default calibration
        assert freespace_transmittance(90.0, 500.0, DEFAULTS) == pytest.approx(
            0.07813595162214787, abs=1e-3
        )
        assert freespace_transmittance(76.0, 805.0, DEFAULTS) == pytest.approx(
            0.03249075545043249, abs=1e-3
        )

    def test_range_and_monotonicity_in_elevation(self):
        last = -1.0
        for el in np.linspace(0.0, 90.0, 91):
            eta = freespace_transmittance(float(el), 551.0, DEFAULTS)
            assert 0.0 <= eta < 1.0
            assert eta >= last
            last = eta

    def test_monotone_non_increasing_in_altitude(self):
        etas = [freespace_transmittance(45.0, float(h), DEFAULTS) for h in range(300, 1200, 50)]
        assert all(a >= b for a, b in zip(etas, etas[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            freespace_transmittance(91.0, 500.0, DEFAULTS)
        with pytest.raises(ValueError):
            freespace_transmittance(math.nan, 500.0, DEFAULTS)
        with pytest.raises(ValueError):
            freespace_transmittance(45.0, 0.0, DEFAULTS)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            FreeSpaceLinkParams(divergence_half_angle_rad=0.0)
        with pytest.raises(ValueError):
            FreeSpaceLinkParams(zenith_atmospheric_transmittance=1.5)
        with pytest.raises(ValueError):
            FreeSpaceLinkParams(system_efficiency=0.0)


class TestCoincidence:
    def test_trivial(self):
        assert fiber_source(arm_length_km=0.0).coincidence_probability(0.0) == 1.0
        assert satellite_source("Micius").coincidence_probability(128.0 + 5000.0) == 0.0

    def test_never_exceeds_smaller_arm(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            length_a, length_b = rng.uniform(0.0, 200.0, size=2)
            alpha = float(rng.uniform(0.0, 0.3))
            source = FiberSource(
                "f", FiberLink(float(length_a), alpha), FiberLink(float(length_b), alpha)
            )
            p = source.coincidence_probability(0.0)
            assert p <= min(source.transmittances(0.0)) + 1e-15
        micius = satellite_source("Micius")
        for t in rng.uniform(-200.0, 400.0, size=100):
            p = micius.coincidence_probability(float(t))
            assert p <= min(micius.transmittances(float(t))) + 1e-15

    def test_frozen_standard_fiber_split(self):
        assert fiber_source().coincidence_probability(0.0) == pytest.approx(9.99e-4, abs=1e-6)

    def test_peak_ordering_against_dark_fiber(self):
        # default-calibration ordering at the pass peaks
        dark = dark_fiber_source()
        standard = fiber_source()
        p_dark = dark.coincidence_probability(0.0)
        p_std = standard.coincidence_probability(0.0)
        micius = satellite_source("Micius")
        starlink = satellite_source("Starlink-2007")
        iridium = satellite_source("Iridium-126")
        p_micius = micius.coincidence_probability(128.0)
        p_starlink = starlink.coincidence_probability(199.0)
        p_iridium = iridium.coincidence_probability(328.0)
        assert p_micius > p_dark > p_iridium
        assert p_starlink > p_dark
        assert p_dark > p_std


class TestAttenuationProfile:
    def make_model(self):
        return SatellitePassModel(
            satellite_name="m",
            altitude_km=474.0,
            station_passes={"a": StationPass(83.0, 128.0), "b": StationPass(75.0, 128.0)},
        )

    def test_sample_count_inclusive_endpoints(self):
        model = self.make_model()
        window = VisibilityWindow(0.0, 256.0)
        samples = attenuation_profile(model, ("a", "b"), DEFAULTS, 2.0, window)
        assert len(samples) == 129
        assert samples[0].time_s == 0.0
        assert samples[-1].time_s == 256.0

    def test_peak_sample_elevation(self):
        model = self.make_model()
        samples = attenuation_profile(model, ("a", "b"), DEFAULTS, 2.0)
        peak = max(samples, key=lambda s: s.eta_a)
        assert peak.elevation_a_deg == pytest.approx(83.0, abs=0.1)

    def test_internal_consistency(self):
        model = self.make_model()
        samples = attenuation_profile(model, ("a", "b"), DEFAULTS, 2.0)
        for s in samples[:: max(1, len(samples) // 10)]:
            elevation = elevation_at(s.time_s, model, "a")
            assert s.elevation_a_deg == pytest.approx(elevation, abs=1e-9)
            assert s.range_a_km == pytest.approx(
                slant_range_km(elevation, model.altitude_km), rel=1e-12
            )
            assert s.eta_a == pytest.approx(
                freespace_transmittance(elevation, model.altitude_km, DEFAULTS), rel=1e-12
            )
            assert s.coincidence_probability == pytest.approx(s.eta_a * s.eta_b, rel=1e-12)

    def test_outside_visibility_is_zero(self):
        model = self.make_model()
        window = VisibilityWindow(5000.0, 5010.0)
        samples = attenuation_profile(model, ("a", "b"), DEFAULTS, 2.0, window)
        assert samples
        assert all(s.eta_a == 0.0 and s.eta_b == 0.0 for s in samples)

    def test_empty_window(self):
        model = SatellitePassModel(
            satellite_name="low",
            altitude_km=474.0,
            station_passes={"a": StationPass(15.0, 0.0), "b": StationPass(15.0, 0.0)},
        )
        assert attenuation_profile(model, ("a", "b"), DEFAULTS, 2.0) == []

    def test_profile_matches_visibility_gate(self):
        model = self.make_model()
        samples = attenuation_profile(model, ("a", "b"), DEFAULTS, 2.0)
        window = visibility_window(model, DEFAULTS.min_elevation_deg, ("a", "b"))
        assert samples[0].time_s == pytest.approx(window.start_s)
        for s in samples:
            assert s.eta_a > 0.0 or s.elevation_a_deg < DEFAULTS.min_elevation_deg + 1e-9
