from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _reference
from qbackbone.cli import main
from qbackbone.entanglement import FiberSource, SatelliteSource, coincidence_matrix
from qbackbone.geometry import (
    SatellitePassModel,
    StationPass,
    service_interval,
    slant_range_km,
    visibility_window,
)
from qbackbone.linkbudget import (
    DARK_FIBER_DB_PER_KM,
    FiberLink,
    FreeSpaceLinkParams,
    downlink_profile,
    fiber_transmittance,
)
from qbackbone.scenario import (
    ScenarioConfig,
    config_to_dict,
    fiber_source,
    satellite_source,
)

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
        assert _reference.freespace_transmittance(19.9, 500.0, DEFAULTS) == 0.0
        assert _reference.freespace_transmittance(0.0, 500.0, DEFAULTS) == 0.0
        assert _reference.freespace_transmittance(-5.0, 500.0, DEFAULTS) == 0.0

    def test_frozen_values(self):
        # factor-by-factor oracle evaluation with the default calibration
        assert _reference.freespace_transmittance(90.0, 500.0, DEFAULTS) == pytest.approx(
            0.07813595162214787, abs=1e-3
        )
        assert _reference.freespace_transmittance(76.0, 805.0, DEFAULTS) == pytest.approx(
            0.03249075545043249, abs=1e-3
        )

    def test_range_and_monotonicity_in_elevation(self):
        last = -1.0
        for el in np.linspace(0.0, 90.0, 91):
            eta = _reference.freespace_transmittance(float(el), 551.0, DEFAULTS)
            assert 0.0 <= eta < 1.0
            assert eta >= last
            last = eta

    def test_monotone_non_increasing_in_altitude(self):
        etas = [
            _reference.freespace_transmittance(45.0, float(h), DEFAULTS)
            for h in range(300, 1200, 50)
        ]
        assert all(a >= b for a, b in zip(etas, etas[1:]))

    def test_param_validation(self):
        with pytest.raises(ValueError):
            FreeSpaceLinkParams(divergence_half_angle_rad=0.0)
        with pytest.raises(ValueError):
            FreeSpaceLinkParams(zenith_atmospheric_transmittance=1.5)
        with pytest.raises(ValueError):
            FreeSpaceLinkParams(system_efficiency=0.0)
        # The one check of the mask range; visibility_window trusts it.
        for mask in (0.0, 90.0):
            with pytest.raises(ValueError):
                FreeSpaceLinkParams(min_elevation_deg=mask)


def probability(source, t_s: float) -> float:
    return float(coincidence_matrix((source,), np.array([t_s]))[0, 0])


def profile(tmp_path, capsys, source, step_s: float = 2.0) -> list[dict[str, float | None]]:
    """Rows of ``qbackbone linkbudget`` for ``source``, empty cells as None."""
    config = ScenarioConfig(sources=(source,), channel_step_s=step_s, bin_width_s=step_s)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config_to_dict(config)))
    assert main(["linkbudget", "--config", str(path), "--source", source.source_id]) == 0
    rows = csv.DictReader(io.StringIO(capsys.readouterr().out))
    return [{k: float(v) if v else None for k, v in row.items()} for row in rows]


class TestCoincidence:
    def test_trivial(self):
        assert probability(fiber_source(arm_length_km=0.0), 0.0) == 1.0
        assert probability(satellite_source("Micius"), 128.0 + 5000.0) == 0.0

    def test_never_exceeds_smaller_arm(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            length = float(rng.uniform(0.0, 200.0))
            alpha = float(rng.uniform(0.0, 0.3))
            source = FiberSource("f", FiberLink(length, alpha))
            eta = fiber_transmittance(source.arm)
            assert probability(source, 0.0) == eta * eta
            assert probability(source, 0.0) <= eta + 1e-15
        micius = satellite_source("Micius")
        model = micius.pass_model
        times = np.sort(rng.uniform(-200.0, 400.0, size=100))
        p = coincidence_matrix((micius,), times)[:, 0]
        (_, _, etas_a), (_, _, etas_b) = (
            downlink_profile(times.tolist(), model, station, micius.link_params)
            for station in (model.egress, model.ingress)
        )
        for p_t, a, b in zip(p.tolist(), etas_a, etas_b):
            assert p_t == a * b
            assert p_t <= min(a, b) + 1e-15

    def test_frozen_standard_fiber_split(self):
        assert probability(fiber_source(), 0.0) == pytest.approx(9.99e-4, abs=1e-6)

    def test_peak_ordering_against_dark_fiber(self):
        # default-calibration ordering at the pass peaks
        p_dark = probability(fiber_source("fiber-dark", DARK_FIBER_DB_PER_KM), 0.0)
        p_std = probability(fiber_source(), 0.0)
        p_micius = probability(satellite_source("Micius"), 128.0)
        p_starlink = probability(satellite_source("Starlink-2007"), 199.0)
        p_iridium = probability(satellite_source("Iridium-126"), 328.0)
        assert p_micius > p_dark > p_iridium
        assert p_starlink > p_dark
        assert p_dark > p_std


class TestAttenuationProfile:
    """The ``linkbudget`` command's satellite rows and the ``downlink_profile`` kernel."""

    source = satellite_source("Micius")
    model = source.pass_model

    def window(self):
        return visibility_window(self.model, DEFAULTS.min_elevation_deg)

    def test_sample_count_inclusive_endpoints(self, tmp_path, capsys):
        # Rows are the channel steps from the last one before the service
        # interval to the first one after it.
        source = satellite_source("Micius", peak_time_s=300.0)
        start, end = service_interval(source.pass_model, DEFAULTS.min_elevation_deg)
        window_start, window_end = self.window()
        for step in (2.0, (window_end - window_start) / 128):
            times = [r["time_s"] for r in profile(tmp_path, capsys, source, step)]
            first = round(times[0] / step)
            assert times == [k * step for k in range(first, first + len(times))]
            assert times[0] < start <= times[1]
            assert times[-2] <= end < times[-1]

    def test_peak_sample_elevation(self, tmp_path, capsys):
        peak = max(profile(tmp_path, capsys, self.source), key=lambda r: r["eta_a"])
        assert peak["elev_a_deg"] == pytest.approx(83.0, abs=0.1)

    def test_internal_consistency(self, tmp_path, capsys):
        rows = profile(tmp_path, capsys, self.source)[::10]
        times = [r["time_s"] for r in rows]
        elevations, _, _ = downlink_profile(times, self.model, self.model.egress, DEFAULTS)
        ingress = zip(*downlink_profile(times, self.model, self.model.ingress, DEFAULTS))
        for r, elevation, downlink_b in zip(rows, elevations, ingress):
            range_km = slant_range_km(elevation, self.model.altitude_km)
            assert r["elev_a_deg"] == elevation
            assert r["range_a_km"] == range_km
            eta_a = _reference.freespace_transmittance(elevation, self.model.altitude_km, DEFAULTS)
            assert r["eta_a"] == eta_a
            assert r["p_coincidence"] == r["eta_a"] * r["eta_b"]
            assert downlink_b == (r["elev_b_deg"], r["range_b_km"], r["eta_b"])

    def test_outside_visibility_is_zero(self):
        times = np.arange(5000.0, 5012.0, 2.0).tolist()
        for station in (self.model.egress, self.model.ingress):
            columns = downlink_profile(times, self.model, station, DEFAULTS)
            assert columns == ([None] * 6, [None] * 6, [0.0] * 6)

    def test_empty_window(self, tmp_path, capsys):
        low = SatellitePassModel(474.0, StationPass(15.0, 0.0), StationPass(15.0, 0.0))
        source = SatelliteSource("low", low)
        # No visibility window, but the steps around the peak are evaluated.
        rows = profile(tmp_path, capsys, source)
        assert [(r["time_s"], r["p_coincidence"]) for r in rows] == [(0.0, 0.0), (2.0, 0.0)]

    def test_profile_matches_visibility_gate(self, tmp_path, capsys):
        rows = profile(tmp_path, capsys, self.source)
        # The window opens before the horizon, so the rows start at t = 0.
        window_start, _ = self.window()
        assert window_start < 0.0 and rows[0]["time_s"] == 0.0
        for r in rows:
            assert r["eta_a"] > 0.0 or r["elev_a_deg"] < DEFAULTS.min_elevation_deg + 1e-9


@st.composite
def passes(draw) -> tuple[SatellitePassModel, FreeSpaceLinkParams, list[float]]:
    """A pass over the validator's altitudes, link params inside their
    bounds, and times spread over one and a half orbital periods each side
    of the peaks, the peaks themselves included.  A peak may be 90 degrees,
    or equal to or under the mask."""
    params = FreeSpaceLinkParams(
        divergence_half_angle_rad=draw(st.floats(1e-9, 0.1)),
        receiver_aperture_diameter_m=draw(st.floats(0.0, 100.0, exclude_min=True)),
        zenith_atmospheric_transmittance=draw(st.floats(0.0, 1.0, exclude_min=True)),
        pointing_loss_db=draw(st.floats(0.0, 60.0)),
        system_efficiency=draw(st.floats(0.0, 1.0, exclude_min=True)),
        min_elevation_deg=draw(st.floats(0.0, 90.0, exclude_min=True, exclude_max=True)),
    )
    mask = params.min_elevation_deg
    peaks = st.one_of(
        st.just(90.0),
        st.just(mask),
        st.floats(0.0, mask, exclude_min=True),
        st.floats(0.0, 90.0, exclude_min=True),
    )
    peak_times = st.floats(-1e4, 1e4)
    egress = StationPass(draw(peaks), draw(peak_times))
    ingress = StationPass(draw(peaks), draw(st.one_of(st.just(egress.peak_time_s), peak_times)))
    model = SatellitePassModel(draw(st.floats(100.0, 1e6)), egress, ingress)
    period = 2.0 * math.pi / model.angular_rate_rad_s
    offsets = draw(st.lists(st.floats(-1.5, 1.5), max_size=30))
    times = [egress.peak_time_s, ingress.peak_time_s, *(egress.peak_time_s + u * period for u in offsets)]
    return model, params, times


class TestDownlinkProfile:
    """The engine's one-loop kernel against the per-instant oracle."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=passes())
    @example(case=(satellite_source("Micius").pass_model, DEFAULTS, [128.0, 5000.0, -3000.0]))
    @example(
        case=(
            SatellitePassModel(500.0, StationPass(90.0, 0.0), StationPass(20.0, 0.0)),
            DEFAULTS,
            [0.0, 1.0, -1.0],
        )
    )
    def test_columns_equal_the_oracle_at_every_instant(self, case):
        model, params, times = case
        for station in (model.egress, model.ingress):
            columns = downlink_profile(times, model, station, params)
            rows = [_reference.downlink(t, model, station, params) for t in times]
            assert columns == tuple(map(list, zip(*rows)))
            if station.peak_elevation_deg == 90.0:
                # The zenith branch, at the peak.
                assert columns[0][times.index(station.peak_time_s)] == 90.0
        times = sorted(times)
        (_, _, etas_a), (_, _, etas_b) = (
            downlink_profile(times, model, station, params) for station in (model.egress, model.ingress)
        )
        source = SatelliteSource("sat", model, params)
        p = coincidence_matrix((source,), np.array(times))[:, 0]
        assert p.tolist() == [a * b for a, b in zip(etas_a, etas_b)]
