"""Fiber links and satellite downlinks: transmittance and latency.

A fiber attenuates at a constant rate per km, standard or dark fiber,
and delays light by its length over the speed of light in glass; every
classical hop at the subnetwork edges costs that latency.

The free-space model combines four factors: geometric collection of a
diffraction-limited Gaussian beam by the receiver aperture, zenith
atmospheric transmittance scaled by a secant air-mass term, a fixed
pointing loss, and a fixed system efficiency.  Service is gated at a
minimum elevation below which the transmittance is exactly zero.

``downlink_profile`` evaluates the downlink to one station, egress or
ingress, at many instants of one pass: one loop computes the elevation,
slant range and transmittance of each instant and returns three columns.
``entanglement.pass_slice`` runs it on the channel steps of a pass for
both the engine's probability matrix and the ``linkbudget`` command.
Outputs must not depend on the host's SIMD dispatch, so the kernels use
scalar ``math`` and this module does not import numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .geometry import EARTH_RADIUS_KM, SatellitePassModel, StationPass, central_angle_rad

STANDARD_FIBER_DB_PER_KM = 0.2
DARK_FIBER_DB_PER_KM = 0.16
SPEED_OF_LIGHT_KM_S = 299792.458
FIBER_REFRACTIVE_INDEX = 1.468


@dataclass(frozen=True)
class FiberLink:
    """A fiber span with a constant attenuation coefficient."""

    length_km: float
    attenuation_db_per_km: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.length_km) and self.length_km >= 0.0):
            raise ValueError(f"length_km must be >= 0: {self.length_km}")
        if not (
            math.isfinite(self.attenuation_db_per_km)
            and self.attenuation_db_per_km >= 0.0
        ):
            raise ValueError(
                f"attenuation_db_per_km must be >= 0: {self.attenuation_db_per_km}"
            )


@dataclass(frozen=True)
class FreeSpaceLinkParams:
    """Calibration parameters of the satellite downlink model."""

    divergence_half_angle_rad: float = 2.0e-6
    receiver_aperture_diameter_m: float = 1.0
    zenith_atmospheric_transmittance: float = 0.5
    pointing_loss_db: float = 1.0
    system_efficiency: float = 0.5
    min_elevation_deg: float = 20.0

    def __post_init__(self) -> None:
        # Physical ranges, so that over a pass model's altitudes neither
        # the aperture nor the beam radius squared underflows or overflows.
        divergence, aperture = self.divergence_half_angle_rad, self.receiver_aperture_diameter_m
        if not 1e-9 <= divergence <= 0.1:
            raise ValueError(f"divergence_half_angle_rad must be in [1e-9, 0.1]: {divergence}")
        if not 0.0 < aperture <= 100.0:
            raise ValueError(f"receiver_aperture_diameter_m must be in (0, 100]: {aperture}")
        if not 0.0 < self.zenith_atmospheric_transmittance <= 1.0:
            raise ValueError("zenith_atmospheric_transmittance must be in (0, 1]")
        if not (math.isfinite(self.pointing_loss_db) and self.pointing_loss_db >= 0.0):
            raise ValueError("pointing_loss_db must be >= 0")
        if not 0.0 < self.system_efficiency <= 1.0:
            raise ValueError("system_efficiency must be in (0, 1]")
        # The visibility window needs a mask above the horizon, and the
        # air-mass term divides by its sine.
        if not 0.0 < self.min_elevation_deg < 90.0:
            raise ValueError(f"min_elevation_deg must be in (0, 90): {self.min_elevation_deg}")


def fiber_transmittance(link: FiberLink) -> float:
    """Per-photon survival probability of a fiber span."""
    return 10.0 ** (-(link.length_km * link.attenuation_db_per_km) / 10.0)


def classical_latency_s(distance_km: float) -> float:
    """One-way propagation delay of light in fiber over ``distance_km`` >= 0."""
    return distance_km / (SPEED_OF_LIGHT_KM_S / FIBER_REFRACTIVE_INDEX)


def downlink_profile(
    times: Iterable[float],
    pass_model: SatellitePassModel,
    station: StationPass,
    params: FreeSpaceLinkParams,
) -> tuple[list[float | None], list[float | None], list[float]]:
    """``(elevations, ranges_km, etas)``: elevation in degrees, slant range
    and transmittance of one station's downlink at each of ``times``, which
    are finite.

    ``station`` is ``pass_model.egress`` or ``pass_model.ingress``.  The
    elevation peaks at that station's peak elevation and time and is
    symmetric about the peak.  The model covers one pass: half an orbital
    period or more from the peak, the satellite stays at its farthest
    point, below the horizon, instead of rising again one period later.
    Elevation and range are None while the satellite is below the
    station's horizon.  The transmittance, in [0, 1), is 0 there and
    below ``params.min_elevation_deg``, non-decreasing in elevation and
    non-increasing in range.  Each range is ``geometry.slant_range_km``
    of its elevation, bit for bit.
    """
    acos, atan, cos, sin, sqrt, exp = math.acos, math.atan, math.cos, math.sin, math.sqrt, math.exp
    degrees, radians, pi = math.degrees, math.radians, math.pi
    re, r = EARTH_RADIUS_KM, pass_model.orbit_radius_km
    r2 = r * r
    cos_gamma_min = cos(central_angle_rad(station.peak_elevation_deg, pass_model.altitude_km))
    omega, rho, peak_s = pass_model.angular_rate_rad_s, re / r, station.peak_time_s
    mask, divergence = params.min_elevation_deg, params.divergence_half_angle_rad
    neg_aperture2 = -(params.receiver_aperture_diameter_m**2)
    zenith = params.zenith_atmospheric_transmittance
    gain = params.system_efficiency * 10.0 ** (-params.pointing_loss_db / 10.0)
    elevations, ranges_km, etas = [], [], []
    add_elevation, add_range, add_eta = elevations.append, ranges_km.append, etas.append
    for t_s in times:
        phase = omega * abs(t_s - peak_s)
        cos_gamma = cos_gamma_min * cos(phase if phase < pi else pi)
        cos_gamma = -1.0 if cos_gamma < -1.0 else 1.0 if cos_gamma > 1.0 else cos_gamma
        gamma = acos(cos_gamma)
        elevation = 90.0 if gamma < 1e-12 else degrees(atan((cos_gamma - rho) / sin(gamma)))
        range_km, eta = None, 0.0
        if elevation >= 0.0:
            el = radians(elevation)
            sin_el = sin(el)
            range_km = sqrt(r2 - (re * cos(el)) ** 2) - re * sin_el
            if elevation >= mask:
                beam_radius_m = divergence * (1000.0 * range_km)
                eta_geo = 1.0 - exp(neg_aperture2 / (2.0 * beam_radius_m**2))
                eta = gain * zenith ** (1.0 / sin_el) * eta_geo
        else:
            elevation = None
        add_elevation(elevation)
        add_range(range_km)
        add_eta(eta)
    return elevations, ranges_km, etas
