"""Circular-orbit pass geometry over the egress and ingress stations.

A satellite pass is modelled as a circular orbit whose ground track is a
great circle, parameterised for each of the two stations it links (the
edge nodes of the egress and ingress subnetworks) by the elevation and
time of closest approach.  Earth rotation and orbital eccentricity are
ignored.  The model describes a single pass around each configured peak
time: from half an orbital period before the peak to half a period after
it, and the satellite is below the horizon outside that interval.
``visibility_window`` and ``service_interval`` give intervals of a pass
as ``(start_s, end_s)`` tuples.

``elevation_profile`` evaluates one station's pass at many instants with
scalar ``math`` kernels, so outputs do not depend on the host's SIMD
dispatch; this module does not import numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

EARTH_RADIUS_KM = 6371.0
EARTH_MU_KM3_S2 = 398600.4418
# Orbit phase added to each side of ``service_interval``: about 70 times
# the sqrt(eps) error of ``acos`` near 1, and 1 ms of a low orbit's pass.
_MASK_SLACK_RAD = 1e-6


def _clamp(x: float, lo: float = -1.0, hi: float = 1.0) -> float:
    return lo if x < lo else hi if x > hi else x


@dataclass(frozen=True)
class StationPass:
    """Closest approach of one pass as seen from a single station."""

    peak_elevation_deg: float
    peak_time_s: float

    def __post_init__(self) -> None:
        if not 0.0 < self.peak_elevation_deg <= 90.0:
            raise ValueError(
                f"peak_elevation_deg must be in (0, 90]: {self.peak_elevation_deg}"
            )
        if not math.isfinite(self.peak_time_s):
            raise ValueError(f"peak_time_s must be finite: {self.peak_time_s}")


@dataclass(frozen=True)
class SatellitePassModel:
    """One overhead pass of a circular-orbit satellite over the two stations."""

    altitude_km: float
    egress: StationPass
    ingress: StationPass

    def __post_init__(self) -> None:
        # Low Earth orbit to past the Moon: far outside, the orbit rate
        # overflows or the beam radius at zenith underflows.
        if not 100.0 <= self.altitude_km <= 1e6:
            raise ValueError(f"altitude_km must be in [100, 1e6]: {self.altitude_km}")
        for role in ("egress", "ingress"):
            if not isinstance(getattr(self, role), StationPass):
                raise ValueError(f"{role} must be a StationPass: {getattr(self, role)!r}")

    @property
    def station_passes(self) -> dict[str, StationPass]:
        """Both passes keyed by role; only the benchmark's self-tests read it."""
        return {"egress": self.egress, "ingress": self.ingress}

    @property
    def orbit_radius_km(self) -> float:
        return EARTH_RADIUS_KM + self.altitude_km

    @property
    def angular_rate_rad_s(self) -> float:
        """Orbital angular rate of the circular orbit."""
        return math.sqrt(EARTH_MU_KM3_S2 / self.orbit_radius_km**3)


def _check_elevation_altitude(elevation_deg: float, altitude_km: float) -> None:
    if not (math.isfinite(elevation_deg) and 0.0 <= elevation_deg <= 90.0):
        raise ValueError(f"elevation_deg must be in [0, 90]: {elevation_deg}")
    if not (math.isfinite(altitude_km) and altitude_km > 0.0):
        raise ValueError(f"altitude_km must be > 0: {altitude_km}")


def slant_range_km(elevation_deg: float, altitude_km: float) -> float:
    """Line-of-sight distance from a station to a satellite.

    Parameters
    ----------
    elevation_deg : float
        Elevation of the satellite above the local horizon, in [0, 90].
    altitude_km : float
        Orbit altitude above the spherical Earth surface.

    Returns
    -------
    float
        Slant range in kilometres, between ``altitude_km`` (zenith) and
        the horizon range.
    """
    _check_elevation_altitude(elevation_deg, altitude_km)
    re = EARTH_RADIUS_KM
    r = re + altitude_km
    el = math.radians(elevation_deg)
    return math.sqrt(r * r - (re * math.cos(el)) ** 2) - re * math.sin(el)


def central_angle_rad(elevation_deg: float, altitude_km: float) -> float:
    """Earth-central angle between a station and the sub-satellite point.

    Zero at zenith and strictly decreasing in elevation for a fixed
    altitude.
    """
    _check_elevation_altitude(elevation_deg, altitude_km)
    rho = EARTH_RADIUS_KM / (EARTH_RADIUS_KM + altitude_km)
    el = math.radians(elevation_deg)
    return math.acos(_clamp(rho * math.cos(el))) - el


def elevation_profile(
    times: Iterable[float], pass_model: SatellitePassModel, station: StationPass
) -> list[float | None]:
    """Elevation in degrees at each of ``times``, None while below the horizon.

    ``station`` is ``pass_model.egress`` or ``pass_model.ingress``.  The
    profile peaks at that station's peak elevation and time and is
    symmetric about the peak.  The model covers one pass: half an orbital
    period or more from the peak, the satellite stays at its farthest
    point, below the horizon, instead of rising again one period later.
    What does not depend on the time is computed once per call.
    """
    cos_gamma_min = math.cos(central_angle_rad(station.peak_elevation_deg, pass_model.altitude_km))
    omega = pass_model.angular_rate_rad_s
    rho = EARTH_RADIUS_KM / pass_model.orbit_radius_km
    peak_s = station.peak_time_s
    elevations: list[float | None] = []
    for t_s in times:
        if not math.isfinite(t_s):
            raise ValueError(f"t_s must be finite: {t_s}")
        phase = min(omega * abs(t_s - peak_s), math.pi)
        cos_gamma = _clamp(cos_gamma_min * math.cos(phase))
        gamma = math.acos(cos_gamma)
        if gamma < 1e-12:
            elevations.append(90.0)
            continue
        elevation = math.degrees(math.atan((cos_gamma - rho) / math.sin(gamma)))
        elevations.append(elevation if elevation >= 0.0 else None)
    return elevations


def _mask_interval(
    pass_model: SatellitePassModel, min_elevation_deg: float, slack_rad: float
) -> tuple[float, float]:
    """Intersection of the egress and ingress intervals above the mask, each
    widened by ``slack_rad`` of orbit phase; empty when start exceeds end.
    A station whose peak is at or below the mask keeps only its peak time.
    """
    omega = pass_model.angular_rate_rad_s
    start, end = -math.inf, math.inf
    for station in (pass_model.egress, pass_model.ingress):
        gamma_lim = central_angle_rad(min_elevation_deg, pass_model.altitude_km)
        gamma_min = central_angle_rad(station.peak_elevation_deg, pass_model.altitude_km)
        ratio = _clamp(math.cos(gamma_lim) / math.cos(gamma_min))
        half = (math.acos(ratio) + slack_rad) / omega
        start = max(start, station.peak_time_s - half)
        end = min(end, station.peak_time_s + half)
    return start, end


def visibility_window(
    pass_model: SatellitePassModel, min_elevation_deg: float
) -> tuple[float, float] | None:
    """``(start_s, end_s)``, the closed interval where the pass is above
    ``min_elevation_deg`` at both stations.

    Returns None when the egress and ingress windows do not intersect or
    the mask exceeds either station's peak elevation.
    """
    if not 0.0 < min_elevation_deg <= 90.0:
        raise ValueError(f"min_elevation_deg must be in (0, 90]: {min_elevation_deg}")
    if min_elevation_deg > min(pass_model.egress.peak_elevation_deg, pass_model.ingress.peak_elevation_deg):
        return None
    start, end = _mask_interval(pass_model, min_elevation_deg, 0.0)
    return None if start > end else (start, end)


def service_interval(
    pass_model: SatellitePassModel, min_elevation_deg: float
) -> tuple[float, float]:
    """Times outside which ``elevation_profile`` is below ``min_elevation_deg``
    at one station or the other; empty when start exceeds end.

    Unlike ``visibility_window`` this bounds the computed elevation, which
    can meet the mask where the exact one does not: ``acos`` near 1 turns
    rounding of order eps into angles of order sqrt(eps), and at the peak
    the computed elevation can exceed the configured one.
    """
    return _mask_interval(pass_model, min_elevation_deg, _MASK_SLACK_RAD)
