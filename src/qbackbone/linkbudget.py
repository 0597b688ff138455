"""Per-photon transmittance of fiber links and satellite downlinks.

The free-space model combines four factors: geometric collection of a
diffraction-limited Gaussian beam by the receiver aperture, zenith
atmospheric transmittance scaled by a secant air-mass term, a fixed
pointing loss, and a fixed system efficiency.  Service is gated at a
minimum elevation below which the transmittance is exactly zero.

``downlink_profile`` evaluates the downlink to one station, egress or
ingress, at many instants of one pass with the scalar ``math`` kernels;
``entanglement.pass_slice`` runs it on the channel steps of a pass for
both the engine's probability matrix and the ``linkbudget`` command.
Outputs must not depend on the host's SIMD dispatch, so this module does
not import numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .geometry import SatellitePassModel, StationPass, elevation_profile, slant_range_km


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


def freespace_transmittance(
    elevation_deg: float, range_km: float, params: FreeSpaceLinkParams
) -> float:
    """Per-photon survival probability of the satellite downlink, in [0, 1).

    Zero below ``params.min_elevation_deg``, and monotone non-decreasing
    in elevation and non-increasing in range.  The arguments are not
    checked: ``elevation_deg`` must be in [0, 90] and ``range_km`` its
    ``slant_range_km``, which checks the elevation.
    """
    if elevation_deg < params.min_elevation_deg:
        return 0.0
    range_m = 1000.0 * range_km
    beam_radius_m = params.divergence_half_angle_rad * range_m
    eta_geo = 1.0 - math.exp(
        -(params.receiver_aperture_diameter_m**2) / (2.0 * beam_radius_m**2)
    )
    eta_atm = params.zenith_atmospheric_transmittance ** (
        1.0 / math.sin(math.radians(elevation_deg))
    )
    eta_point = 10.0 ** (-params.pointing_loss_db / 10.0)
    return params.system_efficiency * eta_point * eta_atm * eta_geo


def downlink_profile(
    times: Iterable[float],
    pass_model: SatellitePassModel,
    station: StationPass,
    params: FreeSpaceLinkParams,
) -> list[tuple[float | None, float | None, float]]:
    """Elevation, slant range and transmittance of one station's downlink
    at each of ``times``.

    ``station`` is ``pass_model.egress`` or ``pass_model.ingress``.
    Elevation and range are None while the satellite is below the
    station's horizon, and the transmittance is then 0.
    """
    altitude_km = pass_model.altitude_km
    rows: list[tuple[float | None, float | None, float]] = []
    for elevation in elevation_profile(times, pass_model, station):
        if elevation is None:
            rows.append((None, None, 0.0))
        else:
            range_km = slant_range_km(elevation, altitude_km)
            rows.append((elevation, range_km, freespace_transmittance(elevation, range_km, params)))
    return rows
