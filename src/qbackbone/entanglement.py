"""Backbone entanglement sources: ground fiber and satellite passes.

A source emits pairs at a fixed rate and a pair counts only if both
photons pass their respective arms, so its pair rate is the emission
rate times the product of the two arm transmittances.  ``engine.run``
draws thinned Poisson pair counts from these rates.  The egress and
ingress memories that hold the two halves mirror each other, so the
engine tracks both as one occupancy count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Union

from .geometry import SatellitePassModel, elevation_at
from .linkbudget import FiberLink, FreeSpaceLinkParams, fiber_transmittance, freespace_transmittance

DEFAULT_EMISSION_RATE_HZ = 2.0e5


@dataclass(frozen=True)
class FiberSource:
    """Ground pair source feeding both stations through fixed fiber arms."""

    source_id: str
    arm_a: FiberLink = FiberLink(75.0, 0.2)
    arm_b: FiberLink = FiberLink(75.0, 0.2)
    emission_rate_hz: float = DEFAULT_EMISSION_RATE_HZ

    kind: ClassVar[str] = "ground-fiber"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.emission_rate_hz) and self.emission_rate_hz > 0.0):
            raise ValueError(f"emission_rate_hz must be > 0: {self.emission_rate_hz}")

    def transmittances(self, t_s: float) -> tuple[float, float]:
        return fiber_transmittance(self.arm_a), fiber_transmittance(self.arm_b)

    def coincidence_probability(self, t_s: float) -> float:
        eta_a, eta_b = self.transmittances(t_s)
        return eta_a * eta_b

    def pair_rate_hz(self, t_s: float) -> float:
        return self.emission_rate_hz * self.coincidence_probability(t_s)


@dataclass(frozen=True)
class SatelliteSource:
    """Onboard pair source on a passing satellite, one downlink per station."""

    source_id: str
    pass_model: SatellitePassModel
    station_a: str
    station_b: str
    link_params: FreeSpaceLinkParams = FreeSpaceLinkParams()
    emission_rate_hz: float = DEFAULT_EMISSION_RATE_HZ

    kind: ClassVar[str] = "satellite-pass"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.emission_rate_hz) and self.emission_rate_hz > 0.0):
            raise ValueError(f"emission_rate_hz must be > 0: {self.emission_rate_hz}")
        for name in (self.station_a, self.station_b):
            if name not in self.pass_model.station_passes:
                raise ValueError(
                    f"station {name!r} has no pass parameters in "
                    f"{self.pass_model.satellite_name!r}"
                )

    def transmittances(self, t_s: float) -> tuple[float, float]:
        etas = []
        for name in (self.station_a, self.station_b):
            elevation = elevation_at(t_s, self.pass_model, name)
            if elevation is None:
                etas.append(0.0)
            else:
                etas.append(
                    freespace_transmittance(
                        elevation,
                        self.pass_model.altitude_km,
                        self.link_params,
                        self.pass_model.earth_radius_km,
                    )
                )
        return etas[0], etas[1]

    def coincidence_probability(self, t_s: float) -> float:
        eta_a, eta_b = self.transmittances(t_s)
        return eta_a * eta_b

    def pair_rate_hz(self, t_s: float) -> float:
        return self.emission_rate_hz * self.coincidence_probability(t_s)


EntanglementSource = Union[FiberSource, SatelliteSource]
