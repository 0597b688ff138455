"""Backbone entanglement sources: ground fiber and satellite passes.

A source emits pairs at a fixed rate and a pair counts only if both
photons pass their respective arms, so its coincidence probability is
the product of the two arm transmittances.  ``coincidence_matrix``
evaluates it for every source at every channel step; ``engine.run``
thins the emission rates by it and draws Poisson pair counts.  The
egress and ingress memories that hold the two halves mirror each other,
so the engine tracks both as one occupancy count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Sequence, Union

import numpy as np

from .geometry import SatellitePassModel
from .linkbudget import FiberLink, FreeSpaceLinkParams, downlink, fiber_transmittance

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


EntanglementSource = Union[FiberSource, SatelliteSource]


def coincidence_matrix(
    sources: Sequence[EntanglementSource], times: np.ndarray
) -> np.ndarray:
    """Coincidence probability of every source at every time, shape (times, sources).

    A fiber source's probability is constant.  A satellite's is the
    product of its two ``downlink`` transmittances, evaluated on Python
    floats so the values do not depend on numpy's SIMD dispatch.
    """
    p = np.zeros((len(times), len(sources)))
    t_list = times.tolist()
    for j, source in enumerate(sources):
        if source.kind == "ground-fiber":
            p[:, j] = fiber_transmittance(source.arm_a) * fiber_transmittance(source.arm_b)
        else:
            model, params = source.pass_model, source.link_params
            p[:, j] = [
                downlink(t, model, source.station_a, params)[2]
                * downlink(t, model, source.station_b, params)[2]
                for t in t_list
            ]
    return p
