"""Backbone entanglement sources: ground fiber and satellite passes.

A source emits pairs at a fixed rate and sends one photon of each pair
to the egress station and one to the ingress station.  A pair counts
only if both photons arrive, so its coincidence probability is the
product of the two arm transmittances: two equal fiber arms for a
ground source, the egress and ingress downlinks for a satellite.
``coincidence_matrix`` evaluates it for every source at every channel
step, a satellite's only on its ``pass_slice`` of the steps, which the
``linkbudget`` command prints; ``engine.run`` thins the emission rates
by it and draws Poisson pair counts.  The egress and ingress memories
that hold the two halves mirror each other, so the engine tracks both as
one occupancy count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Sequence, Union

import numpy as np

from .geometry import SatellitePassModel, service_interval
from .linkbudget import (
    STANDARD_FIBER_DB_PER_KM,
    FiberLink,
    FreeSpaceLinkParams,
    downlink_profile,
    fiber_transmittance,
)

DEFAULT_EMISSION_RATE_HZ = 2.0e5


@dataclass(frozen=True)
class FiberSource:
    """Ground pair source feeding both stations through two equal fiber arms."""

    source_id: str
    arm: FiberLink = FiberLink(75.0, STANDARD_FIBER_DB_PER_KM)
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
    link_params: FreeSpaceLinkParams = FreeSpaceLinkParams()
    emission_rate_hz: float = DEFAULT_EMISSION_RATE_HZ

    kind: ClassVar[str] = "satellite-pass"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.emission_rate_hz) and self.emission_rate_hz > 0.0):
            raise ValueError(f"emission_rate_hz must be > 0: {self.emission_rate_hz}")


EntanglementSource = Union[FiberSource, SatelliteSource]


def pass_slice(source: SatelliteSource, times: np.ndarray) -> tuple[int, int, tuple, tuple]:
    """``(lo, hi, egress_columns, ingress_columns)``: a satellite's two
    ``downlink_profile`` column triples on ``times[lo:hi]``, which are finite
    and ascending.  The slice is its ``service_interval`` and one time more
    on each side; at every other time the coincidence probability is 0."""
    model, params = source.pass_model, source.link_params
    start, end = service_interval(model, params.min_elevation_deg)
    lo = max(int(np.searchsorted(times, start)) - 1, 0)
    hi = min(int(np.searchsorted(times, end, side="right")) + 1, len(times))
    t_list = times[lo:hi].tolist()
    egress = downlink_profile(t_list, model, model.egress, params)
    ingress = downlink_profile(t_list, model, model.ingress, params)
    return lo, hi, egress, ingress


def coincidence_matrix(
    sources: Sequence[EntanglementSource], times: np.ndarray
) -> np.ndarray:
    """Coincidence probability of every source at every time, shape (times, sources).

    ``times`` must be finite and ascending.  A fiber source's probability
    is constant.  A satellite's is the product of its two downlink
    transmittances on its ``pass_slice``, and exactly 0 elsewhere.
    """
    if not (np.isfinite(times).all() and (np.diff(times) >= 0.0).all()):
        raise ValueError("times must be finite and ascending")
    p = np.zeros((len(times), len(sources)))
    for j, source in enumerate(sources):
        if source.kind == "ground-fiber":
            eta = fiber_transmittance(source.arm)
            p[:, j] = eta * eta
            continue
        lo, hi, egress, ingress = pass_slice(source, times)
        # An IEEE product, the same bits as Python's ``a * b`` on any SIMD dispatch.
        p[lo:hi, j] = np.multiply(egress[2], ingress[2])
    return p
