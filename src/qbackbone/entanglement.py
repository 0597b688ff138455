"""Backbone entanglement sources: ground fiber and satellite passes.

A source emits pairs at a fixed rate and sends one photon of each pair
to the egress station and one to the ingress station.  A pair counts
only if both photons arrive, so its coincidence probability is the
product of the two arm transmittances: two equal fiber arms for a
ground source, the egress and ingress downlinks for a satellite.
``pass_slice`` computes a satellite's on the channel steps of its pass,
which the ``linkbudget`` command prints, and ``coincidence_matrix``
holds every source's at every step; ``engine.run`` thins the emission
rates by it and draws Poisson pair counts.  A pass's columns are
read-only float64 arrays, NaN below a station's horizon, evaluated once
per (pass, steps) in a process and kept for the last 8 such pairs.  The
egress and ingress memories that hold the two halves mirror each other,
so the engine tracks both as one occupancy count.
"""

from __future__ import annotations

import functools
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


def pass_slice(source: SatelliteSource, times: np.ndarray) -> tuple[int, int, np.ndarray, np.ndarray, np.ndarray]:
    """``(lo, hi, egress_columns, ingress_columns, p)``: a satellite's two
    ``downlink_profile`` column triples on ``times[lo:hi]``, which are finite
    and ascending, as ``(3, hi - lo)`` arrays with NaN where the satellite
    is below the station's horizon, and the coincidence probability, their
    transmittances' product.  The slice is its ``service_interval`` and one
    time more on each side; at every other time the probability is 0.  The
    arrays are read-only and shared: see ``_pass_columns``."""
    model, params = source.pass_model, source.link_params
    start, end = service_interval(model, params.min_elevation_deg)
    lo = max(int(np.searchsorted(times, start)) - 1, 0)
    hi = min(int(np.searchsorted(times, end, side="right")) + 1, len(times))
    key = np.asarray(times[lo:hi], np.float64).tobytes()
    return (lo, hi, *_pass_columns(model, params, key))


@functools.lru_cache(maxsize=8)
def _pass_columns(
    model: SatellitePassModel, params: FreeSpaceLinkParams, times: bytes
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``pass_slice``'s columns on the float64 ``times``, computed once per
    process.  The pass, the link and the bytes of the times determine them,
    so ``simulate``, each seed of a ``sweep`` and ``linkbudget`` share one
    evaluation.  Every shipped config holds at most 3 passes; 8 entries
    keep them and a few more at 56 B per instant.  A config with more
    passes only recomputes them, as it would without the cache."""
    t_list = np.frombuffer(times).tolist()
    egress, ingress = (
        np.array(downlink_profile(t_list, model, station, params), np.float64)  # None becomes NaN
        for station in (model.egress, model.ingress)
    )
    # An IEEE product, the same bits as Python's ``a * b`` on any SIMD dispatch.
    p = np.multiply(egress[2], ingress[2])
    for column in (egress, ingress, p):
        column.flags.writeable = False
    return egress, ingress, p


def coincidence_matrix(
    sources: Sequence[EntanglementSource], times: np.ndarray
) -> np.ndarray:
    """Coincidence probability of every source at every time, shape (times, sources).

    ``times`` must be finite and ascending.  A fiber source's probability
    is constant.  A satellite's is the product of its two downlink
    transmittances on its ``pass_slice``, and exactly 0 elsewhere.
    """
    p = np.zeros((len(times), len(sources)))
    for j, source in enumerate(sources):
        if source.kind == "ground-fiber":
            eta = fiber_transmittance(source.arm)
            p[:, j] = eta * eta
            continue
        lo, hi, _, _, column = pass_slice(source, times)
        p[lo:hi, j] = column
    return p
