"""Backbone entanglement sources and the mirrored indexed pair memories.

Pair arrivals are sampled as thinned Poisson counts: the source emits at
a fixed rate and a pair survives only if both photons pass their
respective arms.  Surviving halves are stored at matching indices in the
egress and ingress memories, which therefore evolve in lockstep; the
pair of index counters is the synchronisation contract the interface
layer relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Union

import numpy as np

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


def coincidence_count(
    rate_hz: float,
    eta_a: float,
    eta_b: float,
    duration_s: float,
    rng: np.random.Generator,
) -> int:
    """Sample the number of pairs surviving both arms over an interval.

    Thinned Poisson: the count is Poisson with mean
    ``rate_hz * eta_a * eta_b * duration_s``.
    """
    if not (math.isfinite(rate_hz) and rate_hz >= 0.0):
        raise ValueError(f"rate_hz must be >= 0: {rate_hz}")
    if not 0.0 <= eta_a <= 1.0:
        raise ValueError(f"eta_a must be in [0, 1]: {eta_a}")
    if not 0.0 <= eta_b <= 1.0:
        raise ValueError(f"eta_b must be in [0, 1]: {eta_b}")
    if not (math.isfinite(duration_s) and duration_s >= 0.0):
        raise ValueError(f"duration_s must be >= 0: {duration_s}")
    return int(rng.poisson(rate_hz * eta_a * eta_b * duration_s))


class QuantumMemory:
    """Indexed FIFO store of entangled-pair halves.

    Slots are identified by a monotone store index; consumption advances
    a second monotone index, so the occupied range is always
    ``[next_consume_index, next_store_index)``.  ``capacity`` of None
    means unlimited.  ``next_reconstruct_index`` tracks which consumed
    indices have been confirmed by the remote side's classical messages.
    """

    __slots__ = (
        "capacity",
        "occupancy",
        "next_store_index",
        "next_consume_index",
        "drop_count",
        "next_reconstruct_index",
    )

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 or unlimited (None)")
        self.capacity = capacity
        self.occupancy = 0
        self.next_store_index = 0
        self.next_consume_index = 0
        self.drop_count = 0
        self.next_reconstruct_index = 0

    def free_slots(self) -> int | None:
        if self.capacity is None:
            return None
        return self.capacity - self.occupancy

    def store(self, count: int) -> tuple[int, int]:
        """Store up to ``count`` halves; returns (stored, dropped)."""
        if count < 0:
            raise ValueError(f"count must be >= 0: {count}")
        free = self.free_slots()
        stored = count if free is None else min(count, free)
        self.occupancy += stored
        self.next_store_index += stored
        dropped = count - stored
        self.drop_count += dropped
        return stored, dropped

    def consume(self, k: int) -> tuple[int, int]:
        """Consume ``k`` halves in FIFO order; returns the index range."""
        if not 0 <= k <= self.occupancy:
            raise ValueError(f"cannot consume {k} of {self.occupancy} stored halves")
        start = self.next_consume_index
        self.next_consume_index += k
        self.occupancy -= k
        return start, start + k

    def state(self) -> tuple[int, int, int, int]:
        return (
            self.occupancy,
            self.next_store_index,
            self.next_consume_index,
            self.drop_count,
        )


class MemoryPair:
    """The synchronised egress and ingress memories of one backbone link.

    A pair counts only if both halves can be stored; because the two
    memories mirror each other, a single capacity check covers both.
    Arriving pairs that do not fit are dropped (stored pairs are never
    evicted).
    """

    __slots__ = ("egress", "ingress")

    def __init__(self, capacity: int | None = None) -> None:
        self.egress = QuantumMemory(capacity)
        self.ingress = QuantumMemory(capacity)

    @property
    def occupancy(self) -> int:
        return self.egress.occupancy

    def store_pairs(self, count: int) -> tuple[int, int]:
        """Store up to ``count`` pairs on both sides; returns (stored, dropped)."""
        stored, dropped = self.egress.store(count)
        self.ingress.store(count)
        return stored, dropped

    def consume_pairs(self, k: int) -> tuple[int, int]:
        """Consume ``k`` pairs in FIFO order on both sides; returns the index range."""
        index_range = self.egress.consume(k)
        self.ingress.consume(k)
        return index_range

    def is_mirrored(self) -> bool:
        return self.egress.state() == self.ingress.state()

