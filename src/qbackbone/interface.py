"""Classical signalling delay at the subnetwork edges.

A frame's header, trailer and teleport corrections travel over a direct
fiber, and the frame itself crosses an access fiber on each side; every
such hop costs the propagation latency of light in fiber.  The egress
and ingress rules that use these latencies (one stored pair per
teleport attempt, consumed in FIFO index order, and the rebuild from
the classical corrections) are applied column-wise by ``engine.run``.
"""

from __future__ import annotations

import math

SPEED_OF_LIGHT_KM_S = 299792.458
FIBER_REFRACTIVE_INDEX = 1.468


def classical_latency_s(distance_km: float) -> float:
    """One-way propagation delay of light in fiber over ``distance_km``."""
    if not (math.isfinite(distance_km) and distance_km >= 0.0):
        raise ValueError(f"distance_km must be >= 0: {distance_km}")
    return distance_km / (SPEED_OF_LIGHT_KM_S / FIBER_REFRACTIVE_INDEX)
