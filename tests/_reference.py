"""Straightforward reference implementations the tests compare against.

``simulate_per_qubit`` is an independent oracle for the aggregated
engine: every pair arrival is an explicit entry in a chronological walk
and every qubit is thinned with its own uniform draw.  Deliberately
simple and slow; fiber-backbone scenarios only.

``memory_walk`` is the oracle for ``engine._walk``: the walk as first
written, two nested loops kept in step by a segment pointer, storing
the segments before each frame and then the frame's take.
``check_run`` asserts the accounting every run must satisfy, on fuzzed
and hand-picked runs alike; its final occupancy comes from
``memory_walk`` over the run's own draws.

``write_frames`` is the oracle for the column-wise ``frames.csv``
writer: one row per frame, one cell at a time, through ``csv.writer``
and ``_fmt``.  ``_fmt`` is also the per-cell oracle of ``cli._cells``,
the cell rule of the small tables, and of the column-wise ``linkbudget``
table.

``elevation_at``, ``freespace_transmittance`` and ``downlink`` are the
per-instant pass and downlink kernels as first written: every constant
of the pass recomputed at each instant, and the slant range computed
once for the range and again inside the transmittance.  ``downlink`` is
the oracle of the three columns (elevation, slant range, transmittance)
that ``linkbudget.downlink_profile`` computes in one loop per station.
``elevation_at`` and ``freespace_transmittance``, which takes the
altitude, are the only standalone forms of the elevation and the
transmittance formulas that the kernel runs inline.
``coincidence_matrix`` evaluates them at every time of the grid, with no
skip outside the pass.  ``coincidence_probability``, ``pair_rate_hz``
and ``select_sources`` are the per-source, per-instant oracles of the
probability matrix and the whole-matrix policy: one scalar evaluation
per source, and a dict and a sort per instant.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from qbackbone import engine
from qbackbone.cli import FRAMES_COLUMNS
from qbackbone.engine import FrameTable, RunResult
from qbackbone.entanglement import EntanglementSource
from qbackbone.geometry import (
    EARTH_RADIUS_KM,
    SatellitePassModel,
    StationPass,
    central_angle_rad,
    slant_range_km,
)
from qbackbone.linkbudget import FreeSpaceLinkParams, classical_latency_s, fiber_transmittance
from qbackbone.scenario import Policy, ScenarioConfig


def _clamp(x: float) -> float:
    return -1.0 if x < -1.0 else 1.0 if x > 1.0 else x


def _elevation_deg_signed(
    t_s: float, pass_model: SatellitePassModel, station: StationPass
) -> float:
    """Elevation at time ``t_s``; negative values mean below the horizon."""
    gamma_min = central_angle_rad(station.peak_elevation_deg, pass_model.altitude_km)
    omega = pass_model.angular_rate_rad_s
    phase = min(omega * abs(t_s - station.peak_time_s), math.pi)
    cos_gamma = math.cos(gamma_min) * math.cos(phase)
    cos_gamma = _clamp(cos_gamma)
    gamma = math.acos(cos_gamma)
    if gamma < 1e-12:
        return 90.0
    rho = EARTH_RADIUS_KM / pass_model.orbit_radius_km
    return math.degrees(math.atan((cos_gamma - rho) / math.sin(gamma)))


def elevation_at(
    t_s: float, pass_model: SatellitePassModel, station: StationPass
) -> float | None:
    """Elevation in degrees at time ``t_s``, or None when below the horizon."""
    if not math.isfinite(t_s):
        raise ValueError(f"t_s must be finite: {t_s}")
    elevation = _elevation_deg_signed(t_s, pass_model, station)
    return elevation if elevation >= 0.0 else None


def freespace_transmittance(
    elevation_deg: float, altitude_km: float, params: FreeSpaceLinkParams
) -> float:
    """Downlink transmittance at an elevation and orbit altitude."""
    if elevation_deg < params.min_elevation_deg:
        return 0.0
    range_m = 1000.0 * slant_range_km(elevation_deg, altitude_km)
    beam_radius_m = params.divergence_half_angle_rad * range_m
    eta_geo = 1.0 - math.exp(
        -(params.receiver_aperture_diameter_m**2) / (2.0 * beam_radius_m**2)
    )
    eta_atm = params.zenith_atmospheric_transmittance ** (
        1.0 / math.sin(math.radians(elevation_deg))
    )
    eta_point = 10.0 ** (-params.pointing_loss_db / 10.0)
    return params.system_efficiency * eta_point * eta_atm * eta_geo


def downlink(
    t_s: float,
    pass_model: SatellitePassModel,
    station: StationPass,
    params: FreeSpaceLinkParams,
) -> tuple[float | None, float | None, float]:
    """Elevation, slant range and transmittance of one station's downlink."""
    elevation = elevation_at(t_s, pass_model, station)
    if elevation is None:
        return None, None, 0.0
    altitude_km = pass_model.altitude_km
    return (
        elevation,
        slant_range_km(elevation, altitude_km),
        freespace_transmittance(elevation, altitude_km, params),
    )


def transmittances(source: EntanglementSource, t_s: float) -> tuple[float, float]:
    """Per-photon transmittance of each arm of ``source`` at ``t_s``."""
    if source.kind == "ground-fiber":
        eta = fiber_transmittance(source.arm)
        return eta, eta
    model = source.pass_model
    return (
        downlink(t_s, model, model.egress, source.link_params)[2],
        downlink(t_s, model, model.ingress, source.link_params)[2],
    )


def coincidence_probability(source: EntanglementSource, t_s: float) -> float:
    eta_a, eta_b = transmittances(source, t_s)
    return eta_a * eta_b


def coincidence_matrix(sources, times) -> np.ndarray:
    """Every source's coincidence probability at every one of ``times``."""
    return np.array(
        [[coincidence_probability(s, t) for s in sources] for t in np.asarray(times).tolist()]
    ).reshape(len(times), len(sources))


def linkbudget_rows(source: EntanglementSource, config: ScenarioConfig) -> list[tuple]:
    """A satellite source's ``linkbudget`` rows at every channel step
    ``k * channel_step_s`` of ``config``, one instant at a time; the
    command prints those of the steps its probability is evaluated on."""
    model, params = source.pass_model, source.link_params
    rows = []
    for k in range(config.n_steps):
        t = k * config.channel_step_s
        elev_a, range_a, eta_a = downlink(t, model, model.egress, params)
        elev_b, range_b, eta_b = downlink(t, model, model.ingress, params)
        rows.append((t, elev_a, elev_b, range_a, range_b, eta_a, eta_b, eta_a * eta_b))
    return rows


def pair_rate_hz(source: EntanglementSource, t_s: float) -> float:
    return source.emission_rate_hz * coincidence_probability(source, t_s)


def select_sources(
    policy: Policy, sources: tuple[EntanglementSource, ...], probabilities: dict[str, float]
) -> tuple[str, ...]:
    """Sorted ids of the sources a policy keeps active at one instant.

    ``probabilities`` maps each source id to its coincidence probability
    at that instant.  best-source picks the single source with the highest instantaneous
    coincidence probability (ties broken by lexicographic source id);
    sources with zero probability are never selected.
    """
    if policy.kind == "fiber-only":
        active = sorted(
            s.source_id
            for s in sources
            if s.kind == "ground-fiber" and probabilities[s.source_id] > 0.0
        )
    elif policy.kind == "satellite-only":
        active = (
            [policy.source_id]
            if probabilities.get(policy.source_id, 0.0) > 0.0
            else []
        )
    elif policy.kind == "all-sources":
        active = sorted(sid for sid, p in probabilities.items() if p > 0.0)
    else:  # best-source
        candidates = [(sid, p) for sid, p in probabilities.items() if p > 0.0]
        candidates.sort(key=lambda item: (-item[1], item[0]))
        active = [candidates[0][0]] if candidates else []
    return tuple(active)


def simulate_per_qubit(config: ScenarioConfig, seed: int) -> int:
    """Total qubits delivered within the horizon, per-qubit sampling."""
    assert config.policy.kind == "fiber-only"
    assert all(s.kind == "ground-fiber" for s in config.sources)
    rng = np.random.default_rng(seed)
    duration = config.duration_s
    payload = config.traffic.payload_qubits
    capacity = config.memory_capacity
    eta_in = fiber_transmittance(config.ingress_access)
    eta_out = fiber_transmittance(config.egress_access)
    delay_in = classical_latency_s(config.ingress_access.length_km)
    delay_out = classical_latency_s(config.egress_access.length_km)
    latency = classical_latency_s(config.classical_distance_km)
    rate = sum(pair_rate_hz(s, 0.0) for s in config.sources)

    n_pairs = int(rng.poisson(rate * duration))
    pair_times = np.sort(rng.uniform(0.0, duration, size=n_pairs))

    frame_times = []
    t = float(rng.exponential(config.traffic.mean_interarrival_s))
    while t < duration:
        frame_times.append(t)
        t += float(rng.exponential(config.traffic.mean_interarrival_s))

    occupancy = 0
    delivered_total = 0
    pair_idx = 0
    for created in frame_times:
        egress_t = created + delay_in
        if egress_t >= duration:
            break
        while pair_idx < n_pairs and pair_times[pair_idx] < egress_t:
            if capacity is None or occupancy < capacity:
                occupancy += 1
            pair_idx += 1
        survivors = int((rng.random(payload) < eta_in).sum())
        attempts = min(survivors, occupancy)
        occupancy -= attempts
        successes = int((rng.random(attempts) < config.p_teleport_success).sum())
        if egress_t + latency + delay_out < duration:
            delivered_total += int((rng.random(successes) < eta_out).sum())
    return delivered_total


def memory_walk(
    arrived: np.ndarray, seg_stop: np.ndarray, survivors: np.ndarray, capacity: float
) -> tuple[np.ndarray, np.ndarray, int]:
    """``(stored per segment, attempts per frame, final occupancy)``."""
    n_segments = len(arrived)
    n_processed = len(seg_stop)
    arrived_list = arrived.tolist()
    survivors_list = survivors.tolist()
    stored_list = [0] * n_segments
    attempts_list = [0] * n_processed
    occupancy = 0
    seg = 0
    for i, stop in enumerate(seg_stop.tolist() + [n_segments]):
        for k in range(seg, stop):
            arrived = arrived_list[k]
            if arrived:
                stored = min(arrived, capacity - occupancy)
                stored_list[k] = stored
                occupancy += stored
        seg = stop
        if i < n_processed:
            a = min(survivors_list[i], occupancy)
            attempts_list[i] = a
            occupancy -= a
    return (
        np.asarray(stored_list, dtype=np.int64),
        np.asarray(attempts_list, dtype=np.int64),
        occupancy,
    )


def check_run(result: RunResult, config: ScenarioConfig) -> None:
    """Assert the run invariants of ``result``, the run of ``config``:
    stored + dropped = arrived in every bin, the totals are the bin sums,
    every qubit of each frame is accounted for, and the consumed ranges
    tile the stored pairs, with the final occupancy left in memory."""
    bins, totals, frames = result.bins, result.totals, result.frames
    for b in bins:
        assert min(b.pairs_stored, b.pairs_dropped, b.qubits_delivered, b.frames_completed) >= 0, b
        assert b.pairs_stored + b.pairs_dropped == b.pairs_arrived, b

    for name in (
        "pairs_arrived", "pairs_stored", "pairs_dropped", "qubits_delivered", "frames_completed"
    ):
        assert getattr(totals, name) == sum(getattr(b, name) for b in bins), name
    assert list(result.pairs_by_source) == [s.source_id for s in config.sources]
    assert totals.pairs_arrived == sum(result.pairs_by_source.values())
    assert totals.qubits_delivered == int(frames.delivered.sum())

    n, n_completed = len(frames), len(frames.delivered)
    assert totals.frames_generated >= totals.frames_processed == n
    assert n >= totals.frames_completed == n_completed == len(frames.delivered_at_s)
    for name in ("egress_at_s", "survivors_at_egress", "attempts", "successes", "consumed_start"):
        assert len(getattr(frames, name)) == n, name
    # payload = lost_in + no_pair + failures + lost_out + delivered telescopes;
    # what makes it an accounting is that no term is negative.
    survivors, attempts, successes = frames.survivors_at_egress, frames.attempts, frames.successes
    terms = (
        frames.payload_qubits - survivors,
        survivors - attempts,
        attempts - successes,
        successes[:n_completed] - frames.delivered,
        frames.delivered,
    )
    assert all(np.all(term >= 0) for term in terms)

    assert np.array_equal(frames.consumed_start, np.cumsum(attempts) - attempts)
    draws = engine._draw(config)
    capacity = math.inf if config.memory_capacity is None else config.memory_capacity
    _, ref_attempts, occupancy = memory_walk(
        draws.pairs_per_segment, draws.seg_stop, draws.survivors, capacity
    )
    assert np.array_equal(attempts, ref_attempts)
    assert int(attempts.sum()) + occupancy == totals.pairs_stored


def _fmt(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def frame_rows(frames: FrameTable):
    """The frames.csv rows of a frame table, built one frame at a time."""
    payload = frames.payload_qubits
    n_completed = len(frames.delivered)
    for i in range(len(frames)):
        survivors = int(frames.survivors_at_egress[i])
        attempts = int(frames.attempts[i])
        successes = int(frames.successes[i])
        start = int(frames.consumed_start[i])
        completed = i < n_completed
        delivered = int(frames.delivered[i]) if completed else None
        yield (
            i,
            float(frames.created_at_s[i]),
            float(frames.egress_at_s[i]),
            payload,
            survivors,
            payload - survivors,
            attempts,
            survivors - attempts,
            successes,
            attempts - successes,
            attempts,
            start,
            start + attempts,
            delivered,
            successes - delivered if completed else None,
            float(frames.delivered_at_s[i]) if completed else None,
        )


def write_frames(fh, frames: FrameTable) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(FRAMES_COLUMNS)
    for row in frame_rows(frames):
        writer.writerow([_fmt(v) for v in row])
