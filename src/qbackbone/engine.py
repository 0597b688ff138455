"""Named random streams and the simulation run.

Randomness comes from named substreams derived from the master seed, so
adding a stream never perturbs the others.  For a fixed (config, seed)
the run is fully deterministic.

Every time in a run is known once the frame creation times are drawn:
egress, classical and delivery times are creation times plus constant
latencies.  Draws are therefore organised in stages rather than one
scalar draw per event: frame times fix every integration boundary, so
the per-segment pair-arrival counts and the per-frame thinning can each
be drawn as a single block from their own substream.  Poisson and
binomial counts over disjoint intervals are independent, so the staged
draws are identical in distribution to drawing at each instant; the
per-qubit reference oracle in the test suite checks exactly this.

The only sequential part is the memory walk.  Frames are served at the
egress in index order; before a frame consumes pairs, every segment
ending at or before its egress time is stored, and after the last frame
the remaining segments are stored.  Nothing at or after the horizon
happens: a frame whose egress or delivery time equals ``duration_s`` is
not served or not delivered.

Time has one grid, the channel steps.  Segments are the step grid cut
at the served egress times and the horizon, nothing else: a rate is held
from its step's start, so a visibility-window edge inside a step would
only split a segment into two of the same rate.  A segment takes the
rate of the channel step it starts in, found by searching the step grid.
Bins are whole channel steps cut from the step grid, so a segment counts
toward the bin of its step.  Per-frame results are returned as a
``FrameTable`` of numpy columns, slices of the arrays the stages build,
rather than one object per frame.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .entanglement import coincidence_matrix
from .interface import classical_latency_s
from .linkbudget import fiber_transmittance
from .scenario import ScenarioConfig, active_sources


class RandomStreams:
    """Named random substreams, each a deterministic function of (seed, name)."""

    def __init__(self, master_seed: int) -> None:
        if master_seed < 0:
            raise ValueError(f"master_seed must be >= 0: {master_seed}")
        self.master_seed = master_seed
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        generator = self._streams.get(name)
        if generator is None:
            key = int.from_bytes(hashlib.sha256(name.encode("utf-8")).digest()[:8], "big")
            generator = np.random.default_rng(
                np.random.SeedSequence(entropy=(self.master_seed, key))
            )
            self._streams[name] = generator
        return generator

    @property
    def traffic(self) -> np.random.Generator:
        return self.stream("traffic")

    @property
    def coincidence(self) -> np.random.Generator:
        return self.stream("coincidence")

    @property
    def ingress_access(self) -> np.random.Generator:
        return self.stream("ingress_access")

    @property
    def teleport(self) -> np.random.Generator:
        return self.stream("teleport")

    @property
    def egress_access(self) -> np.random.Generator:
        return self.stream("egress_access")


@dataclass(frozen=True)
class MetricsBin:
    """Aggregated counters over one reporting bin."""

    bin_start_s: float
    pairs_arrived: int
    pairs_stored: int
    pairs_dropped: int
    qubits_delivered: int
    frames_completed: int


@dataclass(frozen=True)
class FrameTable:
    """Per-frame columns of the frames served at the egress, in frame order.

    Row ``i`` is frame ``i``.  The served-frame columns have one entry per
    frame with ``egress_at_s < duration_s``; ``delivered`` and
    ``delivered_at_s`` cover only the completed prefix of those frames, the
    rest were still in flight when the simulation ended.  A frame consumes
    the memory pairs ``[consumed_start, consumed_start + attempts)``.
    Columns are read-only numpy arrays; compare tables column by column
    with ``np.array_equal``.
    """

    payload_qubits: int
    created_at_s: np.ndarray
    egress_at_s: np.ndarray
    survivors_at_egress: np.ndarray
    attempts: np.ndarray
    successes: np.ndarray
    consumed_start: np.ndarray
    delivered: np.ndarray
    delivered_at_s: np.ndarray

    def __post_init__(self) -> None:
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    def __len__(self) -> int:
        return len(self.created_at_s)


@dataclass(frozen=True)
class RunTotals:
    frames_generated: int
    frames_processed: int
    frames_completed: int
    pairs_arrived: int
    pairs_stored: int
    pairs_dropped: int
    qubits_delivered: int


@dataclass(frozen=True)
class RunResult:
    """All outputs of one simulation run."""

    config: ScenarioConfig
    bins: tuple[MetricsBin, ...]
    frames: FrameTable
    totals: RunTotals
    pairs_by_source: dict[str, int]


def _traffic_times(
    rng: np.random.Generator, mean_s: float, duration_s: float
) -> np.ndarray:
    """Frame creation times in [0, duration) drawn in blocks from one stream."""
    times: list[np.ndarray] = []
    last = 0.0
    while last < duration_s:
        gaps = rng.exponential(mean_s, size=4096)
        block = last + np.cumsum(gaps)
        times.append(block)
        last = float(block[-1])
    all_times = np.concatenate(times)
    return all_times[all_times < duration_s]


def run(config: ScenarioConfig) -> RunResult:
    """Simulate one scenario to completion; deterministic for a fixed config."""
    cfg = config
    streams = RandomStreams(cfg.seed)
    duration = cfg.duration_s
    steps_per_bin = cfg.steps_per_bin
    n_steps = cfg.n_steps
    payload = cfg.payload_qubits
    eta_in = fiber_transmittance(cfg.ingress_access)
    eta_out = fiber_transmittance(cfg.egress_access)
    delay_in = classical_latency_s(cfg.ingress_access.length_km)
    delay_out = classical_latency_s(cfg.egress_access.length_km)
    latency = classical_latency_s(cfg.classical_distance_km)
    sources = cfg.sources

    # Stage 1: traffic stream fixes every frame time.
    if duration > 0.0:
        created = _traffic_times(streams.traffic, cfg.traffic.mean_interarrival_s, duration)
    else:
        created = np.empty(0)
    n_frames = len(created)
    egress_times = created + delay_in

    # Stage 2: pair rates of the sources the policy keeps active at each step.
    step_grid = cfg.step_grid
    p = coincidence_matrix(sources, step_grid[:-1])
    emission = np.array([source.emission_rate_hz for source in sources])
    rate_table = np.where(active_sources(cfg.policy, sources, p), emission * p, 0.0)

    # Stage 3: integration boundaries and per-segment coincidence draws.
    # A segment's step is found by searching the step grid it was cut
    # from; ``start // step`` misplaces grid points that are not exact
    # multiples in floating point (steps that are not powers of two).
    # Bins are whole steps, so a segment's bin is its step's.
    bin_starts = step_grid[:n_steps:steps_per_bin]
    n_bins = len(bin_starts)
    boundaries = np.unique(
        np.concatenate(
            [np.clip(step_grid, 0.0, duration), egress_times[egress_times < duration], [duration]]
        )
    )
    seg_start = boundaries[:-1]
    seg_len = np.diff(boundaries)
    n_segments = len(seg_start)
    seg_step = np.searchsorted(step_grid[:-1], seg_start, side="right") - 1
    seg_bin = seg_step // steps_per_bin
    lam = rate_table[seg_step, :] * seg_len[:, None]
    pairs_by_source = streams.coincidence.poisson(lam)
    pairs_per_segment = pairs_by_source.sum(axis=1)

    # Stage 4: access-link survivors for every generated frame.
    survivors = streams.ingress_access.binomial(payload, eta_in, size=n_frames)

    # Stage 5: the memory walk over frames served before the horizon.
    # Egress and delivery times are non-decreasing in the frame index, so
    # served and completed frames are both prefixes of the frame list.
    # Scalar state lives in plain lists; indexing ndarrays element-wise
    # is much slower.
    n_processed = int(np.count_nonzero(egress_times < duration))
    seg_stop = np.searchsorted(boundaries[1:], egress_times[:n_processed], side="right")
    capacity = math.inf if cfg.memory_capacity is None else cfg.memory_capacity
    arrived_list = pairs_per_segment.tolist()
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
    attempts = np.asarray(attempts_list, dtype=np.int64)
    consumed_start = np.cumsum(attempts) - attempts
    stored_per_segment = np.asarray(stored_list, dtype=np.int64)

    # Stage 6: teleport and far-side access thinning; a frame completes
    # when its corrections and the rebuilt frame arrive before the horizon.
    successes = streams.teleport.binomial(attempts, cfg.p_teleport_success)
    delivered_at = egress_times[:n_processed] + latency + delay_out
    n_completed = int(np.count_nonzero(delivered_at < duration))
    delivered = streams.egress_access.binomial(successes[:n_completed], eta_out)
    delivered_bin = np.searchsorted(bin_starts, delivered_at[:n_completed], side="right") - 1

    def per_bin(index: np.ndarray, counts: np.ndarray) -> list[int]:
        # Summed in int64: bincount's float64 weights round counts above 2**53.
        total = np.zeros(n_bins, dtype=np.int64)
        np.add.at(total, index, counts)
        return total.tolist()

    arrived_per_bin = per_bin(seg_bin, pairs_per_segment)
    stored_per_bin = per_bin(seg_bin, stored_per_segment)
    dropped_per_bin = per_bin(seg_bin, pairs_per_segment - stored_per_segment)
    delivered_per_bin = per_bin(delivered_bin, delivered)
    frames_per_bin = np.bincount(delivered_bin, minlength=n_bins).tolist()

    if int(attempts.sum()) + occupancy != sum(stored_per_bin) or any(
        s + d != a for s, d, a in zip(stored_per_bin, dropped_per_bin, arrived_per_bin)
    ):
        raise AssertionError("pair accounting broken after the memory walk")

    bins = tuple(
        MetricsBin(
            bin_start_s=bin_start,
            pairs_arrived=arrived_per_bin[k],
            pairs_stored=stored_per_bin[k],
            pairs_dropped=dropped_per_bin[k],
            qubits_delivered=delivered_per_bin[k],
            frames_completed=frames_per_bin[k],
        )
        for k, bin_start in enumerate(bin_starts.tolist())
    )
    totals = RunTotals(
        frames_generated=n_frames,
        frames_processed=n_processed,
        frames_completed=n_completed,
        pairs_arrived=sum(arrived_per_bin),
        pairs_stored=sum(stored_per_bin),
        pairs_dropped=sum(dropped_per_bin),
        qubits_delivered=int(delivered.sum()),
    )

    frames = FrameTable(
        payload_qubits=payload,
        created_at_s=created[:n_processed],
        egress_at_s=egress_times[:n_processed],
        survivors_at_egress=survivors[:n_processed],
        attempts=attempts,
        successes=successes,
        consumed_start=consumed_start,
        delivered=delivered,
        delivered_at_s=delivered_at[:n_completed],
    )

    return RunResult(
        config=cfg,
        bins=bins,
        frames=frames,
        totals=totals,
        pairs_by_source={
            source.source_id: int(pairs_by_source[:, j].sum())
            for j, source in enumerate(sources)
        },
    )
