"""Keyed random streams and the simulation run.

Randomness comes from substreams ``stream(seed, name)``, each keyed by
the master seed and a hash of its name, so adding a stream never
perturbs the others.  Each stage draws from its own stream, obtained
once per run.  For a fixed (config, seed) the run is fully deterministic.

Every time in a run is known once the frame creation times are drawn:
egress, classical and delivery times are creation times plus constant
latencies.  Draws are therefore organised in stages rather than one
scalar draw per event: frame times fix every integration boundary, so
the per-segment pair-arrival counts and the per-frame thinning can each
be drawn as a single block from their own substream.  Poisson and
binomial counts over disjoint intervals are independent, so the staged
draws are identical in distribution to drawing at each instant; the
per-qubit reference oracle in the test suite checks exactly this.

The memory walk is the one step whose every value depends on the one
before: each segment stores its arrived pairs up to the capacity M, and
each frame served at the egress takes pairs after every segment ending
at or before its egress time.  Both are clamped shifts of the occupancy,
``o -> min(max(o + a, lo), hi)``: a store is ``(A, -inf, M)`` and a take
``(-s, 0, inf)``.  Shift ``(a1, lo1, hi1)`` followed by ``(a2, lo2, hi2)``
is ``(a1 + a2, clamp(lo1 + a2, lo2, hi2), clamp(hi1 + a2, lo2, hi2))``, so
an inclusive prefix scan of the shifts gives every occupancy (Blelloch
1990; the two-sided Lindley recursion).  The stores before a frame and
its take compose to one shift ``(A_i - s_i, 0, max(M - s_i, 0))``, so the
scan runs over the frames alone, in int64, with one code path for every
capacity including unlimited.  Nothing at or after the horizon happens:
a frame whose egress or delivery time equals ``duration_s`` is not
served or not delivered.

Stages 1-4 (traffic, rate table, segments and coincidence draws,
survivors) do not depend on M.  ``run_many`` draws them once and walks
every capacity over them; ``run`` is its one-capacity case.

Time has one grid, the channel steps.  Segments are the step grid cut
at the served egress times and the horizon, nothing else: a rate is held
from its step's start, so a visibility-window edge inside a step would
only split a segment into two of the same rate.  A segment takes the
rate of the channel step it starts in, found by searching the step grid.
Bins are whole channel steps cut from the step grid, so a segment counts
toward the bin of its step.  Per-frame and per-bin results are read-only
numpy columns, ``FrameTable`` and ``BinTable``, not one object per row.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .entanglement import coincidence_matrix
from .linkbudget import classical_latency_s, fiber_transmittance
from .scenario import ScenarioConfig, active_sources

# The walk's stand-in for unlimited memory.  Occupancy never exceeds the
# pairs arrived, a few MAX_RUN_COUNT (2**56) at most, so any larger
# capacity walks the same, and a capacity plus such a count fits int64.
UNLIMITED_CAPACITY = 2**62


def stream(seed: int, name: str) -> np.random.Generator:
    """Random substream ``name``, a deterministic function of (seed, name)."""
    key = int.from_bytes(hashlib.sha256(name.encode("utf-8")).digest()[:8], "big")
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, key)))


@dataclass(frozen=True)
class _Columns:
    """A table of read-only numpy columns, one row per index; compare
    tables column by column with ``np.array_equal``."""

    def __post_init__(self) -> None:
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    def __len__(self) -> int:
        return len(next(v for v in vars(self).values() if isinstance(v, np.ndarray)))


@dataclass(frozen=True)
class BinTable(_Columns):
    """Per-bin counters, one row per reporting bin in time order."""

    bin_start_s: np.ndarray
    pairs_arrived: np.ndarray
    pairs_stored: np.ndarray
    pairs_dropped: np.ndarray
    qubits_delivered: np.ndarray
    frames_completed: np.ndarray


@dataclass(frozen=True)
class FrameTable(_Columns):
    """Per-frame columns of the frames served at the egress, in frame order.

    Row ``i`` is frame ``i``.  The served-frame columns have one entry per
    frame with ``egress_at_s < duration_s``; ``delivered`` and
    ``delivered_at_s`` cover only the completed prefix of those frames, the
    rest were still in flight when the simulation ended.  A frame consumes
    the memory pairs ``[consumed_start, consumed_start + attempts)``.
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

    bins: BinTable
    frames: FrameTable
    totals: RunTotals
    pairs_by_source: dict[str, int]


def _traffic_times(
    rng: np.random.Generator, mean_s: float, duration_s: float
) -> np.ndarray:
    """Frame creation times in [0, duration) drawn in blocks from one stream."""
    times: list[np.ndarray] = [np.empty(0)]
    last = 0.0
    while last < duration_s:
        gaps = rng.exponential(mean_s, size=4096)
        block = last + np.cumsum(gaps)
        times.append(block)
        last = float(block[-1])
    all_times = np.concatenate(times)
    return all_times[all_times < duration_s]


def _occupancy(a: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Values after each clamped shift ``o -> min(max(o + a[i], lo[i]), hi[i])``
    applied in order to ``o = 0``, with ``lo <= hi``; int64 throughout.

    Two shifts compose to one, ``(a1 + a2, clamp(lo1 + a2, lo2, hi2),
    clamp(hi1 + a2, lo2, hi2))``.  So the values after the odd positions
    are the same scan over the composed pairs, half as long, and each even
    position then applies its own shift to the value before it: an
    inclusive prefix scan (Blelloch 1990) in about 2n work.
    """
    n = len(a)
    if n <= 1:
        return np.minimum(np.maximum(a, lo), hi)
    a1, lo1, hi1 = a[: n - 1 : 2], lo[: n - 1 : 2], hi[: n - 1 : 2]
    a2, lo2, hi2 = a[1::2], lo[1::2], hi[1::2]
    odd = _occupancy(a1 + a2, np.clip(lo1 + a2, lo2, hi2), np.clip(hi1 + a2, lo2, hi2))
    before_even = np.concatenate(([0], odd))[: (n + 1) // 2]
    values = np.empty(n, dtype=np.int64)
    values[1::2] = odd
    values[::2] = np.minimum(np.maximum(before_even + a[::2], lo[::2]), hi[::2])
    return values


def _walk(
    arrived: np.ndarray, seg_stop: np.ndarray, survivors: np.ndarray, capacity: float
) -> tuple[np.ndarray, np.ndarray, int]:
    """Pairs stored per segment, pairs taken per frame, and the final occupancy.

    Segment ``k`` stores up to ``arrived[k]`` pairs, as many as fit under
    ``capacity``; frame ``i`` takes up to ``survivors[i]`` stored pairs
    after the first ``seg_stop[i]`` segments are stored.
    """
    # Occupancy never exceeds the pairs arrived, so a larger capacity walks
    # like UNLIMITED_CAPACITY, which keeps every sum below in int64.
    capacity = int(min(capacity, UNLIMITED_CAPACITY))
    # Frame i's shift: the A_i pairs arrived since the previous frame, then
    # its take of s_i, is (A_i - s_i, 0, max(M - s_i, 0)).
    arrived_before = np.concatenate(([0], np.cumsum(arrived)))
    run_start = np.concatenate(([0], seg_stop))
    run_arrived = np.diff(arrived_before[run_start])
    after = _occupancy(
        run_arrived - survivors,
        np.zeros(len(survivors), dtype=np.int64),
        np.maximum(capacity - survivors, 0),
    )
    before = np.concatenate(([0], after))
    attempts = np.minimum(before[:-1] + run_arrived, capacity) - after
    # Inside the run of segments before frame i (or after the last frame),
    # the occupancy after segment k is min(before[i] + pairs arrived in the
    # run up to k, M); a segment stores the step of that level.
    run_length = np.diff(np.concatenate((run_start, [len(arrived)])))
    level = np.repeat(before - arrived_before[run_start], run_length) + arrived_before[1:]
    stored = np.minimum(level, capacity) - np.minimum(level - arrived, capacity)
    occupancy = min(int(before[-1] + arrived_before[-1] - arrived_before[run_start[-1]]), capacity)
    return stored, attempts, occupancy


@dataclass(frozen=True)
class _Draws:
    """Stages 1-4 of a run: every draw before the memory walk.  None of
    them depends on the memory capacity."""

    n_frames: int
    # Frames served before the horizon, in frame order.
    created: np.ndarray
    egress_times: np.ndarray
    survivors: np.ndarray
    # Pairs arrived from each source, per-segment arrivals, the segments
    # stored before each served frame, and the grid of reporting bins.
    pairs_by_source: np.ndarray
    pairs_per_segment: np.ndarray
    seg_stop: np.ndarray
    seg_bin: np.ndarray
    bin_starts: np.ndarray


def _draw(cfg: ScenarioConfig) -> _Draws:
    duration = cfg.duration_s
    n_steps = cfg.n_steps
    # A bin as wide as the horizon is one bin, and wider ones overflow int64 below.
    steps_per_bin = min(cfg.steps_per_bin, max(n_steps, 1))
    sources = cfg.sources

    # Stage 1: traffic stream fixes every frame time.
    created = _traffic_times(
        stream(cfg.seed, "traffic"), cfg.traffic.mean_interarrival_s, duration
    )
    n_frames = len(created)
    egress_times = created + classical_latency_s(cfg.ingress_access.length_km)
    # Egress and delivery times are non-decreasing in the frame index, so
    # served and completed frames are both prefixes of the frame list.
    n_processed = int(np.count_nonzero(egress_times < duration))
    egress_times = egress_times[:n_processed]

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
    boundaries = np.unique(
        np.concatenate([np.clip(step_grid, 0.0, duration), egress_times, [duration]])
    )
    seg_start = boundaries[:-1]
    seg_len = np.diff(boundaries)
    seg_step = np.searchsorted(step_grid[:-1], seg_start, side="right") - 1
    lam = rate_table[seg_step, :] * seg_len[:, None]
    pairs_by_source = stream(cfg.seed, "coincidence").poisson(lam)

    # Stage 4: access-link survivors for every generated frame.
    survivors = stream(cfg.seed, "ingress_access").binomial(
        cfg.traffic.payload_qubits, fiber_transmittance(cfg.ingress_access), size=n_frames
    )

    return _Draws(
        n_frames=n_frames,
        created=created[:n_processed],
        egress_times=egress_times,
        survivors=survivors[:n_processed],
        pairs_by_source=pairs_by_source.sum(axis=0),
        pairs_per_segment=pairs_by_source.sum(axis=1),
        seg_stop=np.searchsorted(boundaries[1:], egress_times, side="right"),
        seg_bin=seg_step // steps_per_bin,
        bin_starts=step_grid[:n_steps:steps_per_bin],
    )


def _walk_and_finish(cfg: ScenarioConfig, draws: _Draws) -> RunResult:
    duration = cfg.duration_s
    egress_times = draws.egress_times
    pairs_per_segment = draws.pairs_per_segment
    bin_starts = draws.bin_starts
    n_bins = len(bin_starts)

    # Stage 5: the memory walk over frames served before the horizon.
    capacity = math.inf if cfg.memory_capacity is None else cfg.memory_capacity
    stored_per_segment, attempts, occupancy = _walk(
        pairs_per_segment, draws.seg_stop, draws.survivors, capacity
    )
    consumed_start = np.cumsum(attempts) - attempts

    # Stage 6: teleport and far-side access thinning; a frame completes
    # when its corrections and the rebuilt frame arrive before the horizon.
    successes = stream(cfg.seed, "teleport").binomial(attempts, cfg.p_teleport_success)
    delivered_at = (
        egress_times
        + classical_latency_s(cfg.classical_distance_km)
        + classical_latency_s(cfg.egress_access.length_km)
    )
    n_completed = int(np.count_nonzero(delivered_at < duration))
    delivered = stream(cfg.seed, "egress_access").binomial(
        successes[:n_completed], fiber_transmittance(cfg.egress_access)
    )
    delivered_bin = np.searchsorted(bin_starts, delivered_at[:n_completed], side="right") - 1

    def per_bin(index: np.ndarray, counts: np.ndarray) -> np.ndarray:
        # Summed in int64: bincount's float64 weights round counts above 2**53.
        total = np.zeros(n_bins, dtype=np.int64)
        np.add.at(total, index, counts)
        return total

    seg_bin = draws.seg_bin
    bins = BinTable(
        bin_start_s=bin_starts,
        pairs_arrived=per_bin(seg_bin, pairs_per_segment),
        pairs_stored=per_bin(seg_bin, stored_per_segment),
        pairs_dropped=per_bin(seg_bin, pairs_per_segment - stored_per_segment),
        qubits_delivered=per_bin(delivered_bin, delivered),
        frames_completed=np.bincount(delivered_bin, minlength=n_bins),
    )
    totals = RunTotals(
        frames_generated=draws.n_frames,
        frames_processed=len(egress_times),
        frames_completed=n_completed,
        pairs_arrived=int(bins.pairs_arrived.sum()),
        pairs_stored=int(bins.pairs_stored.sum()),
        pairs_dropped=int(bins.pairs_dropped.sum()),
        qubits_delivered=int(delivered.sum()),
    )
    if int(attempts.sum()) + occupancy != totals.pairs_stored or not np.array_equal(
        bins.pairs_stored + bins.pairs_dropped, bins.pairs_arrived
    ):
        raise AssertionError("pair accounting broken after the memory walk")

    frames = FrameTable(
        payload_qubits=cfg.traffic.payload_qubits,
        created_at_s=draws.created,
        egress_at_s=egress_times,
        survivors_at_egress=draws.survivors,
        attempts=attempts,
        successes=successes,
        consumed_start=consumed_start,
        delivered=delivered,
        delivered_at_s=delivered_at[:n_completed],
    )

    return RunResult(
        bins=bins,
        frames=frames,
        totals=totals,
        pairs_by_source={
            source.source_id: count
            for source, count in zip(cfg.sources, draws.pairs_by_source.tolist())
        },
    )


def run_many(config: ScenarioConfig, capacities: Sequence[int | None]) -> Iterator[RunResult]:
    """``run(replace(config, memory_capacity=m))`` for each ``m`` in ``capacities``.

    Stages 1-4 are drawn once and every capacity walks the same draws;
    each obtains the teleport and egress streams afresh, so each result is
    the run of its capacity.  Results are yielded one at a time and not
    kept, so a caller that reduces each one holds a single result.  The
    run's ceilings (``ScenarioConfig.check_ceilings``) are checked as it is
    called, before anything is drawn.
    """
    config.check_ceilings()
    draws = _draw(config)
    return (
        _walk_and_finish(dataclasses.replace(config, memory_capacity=m), draws)
        for m in capacities
    )


def run(config: ScenarioConfig) -> RunResult:
    """Simulate one scenario to completion; deterministic for a fixed config."""
    return next(run_many(config, [config.memory_capacity]))
