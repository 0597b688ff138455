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
scan runs over the frames alone, in int64.  Every lower clamp is 0, so
unlimited memory walks by the one-sided recursion's closed form,
``S - min(0, running minimum of S)`` over the prefix sums ``S`` of
``A_i - s_i``.  By induction that is the walk of every M under which no
frame finds more pairs than both M and ``s_i``, leaving more than
``max(M - s_i, 0)``; under any other M (small payloads) the scan runs.
Nothing at or after the horizon happens: a frame whose egress or delivery
time equals ``duration_s`` is not served or not delivered.

Stages 1-4 (traffic, rate table, segments and coincidence draws,
survivors), the unlimited walk, the delivery times and bins, and the pairs
arrived per bin do not depend on M.  ``_share`` builds them once into one
read-only record, ``_Shared``, and ``_finish`` finishes a capacity from
that record alone, drawing stage 6 from the start of the record's streams.
``run_many`` builds one record per call; ``run`` is its one-capacity case.

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

import hashlib
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
    """A record whose numpy arrays are read-only; in a table they are columns,
    one row per index, and tables compare column by column with ``np.array_equal``."""

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
    rest were still in flight when the simulation ended.
    """

    payload_qubits: int
    created_at_s: np.ndarray
    egress_at_s: np.ndarray
    survivors_at_egress: np.ndarray
    attempts: np.ndarray
    successes: np.ndarray
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
        # Not a tuning knob: the block size fixes the bits of every creation time.
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


@dataclass(frozen=True)
class _Walk(_Columns):
    """A memory walk and its solution: segment k stores up to ``arrived[k]``, frame
    i takes up to ``survivors[i]`` after the first ``seg_stop[i]`` segments.  Before M
    clamps them, ``found`` is the pairs each frame finds before its take and ``level``
    each segment's level; ``tail`` is the pairs arrived after the last frame."""

    arrived: np.ndarray
    seg_stop: np.ndarray
    survivors: np.ndarray
    found: np.ndarray
    level: np.ndarray
    tail: int


def _solve_walk(
    arrived: np.ndarray, seg_stop: np.ndarray, survivors: np.ndarray, capacity: int | None = None
) -> _Walk:
    """The walk of unlimited memory by Lindley's closed form, else of ``capacity`` by the scan."""
    arrived_before = np.concatenate(([0], np.cumsum(arrived)))
    run_start = np.concatenate(([0], seg_stop))
    # Frame i's shift: the A_i pairs arrived since the previous frame, then
    # its take of s_i, is (A_i - s_i, 0, max(M - s_i, 0)).
    run_arrived = np.diff(arrived_before[run_start])
    if capacity is None:
        # Lindley's one-sided recursion o -> max(o + a, 0) has the closed
        # form S - min(0, running minimum of S) over S = cumsum(a).
        after = np.cumsum(run_arrived - survivors)
        after -= np.minimum(np.minimum.accumulate(after), 0)
    else:
        zeros = np.zeros(len(survivors), dtype=np.int64)
        after = _occupancy(run_arrived - survivors, zeros, np.maximum(capacity - survivors, 0))
    before = np.concatenate(([0], after))
    # Inside the run of segments before frame i (or after the last frame),
    # the level after segment k is before[i] + pairs arrived in the run up to k.
    run_length = np.diff(run_start, append=len(arrived))
    level = np.repeat(before - arrived_before[run_start], run_length) + arrived_before[1:]
    tail = int(arrived_before[-1] - arrived_before[run_start[-1]])
    return _Walk(arrived, seg_stop, survivors, before[:-1] + run_arrived, level, tail)


def _walk(walk: _Walk, capacity: int | None) -> tuple[np.ndarray, np.ndarray, int]:
    """Pairs stored per segment, pairs taken per frame and the final occupancy of
    ``walk`` under ``capacity``, None for unlimited memory."""
    # Occupancy never exceeds the pairs arrived, so unlimited memory and any larger
    # capacity walk like UNLIMITED_CAPACITY, which keeps every sum below in int64.
    capacity = UNLIMITED_CAPACITY if capacity is None else int(min(capacity, UNLIMITED_CAPACITY))
    # Unlimited memory walks as M does unless a frame finds more pairs than
    # both M and its take hold, and so leaves more than max(M - s, 0).
    if np.any(walk.found > np.maximum(walk.survivors, capacity)):
        walk = _solve_walk(walk.arrived, walk.seg_stop, walk.survivors, capacity)
    # A frame takes what it finds up to M and s; a segment drops what its level passes M by.
    attempts = np.minimum(np.minimum(walk.found, walk.survivors), capacity)
    dropped = np.clip(walk.level - capacity, 0, walk.arrived)
    left = int(min(walk.found[-1], capacity) - attempts[-1]) if len(attempts) else 0
    return walk.arrived - dropped, attempts, min(left + walk.tail, capacity)


def _per_bin(index: np.ndarray, counts: np.ndarray, n_bins: int) -> np.ndarray:
    # Summed in int64: bincount's float64 weights round counts above 2**53.
    total = np.zeros(n_bins, dtype=np.int64)
    np.add.at(total, index, counts)
    return total


@dataclass(frozen=True)
class _Shared(_Columns):
    """What no memory capacity changes in a run of ``config``: the frames generated,
    the creation and egress times of the frames served before the horizon and
    their walk, each segment's bin, the bin starts, each served frame's delivery
    time and each completed frame's bin, the pairs arrived and frames completed per
    bin, the pairs per source, and the stage-6 streams with the states they start at."""

    config: ScenarioConfig
    n_frames: int
    created: np.ndarray
    egress_times: np.ndarray
    walk: _Walk
    seg_bin: np.ndarray
    bin_starts: np.ndarray
    delivered_at: np.ndarray
    delivered_bin: np.ndarray
    pairs_arrived: np.ndarray
    frames_completed: np.ndarray
    pairs_by_source: dict[str, int]
    streams: tuple[np.random.Generator, np.random.Generator]
    starts: tuple[dict, dict]


def _share(cfg: ScenarioConfig) -> _Shared:
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
    seg_step = np.searchsorted(step_grid[:-1], boundaries[:-1], side="right") - 1
    counts = stream(cfg.seed, "coincidence").poisson(rate_table[seg_step, :] * np.diff(boundaries)[:, None])
    arrived, by_source = counts.sum(axis=1), counts.sum(axis=0).tolist()
    seg_stop = np.searchsorted(boundaries[1:], egress_times, side="right")
    seg_bin = seg_step // steps_per_bin
    # Freed before the walk, whose peak they would otherwise add to.
    del p, rate_table, boundaries, seg_step, counts

    # Stage 4: access-link survivors for every generated frame.
    survivors = stream(cfg.seed, "ingress_access").binomial(
        cfg.traffic.payload_qubits, fiber_transmittance(cfg.ingress_access), size=n_frames
    )
    walk = _solve_walk(arrived, seg_stop, survivors[:n_processed])

    delivered_at = egress_times + classical_latency_s(cfg.classical_distance_km)
    delivered_at += classical_latency_s(cfg.egress_access.length_km)
    bin_starts = step_grid[:n_steps:steps_per_bin]
    n_completed = int(np.count_nonzero(delivered_at < duration))
    delivered_bin = np.searchsorted(bin_starts, delivered_at[:n_completed], side="right") - 1
    streams = (stream(cfg.seed, "teleport"), stream(cfg.seed, "egress_access"))
    return _Shared(
        config=cfg,
        n_frames=n_frames,
        created=created[:n_processed],
        egress_times=egress_times,
        walk=walk,
        seg_bin=seg_bin,
        bin_starts=bin_starts,
        delivered_at=delivered_at,
        delivered_bin=delivered_bin,
        pairs_arrived=_per_bin(seg_bin, arrived, len(bin_starts)),
        frames_completed=np.bincount(delivered_bin, minlength=len(bin_starts)),
        pairs_by_source=dict(zip((s.source_id for s in sources), by_source)),
        streams=streams,
        starts=tuple(rng.bit_generator.state for rng in streams),
    )


def _finish(shared: _Shared, capacity: int | None) -> RunResult:
    cfg, walk, seg_bin, n_bins = shared.config, shared.walk, shared.seg_bin, len(shared.bin_starts)

    # Stage 5: the memory walk over frames served before the horizon.  Its stores
    # are summed per bin at once, so that they are not held through stage 6.
    stored, attempts, occupancy = _walk(walk, capacity)
    pairs_stored = _per_bin(seg_bin, stored, n_bins)
    pairs_dropped = _per_bin(seg_bin, walk.arrived - stored, n_bins)
    del stored

    # Stage 6: teleport and far-side access thinning, each from the start of
    # its stream; a frame completes when its corrections and the rebuilt
    # frame arrive before the horizon.
    for rng, start in zip(shared.streams, shared.starts):
        rng.bit_generator.state = start
    teleport, egress = shared.streams
    successes = teleport.binomial(attempts, cfg.p_teleport_success)
    n_completed = len(shared.delivered_bin)
    delivered = egress.binomial(successes[:n_completed], fiber_transmittance(cfg.egress_access))

    bins = BinTable(
        bin_start_s=shared.bin_starts,
        pairs_arrived=shared.pairs_arrived,
        pairs_stored=pairs_stored,
        pairs_dropped=pairs_dropped,
        qubits_delivered=_per_bin(shared.delivered_bin, delivered, n_bins),
        frames_completed=shared.frames_completed,
    )
    totals = RunTotals(
        frames_generated=shared.n_frames,
        frames_processed=len(shared.egress_times),
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
        created_at_s=shared.created,
        egress_at_s=shared.egress_times,
        survivors_at_egress=walk.survivors,
        attempts=attempts,
        successes=successes,
        delivered=delivered,
        delivered_at_s=shared.delivered_at[:n_completed],
    )

    return RunResult(bins=bins, frames=frames, totals=totals, pairs_by_source=dict(shared.pairs_by_source))


def run_many(config: ScenarioConfig, capacities: Sequence[int | None]) -> Iterator[RunResult]:
    """``run(replace(config, memory_capacity=m))`` for each ``m`` in ``capacities``.

    One ``_Shared`` record holds what no capacity changes, and each capacity is
    finished from that record alone, drawing from the start of its teleport and
    egress streams.  Results are yielded one at a time and not kept, so a
    caller that reduces each one holds a single result.  The run's ceilings
    (``ScenarioConfig.check_ceilings``) are checked before anything is drawn.
    """
    config.check_ceilings()
    shared = _share(config)
    return (_finish(shared, m) for m in capacities)


def run(config: ScenarioConfig) -> RunResult:
    """Simulate one scenario to completion; deterministic for a fixed config."""
    return next(run_many(config, [config.memory_capacity]))
