"""Pair sources, and the pair arrivals and memory walk ``engine.run`` builds on them.

The engine draws each source's pair count per integration segment and
keeps the mirrored egress/ingress memories as one occupancy count, so
the arrival and memory rules are checked here on whole runs.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import _reference
from qbackbone.engine import run
from qbackbone.entanglement import coincidence_matrix
from qbackbone.geometry import SatellitePassModel
from qbackbone.linkbudget import FiberLink, downlink_profile, fiber_transmittance
from qbackbone.scenario import (
    ConfigError,
    Policy,
    ScenarioConfig,
    dark_fiber_source,
    fiber_source,
    satellite_source,
)

STD_ARM_ETA = fiber_transmittance(FiberLink(75.0, 0.2))
DARK_ARM_ETA = fiber_transmittance(FiberLink(75.0, 0.16))
NO_FRAMES_GAP_S = 1.0e4


def config(mean_gap_s: float | None = None, **overrides):
    """The default scenario with overrides; ``mean_gap_s`` sets the frame gap."""
    base = ScenarioConfig()
    if mean_gap_s is not None:
        overrides["traffic"] = dataclasses.replace(base.traffic, mean_interarrival_s=mean_gap_s)
    return dataclasses.replace(base, **overrides)


def invisible_satellite(**overrides):
    return config(
        sources=(satellite_source("Micius", peak_time_s=5000.0),),
        policy=Policy("satellite-only", "Micius"),
        **overrides,
    )


def per_second_arrivals(source, seed: int, duration_s: float = 100.0) -> np.ndarray:
    result = run(
        config(sources=(source,), duration_s=duration_s, bin_width_s=1.0,
               channel_step_s=1.0, seed=seed)
    )
    return np.array([b.pairs_arrived for b in result.bins])


class TestCoincidenceCount:
    def test_dead_arm_always_zero(self):
        source = invisible_satellite().sources[0]
        model = source.pass_model
        (_, _, etas_a), (_, _, etas_b) = (
            downlink_profile((0.0, 8.0, 16.0), model, station, source.link_params)
            for station in (model.egress, model.ingress)
        )
        for a, b in zip(etas_a, etas_b):
            assert 0.0 in (a, b)
        assert not coincidence_matrix((source,), np.arange(5) * 2.0).any()
        for seed in range(20):
            result = run(invisible_satellite(duration_s=8.0, seed=seed))
            assert result.totals.pairs_arrived == 0

    def test_standard_fiber_rate(self):
        # mean 2e5 * 10^-3 = 200.0 per second
        samples = per_second_arrivals(fiber_source(), seed=1)
        mean = 2.0e5 * STD_ARM_ETA**2
        assert len(samples) == 100
        assert samples.min() > mean - 5 * math.sqrt(mean)
        assert samples.max() < mean + 5 * math.sqrt(mean)
        assert samples.mean() == pytest.approx(mean, abs=3 * math.sqrt(mean / 100))

    def test_dark_fiber_rate(self):
        samples = per_second_arrivals(dark_fiber_source(), seed=2)
        mean = 2.0e5 * DARK_ARM_ETA**2
        assert samples.mean() == pytest.approx(mean, abs=3 * math.sqrt(mean / 100))

    def test_disjoint_intervals_sum_in_distribution(self):
        # A bin cut into many segments (every frame egress and 0.25 s step
        # edge) has the mean and variance of an uncut bin: Poisson(lam).
        source = fiber_source(emission_rate_hz=1.0e5)
        lam = _reference.pair_rate_hz(source, 0.0)
        trials = 2000
        common = dict(sources=(source,), duration_s=float(trials), bin_width_s=1.0)
        split = run(config(0.05, channel_step_s=0.25, seed=3, **common))
        whole = run(config(NO_FRAMES_GAP_S, channel_step_s=1.0, seed=4, **common))
        assert len(split.frames) > 10 * trials
        assert len(whole.frames) == 0
        split_counts = np.array([b.pairs_arrived for b in split.bins])
        whole_counts = np.array([b.pairs_arrived for b in whole.bins])
        se_mean = math.sqrt(lam / trials)
        assert split_counts.mean() == pytest.approx(whole_counts.mean(), abs=6 * se_mean)
        assert split_counts.mean() == pytest.approx(lam, abs=6 * se_mean)
        se_var = lam * math.sqrt(2.0 / (trials - 1)) * 2.5
        assert split_counts.var(ddof=1) == pytest.approx(whole_counts.var(ddof=1), abs=6 * se_var)

    def test_validation(self):
        for rate in (-1.0, 0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                fiber_source(emission_rate_hz=rate)
            with pytest.raises(ValueError):
                dataclasses.replace(satellite_source("Micius"), emission_rate_hz=rate)
        with pytest.raises(ValueError):
            fiber_source(arm_length_km=-1.0)


class TestMemory:
    def test_store_into_empty(self):
        # No frames consume, and 3,200 pairs fit: every arrival is stored.
        result = run(config(NO_FRAMES_GAP_S, memory_capacity=10**6, duration_s=16.0))
        assert result.totals.pairs_arrived > 0
        for b in result.bins:
            assert (b.pairs_stored, b.pairs_dropped) == (b.pairs_arrived, 0)

    def test_capacity_arithmetic(self):
        # Nothing consumes, so the memory fills to M and drops the rest.
        result = run(config(NO_FRAMES_GAP_S, memory_capacity=5, duration_s=16.0))
        totals = result.totals
        assert totals.pairs_stored == 5
        assert totals.pairs_dropped == totals.pairs_arrived - 5
        assert result.bins[0].pairs_stored == 5
        assert all(b.pairs_stored == 0 for b in result.bins[1:])
        # With frames consuming, no frame finds more than M pairs.
        frames = run(config(memory_capacity=5, duration_s=16.0)).frames
        assert frames.attempts.max() == 5

    def test_unlimited_never_drops(self):
        source = fiber_source(arm_length_km=0.0, emission_rate_hz=1e11)
        result = run(config(sources=(source,), duration_s=0.5))
        assert result.totals.pairs_arrived > 10_000_000
        assert result.totals.pairs_dropped == 0
        for b in result.bins:
            assert b.pairs_stored == b.pairs_arrived

    def test_fifo_ranges(self):
        result = run(config(memory_capacity=10, duration_s=32.0, seed=5))
        frames = result.frames
        stops = frames.consumed_start + frames.attempts
        assert frames.consumed_start[0] == 0
        assert np.array_equal(frames.consumed_start[1:], stops[:-1])
        # What is left after the last frame is still held: at most M pairs.
        assert 0 <= result.totals.pairs_stored - int(stops[-1]) <= 10

    def test_consume_zero_is_noop(self):
        # 20 pairs/s against a 20 ms frame gap: most frames find no pair.
        source = fiber_source(emission_rate_hz=2.0e4)
        frames = run(config(sources=(source,), duration_s=16.0, seed=6)).frames
        idle = np.flatnonzero(frames.attempts[:-1] == 0)
        assert len(idle) > 100
        assert np.array_equal(frames.consumed_start[idle + 1], frames.consumed_start[idle])
        assert np.all(frames.successes[frames.attempts == 0] == 0)

    def test_overconsume_rejected(self):
        # The frames served before a bin's end only consume pairs stored in
        # that bin or earlier, however large their payload.
        source = fiber_source(emission_rate_hz=2.0e4)
        for memory in (None, 1, 3):
            result = run(
                config(sources=(source,), memory_capacity=memory, duration_s=16.0,
                       bin_width_s=0.5, channel_step_s=0.5, seed=7)
            )
            frames = result.frames
            stored_through = np.cumsum([b.pairs_stored for b in result.bins])
            bin_ends = np.array([b.bin_start_s + 0.5 for b in result.bins])
            served_before = np.searchsorted(frames.egress_at_s, bin_ends, side="left")
            consumed_through = np.concatenate([[0], np.cumsum(frames.attempts)])[served_before]
            assert np.all(consumed_through <= stored_through)
            assert np.all(frames.attempts <= frames.survivors_at_egress)
            if memory is not None:
                assert frames.attempts.max() <= memory

    def test_capacity_validation(self):
        for memory in (0, -1):
            with pytest.raises(ConfigError):
                config(memory_capacity=memory)
        assert config(memory_capacity=1).memory_capacity == 1


class TestSources:
    def test_fiber_source_constant(self):
        source = fiber_source()
        p = coincidence_matrix((source,), np.array([0.0, 599.0]))
        assert p[0, 0] == p[1, 0] == STD_ARM_ETA**2
        assert _reference.pair_rate_hz(source, 0.0) == pytest.approx(2.0e5 * STD_ARM_ETA**2)

    def test_satellite_source_peak_and_gating(self):
        source = satellite_source("Micius")
        p_peak, p_gone = coincidence_matrix((source,), np.array([128.0, 128.0 + 5000.0]))[:, 0]
        assert p_peak > 0.0
        assert p_gone == 0.0
        eta_a, eta_b = _reference.transmittances(source, 128.0)
        assert p_peak == eta_a * eta_b

    def test_satellite_requires_station_parameters(self):
        # a pass model carries one StationPass for each role
        model = satellite_source("Micius").pass_model
        for bad in (None, {"Munich": model.egress}, 75.0):
            with pytest.raises(ValueError, match="ingress"):
                SatellitePassModel(model.altitude_km, model.egress, bad)
            with pytest.raises(ValueError, match="egress"):
                SatellitePassModel(model.altitude_km, bad, model.ingress)
        with pytest.raises(TypeError):
            SatellitePassModel(model.altitude_km, model.egress)
