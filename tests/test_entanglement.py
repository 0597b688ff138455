"""Pair sources, and the pair arrivals and memory walk ``engine.run`` builds on them.

The engine draws each source's pair count per integration segment and
keeps the mirrored egress/ingress memories as one occupancy count, so
the arrival and memory rules are checked here on whole runs.  The
satellite pass columns that ``pass_slice`` caches are checked against
the kernel and the per-instant oracle, and the commands that share them
are counted in kernel evaluations.
"""

from __future__ import annotations

import collections
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

import _reference
from qbackbone import entanglement
from qbackbone.cli import main
from qbackbone.engine import run
from qbackbone.entanglement import _pass_columns, coincidence_matrix, pass_slice
from qbackbone.geometry import SatellitePassModel
from qbackbone.linkbudget import DARK_FIBER_DB_PER_KM, FiberLink, downlink_profile, fiber_transmittance
from qbackbone.scenario import (
    ConfigError,
    Policy,
    ScenarioConfig,
    fiber_source,
    load_config_file,
    satellite_source,
)

STD_ARM_ETA = fiber_transmittance(FiberLink(75.0, 0.2))
DARK_ARM_ETA = fiber_transmittance(FiberLink(75.0, 0.16))
NO_FRAMES_GAP_S = 1.0e4
ALL_SOURCES = Path(__file__).resolve().parent.parent / "configs" / "all_sources.json"


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
    return result.bins.pairs_arrived


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
        samples = per_second_arrivals(fiber_source("fiber-dark", DARK_FIBER_DB_PER_KM), seed=2)
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
        split_counts = split.bins.pairs_arrived
        whole_counts = whole.bins.pairs_arrived
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
        assert np.array_equal(result.bins.pairs_stored, result.bins.pairs_arrived)
        assert not result.bins.pairs_dropped.any()

    def test_capacity_arithmetic(self):
        # Nothing consumes, so the memory fills to M and drops the rest.
        result = run(config(NO_FRAMES_GAP_S, memory_capacity=5, duration_s=16.0))
        totals = result.totals
        assert totals.pairs_stored == 5
        assert totals.pairs_dropped == totals.pairs_arrived - 5
        assert result.bins.pairs_stored[0] == 5
        assert not result.bins.pairs_stored[1:].any()
        # With frames consuming, no frame finds more than M pairs.
        frames = run(config(memory_capacity=5, duration_s=16.0)).frames
        assert frames.attempts.max() == 5

    def test_unlimited_never_drops(self):
        source = fiber_source(arm_length_km=0.0, emission_rate_hz=1e11)
        result = run(config(sources=(source,), duration_s=0.5))
        assert result.totals.pairs_arrived > 10_000_000
        assert result.totals.pairs_dropped == 0
        assert np.array_equal(result.bins.pairs_stored, result.bins.pairs_arrived)

    def test_fifo_ranges(self):
        result = run(config(memory_capacity=10, duration_s=32.0, seed=5))
        starts, stops = _reference.consumed_ranges(result.frames)
        assert starts[0] == 0
        assert np.array_equal(starts[1:], stops[:-1])
        # What is left after the last frame is still held: at most M pairs.
        assert 0 <= result.totals.pairs_stored - int(stops[-1]) <= 10

    def test_consume_zero_is_noop(self):
        # 20 pairs/s against a 20 ms frame gap: most frames find no pair.
        source = fiber_source(emission_rate_hz=2.0e4)
        frames = run(config(sources=(source,), duration_s=16.0, seed=6)).frames
        idle = np.flatnonzero(frames.attempts[:-1] == 0)
        assert len(idle) > 100
        starts, _ = _reference.consumed_ranges(frames)
        assert np.array_equal(starts[idle + 1], starts[idle])
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
            stored_through = np.cumsum(result.bins.pairs_stored)
            bin_ends = result.bins.bin_start_s + 0.5
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


def shipped_satellites():
    return [s for s in load_config_file(str(ALL_SOURCES)).sources if s.kind == "satellite-pass"]


class TestPassCache:
    """``pass_slice`` evaluates each (pass, steps) once and shares
    read-only columns that equal the kernel's, bit for bit."""

    def setup_method(self):
        _pass_columns.cache_clear()

    @pytest.mark.parametrize("grid", ["2s", "0.25s", "random"])
    def test_cold_and_warm_columns_equal_the_kernel_and_the_oracle(self, grid):
        config = load_config_file(str(ALL_SOURCES))
        if grid == "random":
            times = np.sort(np.random.default_rng(11).uniform(-50.0, config.duration_s + 50.0, 3000))
        else:
            step = 2.0 if grid == "2s" else 0.25
            times = dataclasses.replace(config, channel_step_s=step).step_grid[:-1]
        for source in shipped_satellites():
            cold = pass_slice(source, times)
            warm = pass_slice(source, times.copy())
            assert cold[:2] == warm[:2]
            assert [c.tobytes() for c in cold[2:]] == [c.tobytes() for c in warm[2:]]
            lo, hi, egress, ingress, p = warm
            model, params = source.pass_model, source.link_params
            for station, columns in ((model.egress, egress), (model.ingress, ingress)):
                kernel = downlink_profile(times[lo:hi].tolist(), model, station, params)
                assert columns.shape == (3, hi - lo)
                for column, expected in zip(columns, kernel):
                    assert np.isnan(column).tolist() == [x is None for x in expected]
                    assert column.tobytes() == np.array(expected, np.float64).tobytes()
            full = np.zeros(len(times))
            full[lo:hi] = p
            assert full.tobytes() == _reference.coincidence_matrix((source,), times)[:, 0].tobytes()
            assert p.tobytes() == (egress[2] * ingress[2]).tobytes()
        info = _pass_columns.cache_info()
        assert (info.misses, info.hits) == (3, 3)

    def test_columns_are_read_only(self):
        _, _, egress, ingress, p = pass_slice(shipped_satellites()[0], np.arange(300) * 2.0)
        for column in (egress, ingress, egress[0], ingress[2], p):
            with pytest.raises(ValueError):
                column[0] = 1.0

    def test_cache_holds_at_most_its_bound(self):
        source = shipped_satellites()[0]
        bound = _pass_columns.cache_info().maxsize
        assert bound == 8
        for k in range(bound + 3):
            pass_slice(source, np.arange(300) * 2.0 + 0.125 * k)
        info = _pass_columns.cache_info()
        assert (info.misses, info.currsize) == (bound + 3, bound)


class TestPassTraffic:
    """Commands in one process evaluate each satellite pass once: two
    ``downlink_profile`` calls, egress and ingress, per satellite."""

    def setup_method(self):
        _pass_columns.cache_clear()

    @pytest.fixture
    def evaluations(self, monkeypatch):
        counts = collections.Counter()
        kernel = entanglement.downlink_profile

        def counting(times, pass_model, station, params):
            counts[pass_model] += 1
            return kernel(times, pass_model, station, params)

        monkeypatch.setattr(entanglement, "downlink_profile", counting)
        return counts

    @pytest.fixture
    def fine_doc(self, tmp_path):
        doc = json.loads(ALL_SOURCES.read_text(encoding="utf-8"))
        doc["channel_step_s"] = 0.25
        path = tmp_path / "fine.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def expected(self):
        return {s.pass_model: 2 for s in shipped_satellites()}

    def test_linkbudget_after_simulate_reuses_the_run(self, tmp_path, capsys, fine_doc, evaluations):
        assert main(["simulate", "--config", fine_doc, "--out", str(tmp_path / "out")]) == 0
        for source in shipped_satellites():
            assert main(["linkbudget", "--config", fine_doc, "--source", source.source_id]) == 0
        assert evaluations == self.expected()

    def test_sweep_seeds_share_one_evaluation(self, tmp_path, fine_doc, evaluations):
        argv = ["sweep", "--config", fine_doc, "--out", str(tmp_path / "sweep.csv"), "--memory", "5",
                "--policy", "best-source", "--seeds-per-point", "3"]
        assert main(argv) == 0
        assert evaluations == self.expected()
