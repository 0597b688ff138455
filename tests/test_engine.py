from __future__ import annotations

import collections
import dataclasses
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _reference
from qbackbone import engine
from qbackbone.engine import _traffic_times, run, stream
from qbackbone.linkbudget import classical_latency_s
from qbackbone.scenario import (
    MAX_RUN_CELLS,
    ConfigError,
    Policy,
    ScenarioConfig,
    TrafficConfig,
    builtin_sources,
    dark_fiber_source,
    fiber_source,
    load_config_file,
    satellite_source,
)

CONFIGS_DIR = Path(__file__).resolve().parent.parent / "configs"


ENGINE_STREAMS = ("traffic", "coincidence", "ingress_access", "teleport", "egress_access")


class TestRandomStreams:
    def test_deterministic_per_name(self):
        a = stream(42, "traffic").random(8)
        b = stream(42, "traffic").random(8)
        assert np.array_equal(a, b)

    def test_distinct_names_never_share_state(self):
        draws = {name: stream(42, name).random(8) for name in ENGINE_STREAMS}
        names = list(draws)
        for i, m in enumerate(names):
            for n in names[i + 1:]:
                assert not np.array_equal(draws[m], draws[n])

    def test_adding_a_stream_never_perturbs_others(self):
        baseline = {name: stream(7, name).random(16) for name in ENGINE_STREAMS}
        stream(7, "some_future_stream").random(1000)
        for name in ENGINE_STREAMS:
            assert np.array_equal(stream(7, name).random(16), baseline[name])

    def test_distinct_seeds_differ(self):
        assert not np.array_equal(stream(1, "traffic").random(8), stream(2, "traffic").random(8))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            stream(-1, "traffic")


class TestChunkedDraws:
    """A stream drawn in blocks gives the counts of one call, so a run could
    draw its Poisson and binomial counts chunk by chunk, or only where a
    mean is nonzero, and keep its bytes.  These pin numpy's samplers."""

    NUMPY = f"numpy {np.__version__}"

    @staticmethod
    def means() -> np.ndarray:
        """Segments x sources pair means, 80 % of them zero."""
        rng = np.random.default_rng(3)
        lam = rng.exponential(20.0, size=(10_000, 5))
        return np.where(rng.random(lam.shape) < 0.8, 0.0, lam)

    @pytest.mark.parametrize("rows", [1, 7, 1000, 4096])
    def test_poisson_over_row_blocks_is_one_call(self, rows):
        lam = self.means()
        whole = stream(11, "coincidence").poisson(lam)
        rng = stream(11, "coincidence")
        blocks = np.concatenate([rng.poisson(lam[lo : lo + rows]) for lo in range(0, len(lam), rows)])
        assert np.array_equal(blocks, whole), self.NUMPY

    def test_poisson_of_the_nonzero_means_is_the_dense_draw(self):
        # A zero mean consumes no randomness.
        lam = self.means()
        whole = stream(11, "coincidence").poisson(lam)
        nonzero = lam != 0.0
        sparse = np.zeros_like(whole)
        sparse[nonzero] = stream(11, "coincidence").poisson(lam[nonzero])  # C order
        assert np.array_equal(sparse, whole), self.NUMPY

    @pytest.mark.parametrize("size", [1, 333, 4096])
    def test_binomial_with_scalar_n_over_size_blocks_is_one_call(self, size):
        total = 10_000
        whole = stream(11, "ingress_access").binomial(100_000, 0.79, size=total)
        rng = stream(11, "ingress_access")
        blocks = np.concatenate(
            [rng.binomial(100_000, 0.79, size=min(size, total - lo)) for lo in range(0, total, size)]
        )
        assert np.array_equal(blocks, whole), self.NUMPY

    @pytest.mark.parametrize("size", [1, 333, 4096])
    def test_binomial_with_array_n_over_blocks_is_one_call(self, size):
        # Zero, small and large trial counts: numpy's inversion and BTPE paths.
        rng = np.random.default_rng(4)
        n = rng.integers(0, 100_000, size=10_000) >> rng.integers(0, 17, size=10_000)
        whole = stream(11, "teleport").binomial(n, 0.5)
        rng = stream(11, "teleport")
        blocks = np.concatenate([rng.binomial(n[lo : lo + size], 0.5) for lo in range(0, len(n), size)])
        assert np.array_equal(blocks, whole), self.NUMPY


class TestRun:
    def short(self, **overrides):
        base = dict(duration_s=16.0, seed=3)
        base.update(overrides)
        return ScenarioConfig(**base)

    def test_zero_duration(self):
        result = run(self.short(duration_s=0.0))
        assert len(result.bins) == 0
        assert len(result.frames) == 0
        assert len(result.frames.delivered) == 0
        assert result.totals.frames_generated == 0
        assert result.totals.qubits_delivered == 0

    def test_determinism(self):
        config = self.short()
        a, b = run(config), run(config)
        assert (a.totals, a.pairs_by_source) == (b.totals, b.pairs_by_source)
        _reference.assert_tables_equal(a.bins, b.bins)
        _reference.assert_tables_equal(a.frames, b.frames)

    def test_seed_changes_output(self):
        a = run(self.short(seed=1))
        b = run(self.short(seed=2))
        assert a.totals != b.totals

    def test_totals_match_bin_and_frame_sums(self):
        config = self.short(duration_s=64.0)
        _reference.check_run(run(config), config)

    def test_bin_layout(self):
        result = run(self.short(duration_s=64.0))
        assert len(result.bins) == 8
        assert result.bins.bin_start_s.tolist() == [8.0 * k for k in range(8)]

    def test_frame_accounting_identity(self):
        config = self.short(duration_s=32.0)
        result = run(config)
        assert 0 < len(result.frames.delivered) <= len(result.frames)
        _reference.check_run(result, config)

    def test_columns_are_read_only(self):
        result = run(self.short())
        with pytest.raises(ValueError):
            result.frames.attempts[0] = 1
        with pytest.raises(ValueError):
            result.bins.pairs_stored[0] = 1

    def test_consumed_ranges_are_contiguous_fifo(self):
        config = self.short(duration_s=32.0)
        result = run(config)
        assert result.frames.consumed_start[0] == 0
        _reference.check_run(result, config)

    def test_pair_conservation(self):
        config = self.short(duration_s=32.0, memory_capacity=10)
        result = run(config)
        assert result.totals.pairs_dropped > 0
        _reference.check_run(result, config)

    def test_memory_capacity_limits_throughput(self):
        unlimited = run(self.short(duration_s=64.0))
        capped = run(self.short(duration_s=64.0, memory_capacity=1))
        assert capped.totals.qubits_delivered < unlimited.totals.qubits_delivered
        assert capped.totals.pairs_dropped > 0

    def test_satellite_only_delivers_inside_window(self):
        config = self.short(
            duration_s=96.0,
            sources=(satellite_source("Micius", peak_time_s=48.0),),
            policy=Policy("satellite-only", "Micius"),
        )
        result = run(config)
        assert result.totals.qubits_delivered > 0
        assert result.pairs_by_source["Micius"] == result.totals.pairs_arrived

    def test_satellite_invisible_delivers_nothing(self):
        config = self.short(
            duration_s=16.0,
            sources=(satellite_source("Micius", peak_time_s=5000.0),),
            policy=Policy("satellite-only", "Micius"),
        )
        result = run(config)
        assert result.totals.qubits_delivered == 0
        assert result.totals.pairs_arrived == 0

    def test_mean_delivered_matches_pair_supply(self):
        # fiber bottleneck: nearly every stored pair is teleported, so
        # delivered ~= stored * p_success * eta_out
        config = self.short(duration_s=64.0)
        totals = []
        expected = []
        for seed in range(10):
            result = run(dataclasses.replace(config, seed=seed))
            totals.append(result.totals.qubits_delivered)
            expected.append(result.totals.pairs_stored * 0.5 * 10.0 ** (-0.1))
        assert np.mean(totals) == pytest.approx(
            np.mean(expected), rel=0.02
        )

    def test_dark_fiber_outpaces_standard(self):
        std = [
            run(self.short(duration_s=64.0, seed=s)).totals.qubits_delivered
            for s in range(5)
        ]
        dark = [
            run(
                self.short(duration_s=64.0, seed=s, sources=(dark_fiber_source(),)),
            ).totals.qubits_delivered
            for s in range(5)
        ]
        assert np.mean(dark) > np.mean(std)


class TestTimeGrid:
    def test_non_dyadic_grid_keeps_each_bins_pairs(self):
        # 0.3 s steps and 0.9 s bins are not exact in binary; every segment
        # must still be counted in the bin that contains it.  No frames are
        # sent, so each segment is a whole channel step.
        source = fiber_source(emission_rate_hz=2.0e7)
        base = ScenarioConfig()
        config = dataclasses.replace(
            base,
            sources=(source,),
            duration_s=400.0,
            channel_step_s=0.3,
            bin_width_s=0.9,
            traffic=dataclasses.replace(base.traffic, mean_interarrival_s=1.0e4),
        )
        result = run(config)
        expected = _reference.pair_rate_hz(source, 0.0) * 0.9
        full = result.bins.pairs_arrived[result.bins.bin_start_s + 0.9 <= 400.0]
        assert len(full) == 444
        assert np.all(abs(full - expected) < 5.0 * math.sqrt(expected)), full

    @pytest.mark.parametrize(
        "config",
        [
            # Visibility-window edges fall inside the horizon.
            load_config_file(str(CONFIGS_DIR / "starlink.json")),
            # Bin starts that are not exact multiples of 0.9 in binary.
            dataclasses.replace(
                ScenarioConfig(), duration_s=60.0, channel_step_s=0.3, bin_width_s=0.9
            ),
        ],
        ids=["starlink", "fiber-0.3-0.9"],
    )
    def test_segments_are_the_step_grid_cut_at_egress_times(self, monkeypatch, config):
        shapes = []

        def recording_stream(seed, name):
            generator = stream(seed, name)
            if name != "coincidence":
                return generator

            class Recorder:
                def poisson(self, lam):
                    shapes.append(lam.shape)
                    return generator.poisson(lam)

            return Recorder()

        monkeypatch.setattr(engine, "stream", recording_stream)
        result = run(config)

        duration = config.duration_s
        step_grid = np.arange(config.n_steps + 1) * config.channel_step_s
        boundaries = np.unique(
            np.concatenate([np.minimum(step_grid, duration), result.frames.egress_at_s, [duration]])
        )
        assert shapes == [(len(boundaries) - 1, len(config.sources))]


@st.composite
def sources_and_policies(draw):
    """A subset of the built-in sources, satellites at drawn peak times, and
    any policy those sources admit."""
    sources = []
    for source in builtin_sources():
        if not draw(st.booleans()):
            continue
        if source.kind == "satellite-pass":
            source = satellite_source(source.source_id, peak_time_s=draw(st.floats(-200.0, 250.0)))
        sources.append(source)
    policy = draw(
        st.sampled_from(
            [Policy(kind) for kind in ("fiber-only", "best-source", "all-sources")]
            + [Policy("satellite-only", s.source_id) for s in sources if s.kind == "satellite-pass"]
        )
    )
    return tuple(sources), policy


DEFAULT_SOURCES_POLICY = (ScenarioConfig().sources, ScenarioConfig().policy)


class TestWalkProperties:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        memory=st.one_of(st.none(), st.integers(1, 50)),
        duration=st.floats(0.0, 64.0),
        mean_gap=st.floats(0.005, 2.0),
        sources_policy=st.one_of(st.just(DEFAULT_SOURCES_POLICY), sources_and_policies()),
        step=st.sampled_from([0.3, 0.7, 1.1, 2.0]),
        steps_per_bin=st.sampled_from([1, 3, 4]),
    )
    @example(
        seed=0,
        memory=None,
        duration=1e-10,
        mean_gap=0.02,
        sources_policy=DEFAULT_SOURCES_POLICY,
        step=2.0,
        steps_per_bin=4,
    )
    @example(
        seed=0,
        memory=1,
        duration=8.000000001,
        mean_gap=0.02,
        sources_policy=DEFAULT_SOURCES_POLICY,
        step=2.0,
        steps_per_bin=4,
    )
    @example(
        seed=0,
        memory=None,
        duration=64.0,
        mean_gap=0.02,
        sources_policy=(builtin_sources(), Policy("all-sources")),
        step=2.0,
        steps_per_bin=4,
    )
    @example(
        seed=1,
        memory=3,
        duration=64.0,
        mean_gap=0.05,
        sources_policy=(
            (dark_fiber_source(), satellite_source("Micius", peak_time_s=32.0)),
            Policy("best-source"),
        ),
        step=0.3,
        steps_per_bin=3,
    )
    def test_walk_invariants(
        self, seed, memory, duration, mean_gap, sources_policy, step, steps_per_bin
    ):
        base = ScenarioConfig()
        sources, policy = sources_policy
        config = dataclasses.replace(
            base,
            sources=sources,
            policy=policy,
            seed=seed,
            memory_capacity=memory,
            duration_s=duration,
            channel_step_s=step,
            bin_width_s=step * steps_per_bin,
            traffic=dataclasses.replace(base.traffic, mean_interarrival_s=mean_gap),
        )
        result = run(config)

        # Bins are whole channel steps cut from the step grid.
        n_steps = config.n_steps
        assert config.steps_per_bin == steps_per_bin
        assert len(result.bins) == math.ceil(n_steps / steps_per_bin)
        step_grid = np.arange(n_steps + 1) * step
        bins = result.bins
        assert np.array_equal(bins.bin_start_s, step_grid[:n_steps:steps_per_bin])
        assert np.array_equal(bins.pairs_stored + bins.pairs_dropped, bins.pairs_arrived)
        if memory is None:
            assert not bins.pairs_dropped.any()
        assert set(result.pairs_by_source) == {s.source_id for s in sources}
        assert sum(result.pairs_by_source.values()) == result.totals.pairs_arrived
        assert result.totals.pairs_arrived == int(bins.pairs_arrived.sum())
        assert result.totals.pairs_stored == int(bins.pairs_stored.sum())

        frames = result.frames
        stops = np.cumsum(frames.attempts)
        assert np.array_equal(frames.consumed_start, stops - frames.attempts)
        assert (int(stops[-1]) if len(stops) else 0) <= result.totals.pairs_stored

        if duration > 0.0:
            created = _traffic_times(stream(seed, "traffic"), mean_gap, duration)
        else:
            created = np.empty(0)
        egress = created + classical_latency_s(config.ingress_access.length_km)
        served = egress < duration
        assert np.array_equal(frames.created_at_s, created[served])
        assert np.array_equal(frames.egress_at_s, egress[served])

        latency = classical_latency_s(config.classical_distance_km)
        delay_out = classical_latency_s(config.egress_access.length_km)
        completed = [t + latency + delay_out < duration for t in frames.egress_at_s.tolist()]
        assert completed == [i < len(frames.delivered) for i in range(len(frames))]
        assert frames.delivered_at_s.tolist() == [
            t + latency + delay_out for t in frames.egress_at_s[: len(frames.delivered)].tolist()
        ]

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        duration=st.floats(0.0, 64.0),
        step_and_bins=st.sampled_from([(0.3, 3), (0.7, 2), (1.1, 1), (2.0, 4)]),
        mean_gap=st.floats(0.005, 0.5),
        payload=st.sampled_from([100_000, 20, 1]),
        satellite=st.booleans(),
    )
    def test_sweep_ordering_in_memory(
        self, seed, duration, step_and_bins, mean_gap, payload, satellite
    ):
        # Store (o -> min(o + a, M)) and consume (o -> o - min(s, o)) are both
        # monotone in the occupancy o and in M, so for one seed every
        # occupancy, and with it every attempt count, is monotone in M.
        # Small payloads leave pairs in memory between frames.
        step, bins_per_step = step_and_bins
        base = ScenarioConfig()
        if satellite:
            base = dataclasses.replace(
                base,
                sources=(satellite_source("Micius", peak_time_s=32.0),),
                policy=Policy("satellite-only", "Micius"),
            )
        base = dataclasses.replace(
            base,
            seed=seed,
            duration_s=duration,
            channel_step_s=step,
            bin_width_s=step * bins_per_step,
            traffic=dataclasses.replace(
                base.traffic,
                frame_duration_s=payload / base.traffic.qubit_rate_hz,
                mean_interarrival_s=mean_gap,
            ),
        )
        assert base.traffic.payload_qubits == payload
        results = [
            run(dataclasses.replace(base, memory_capacity=memory))
            for memory in (1, 2, 5, 20, None)
        ]
        for small, large in zip(results, results[1:]):
            assert large.totals.pairs_arrived == small.totals.pairs_arrived
            assert len(large.frames) == len(small.frames)
            assert np.all(large.frames.attempts >= small.frames.attempts)
            assert large.totals.pairs_stored >= small.totals.pairs_stored
            assert large.totals.pairs_dropped <= small.totals.pairs_dropped


# Zero, small, and large enough that a few sum past 2**60 but never past int64.
walk_counts = st.one_of(st.just(0), st.integers(1, 6), st.just(2**56))


@st.composite
def walk_inputs(draw):
    arrived = draw(st.lists(walk_counts, max_size=40))
    survivors = draw(st.lists(walk_counts, max_size=40))
    # Gaps of 0 put several frames after one segment with no store between them.
    gaps = draw(st.lists(st.integers(0, 3), min_size=len(survivors), max_size=len(survivors)))
    seg_stop = np.minimum(np.cumsum(gaps, dtype=np.intp), len(arrived))
    # Capacities past int64 walk as unlimited.
    capacity = draw(st.sampled_from([1, 2, 5, 20, 2**60, 2**62, 2**63, 10**30, math.inf]))
    return (
        np.array(arrived, dtype=np.int64),
        seg_stop,
        np.array(survivors, dtype=np.int64),
        capacity,
    )


def walk_case(arrived, seg_stop, survivors, capacity):
    return (
        np.array(arrived, dtype=np.int64),
        np.array(seg_stop, dtype=np.intp),
        np.array(survivors, dtype=np.int64),
        capacity,
    )


class TestWalkOracle:
    def test_matches_nested_loop(self):
        # The walk takes Lindley's closed form unless a frame leaves more
        # pairs than fit after its take; then it runs the Blelloch scan
        # (_occupancy).  Both forms must run across the examples.
        forms = collections.Counter()

        @settings(max_examples=300, deadline=None, derandomize=True)
        @given(inputs=walk_inputs())
        # Closed form: the running minimum of the prefix sums goes below 0
        # and no frame leaves more than M - s pairs.
        @example(inputs=walk_case([3, 0, 4], [1, 1, 3], [5, 2, 1], 20))
        # Blelloch scan: the memory keeps 2 of 5 pairs and the frame takes
        # 1, where the one-sided form would leave 4 > max(M - s, 0) = 1.
        @example(inputs=walk_case([5, 1], [1], [1], 2))
        def check(inputs):
            with mock.patch.object(engine, "_occupancy", wraps=engine._occupancy) as scan:
                stored, attempts, occupancy = engine._walk(*inputs)
            forms["blelloch" if scan.called else "closed"] += 1
            ref_stored, ref_attempts, ref_occupancy = _reference.memory_walk(*inputs)
            assert stored.dtype == attempts.dtype == np.int64
            assert np.array_equal(stored, ref_stored)
            assert np.array_equal(attempts, ref_attempts)
            assert occupancy == ref_occupancy

        check()
        assert forms["closed"] > 0 and forms["blelloch"] > 0, forms


SHIPPED_CONFIGS = sorted(CONFIGS_DIR.glob("*.json"))
capacity_lists = st.lists(
    st.one_of(st.none(), st.integers(1, 40), st.just(10**30)), min_size=1, max_size=4
)


class TestRunMany:
    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.stem)
    @settings(max_examples=2, deadline=None, derandomize=True)
    @given(capacities=capacity_lists)
    @example(capacities=[20, None, 1, 20])
    def test_each_result_is_the_run_of_its_capacity(self, path, capacities):
        config = load_config_file(str(path))
        results = list(engine.run_many(config, capacities))
        assert len(results) == len(capacities)
        for capacity, result in zip(capacities, results):
            expected = run(dataclasses.replace(config, memory_capacity=capacity))
            _reference.assert_tables_equal(result.bins, expected.bins)
            assert result.totals == expected.totals
            assert result.pairs_by_source == expected.pairs_by_source
            _reference.assert_tables_equal(result.frames, expected.frames)

    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(payload=st.integers(1, 20), seed=st.integers(0, 2**16))
    @example(payload=1, seed=0)
    @example(payload=20, seed=0)
    def test_small_payloads_take_the_blelloch_scan_and_match_single_runs(self, payload, seed):
        # About 16 pairs arrive per frame gap, more in long gaps, and a frame
        # takes at most 20, so frames leave pairs in memory.  At each bounded
        # size the memory fills at least once and the walk leaves the closed
        # form for the Blelloch scan; unlimited memory never fills.
        base = load_config_file(str(CONFIGS_DIR / "dark_fiber.json"))
        config = dataclasses.replace(
            base,
            seed=seed,
            duration_s=20.0,
            traffic=dataclasses.replace(base.traffic, frame_duration_s=payload / base.traffic.qubit_rate_hz),
        )
        assert config.traffic.payload_qubits == payload
        results = engine.run_many(config, [1, 5, 20, None])
        for capacity in [1, 5, 20, None]:
            with mock.patch.object(engine, "_occupancy", wraps=engine._occupancy) as scan:
                result = next(results)
            assert scan.called == (capacity is not None)
            single = dataclasses.replace(config, memory_capacity=capacity)
            _reference.check_run(result, single)
            expected = run(single)
            _reference.assert_tables_equal(result.bins, expected.bins)
            assert result.totals == expected.totals
            assert result.pairs_by_source == expected.pairs_by_source
            _reference.assert_tables_equal(result.frames, expected.frames)

    def test_sources_past_the_ceiling_raise_before_drawing(self, monkeypatch):
        # One source's 1.2M steps load; a run holds a column per source.
        config = ScenarioConfig(
            duration_s=2.4e6, traffic=TrafficConfig(mean_interarrival_s=10.0), sources=builtin_sources()
        )

        def no_draw(config):
            raise AssertionError("stages 1-4 entered")

        monkeypatch.setattr(engine, "_draw", no_draw)
        with pytest.raises(ConfigError, match=f"x 5 sources 6e\\+06 exceeds the ceiling of {MAX_RUN_CELLS}"):
            engine.run_many(config, [None])
