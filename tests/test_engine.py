from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qbackbone.engine import STREAM_NAMES, RandomStreams, _traffic_times, run
from qbackbone.interface import classical_latency_s
from qbackbone.scenario import (
    Policy,
    dark_fiber_source,
    default_config,
    satellite_source,
)


class TestRandomStreams:
    def test_deterministic_per_name(self):
        a = RandomStreams(42).traffic.random(8)
        b = RandomStreams(42).traffic.random(8)
        assert np.array_equal(a, b)

    def test_distinct_names_never_share_state(self):
        streams = RandomStreams(42)
        draws = {name: streams.stream(name).random(8) for name in STREAM_NAMES}
        names = list(draws)
        for i, m in enumerate(names):
            for n in names[i + 1:]:
                assert not np.array_equal(draws[m], draws[n])

    def test_adding_a_stream_never_perturbs_others(self):
        plain = RandomStreams(7)
        baseline = plain.teleport.random(16)
        mixed = RandomStreams(7)
        mixed.stream("some_future_stream").random(1000)
        assert np.array_equal(mixed.teleport.random(16), baseline)

    def test_distinct_seeds_differ(self):
        assert not np.array_equal(
            RandomStreams(1).traffic.random(8), RandomStreams(2).traffic.random(8)
        )

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            RandomStreams(-1)


class TestRun:
    def short(self, **overrides):
        base = dict(duration_s=16.0, seed=3)
        base.update(overrides)
        return dataclasses.replace(default_config(), **base)

    def test_zero_duration(self):
        result = run(self.short(duration_s=0.0))
        assert result.bins == ()
        assert result.frames == ()
        assert result.totals.frames_generated == 0
        assert result.totals.qubits_delivered == 0

    def test_determinism(self):
        config = self.short()
        assert run(config) == run(config)

    def test_seed_changes_output(self):
        a = run(self.short(seed=1), keep_frames=False)
        b = run(self.short(seed=2), keep_frames=False)
        assert a.totals != b.totals

    def test_totals_match_bin_and_frame_sums(self):
        result = run(self.short(duration_s=64.0))
        assert result.totals.qubits_delivered == sum(b.qubits_delivered for b in result.bins)
        assert result.totals.pairs_arrived == sum(b.pairs_arrived for b in result.bins)
        assert result.totals.pairs_stored == sum(b.pairs_stored for b in result.bins)
        assert result.totals.pairs_dropped == sum(b.pairs_dropped for b in result.bins)
        assert result.totals.frames_completed == sum(b.frames_completed for b in result.bins)
        assert result.totals.qubits_delivered == sum(
            f.delivered for f in result.frames if f.delivered is not None
        )
        assert result.totals.pairs_arrived == sum(result.pairs_by_source.values())

    def test_bin_layout(self):
        result = run(self.short(duration_s=64.0))
        assert len(result.bins) == 8
        assert [b.bin_start_s for b in result.bins] == [8.0 * k for k in range(8)]

    def test_frame_accounting_identity(self):
        result = run(self.short(duration_s=32.0))
        assert result.frames
        for f in result.frames:
            if f.delivered is None:
                continue
            lost_access_in = f.payload_qubits - f.survivors_at_egress
            failures = f.attempts - f.successes
            lost_access_out = f.successes - f.delivered
            assert (
                f.payload_qubits
                == lost_access_in
                + f.dropped_for_no_pair
                + failures
                + lost_access_out
                + f.delivered
            )
            assert f.pairs_consumed == f.attempts
            assert f.consumed_stop - f.consumed_start == f.attempts

    def test_consumed_ranges_are_contiguous_fifo(self):
        result = run(self.short(duration_s=32.0))
        cursor = 0
        for f in result.frames:
            assert f.consumed_start == cursor
            cursor = f.consumed_stop

    def test_pair_conservation(self):
        result = run(self.short(duration_s=32.0, memory_capacity=10))
        totals = result.totals
        consumed = sum(f.pairs_consumed for f in result.frames)
        leftover = totals.pairs_stored - consumed
        assert leftover >= 0
        assert totals.pairs_arrived == totals.pairs_stored + totals.pairs_dropped

    def test_memory_capacity_limits_throughput(self):
        unlimited = run(self.short(duration_s=64.0), keep_frames=False)
        capped = run(self.short(duration_s=64.0, memory_capacity=1), keep_frames=False)
        assert capped.totals.qubits_delivered < unlimited.totals.qubits_delivered
        assert capped.totals.pairs_dropped > 0

    def test_satellite_only_delivers_inside_window(self):
        config = self.short(
            duration_s=96.0,
            sources=(satellite_source("Micius", peak_time_s=48.0),),
            policy=Policy("satellite-only", "Micius"),
        )
        result = run(config, keep_frames=False)
        assert result.totals.qubits_delivered > 0
        assert result.pairs_by_source["Micius"] == result.totals.pairs_arrived

    def test_satellite_invisible_delivers_nothing(self):
        config = self.short(
            duration_s=16.0,
            sources=(satellite_source("Micius", peak_time_s=5000.0),),
            policy=Policy("satellite-only", "Micius"),
        )
        result = run(config, keep_frames=False)
        assert result.totals.qubits_delivered == 0
        assert result.totals.pairs_arrived == 0

    def test_config_echo_and_seed(self):
        config = self.short(seed=17)
        result = run(config, keep_frames=False)
        assert result.config == config
        assert result.seed == 17

    def test_keep_frames_false_drops_records_only(self):
        config = self.short()
        with_frames = run(config)
        without = run(config, keep_frames=False)
        assert without.frames == ()
        assert with_frames.totals == without.totals
        assert with_frames.bins == without.bins

    def test_mean_delivered_matches_pair_supply(self):
        # fiber bottleneck: nearly every stored pair is teleported, so
        # delivered ~= stored * p_success * eta_out
        config = self.short(duration_s=64.0)
        totals = []
        expected = []
        for seed in range(10):
            result = run(dataclasses.replace(config, seed=seed), keep_frames=False)
            totals.append(result.totals.qubits_delivered)
            expected.append(result.totals.pairs_stored * 0.5 * 10.0 ** (-0.1))
        assert np.mean(totals) == pytest.approx(
            np.mean(expected), rel=0.02
        )

    def test_dark_fiber_outpaces_standard(self):
        std = [
            run(self.short(duration_s=64.0, seed=s), keep_frames=False).totals.qubits_delivered
            for s in range(5)
        ]
        dark = [
            run(
                self.short(duration_s=64.0, seed=s, sources=(dark_fiber_source(),)),
                keep_frames=False,
            ).totals.qubits_delivered
            for s in range(5)
        ]
        assert np.mean(dark) > np.mean(std)


class TestWalkProperties:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        memory=st.one_of(st.none(), st.integers(1, 50)),
        duration=st.floats(0.0, 64.0),
        mean_gap=st.floats(0.005, 2.0),
    )
    @example(seed=0, memory=None, duration=1e-10, mean_gap=0.02)
    @example(seed=0, memory=1, duration=8.000000001, mean_gap=0.02)
    def test_walk_invariants(self, seed, memory, duration, mean_gap):
        base = default_config()
        config = dataclasses.replace(
            base,
            seed=seed,
            memory_capacity=memory,
            duration_s=duration,
            traffic=dataclasses.replace(base.traffic, mean_interarrival_s=mean_gap),
        )
        result = run(config)

        assert len(result.bins) == config.n_bins
        for b in result.bins:
            assert b.pairs_stored + b.pairs_dropped == b.pairs_arrived
            if memory is None:
                assert b.pairs_dropped == 0

        cursor = 0
        for f in result.frames:
            assert f.consumed_start == cursor
            assert f.consumed_stop == cursor + f.attempts
            cursor = f.consumed_stop
        assert cursor <= result.totals.pairs_stored

        if duration > 0.0:
            created = _traffic_times(RandomStreams(seed).traffic, mean_gap, duration)
        else:
            created = np.empty(0)
        egress = created + classical_latency_s(config.ingress_access.length_km)
        served = egress < duration
        assert [f.frame_id for f in result.frames] == list(range(int(served.sum())))
        assert [f.egress_at_s for f in result.frames] == egress[served].tolist()

        latency = classical_latency_s(config.classical_distance_km)
        delay_out = classical_latency_s(config.egress_access.length_km)
        for f in result.frames:
            assert (f.delivered is None) == (f.egress_at_s + latency + delay_out >= duration)
