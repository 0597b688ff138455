"""Classical latency, and the egress/ingress rules ``engine.run`` applies per frame.

At the egress each surviving payload qubit is teleported against one
stored pair, in FIFO index order; at the ingress the frame is rebuilt
from the corrections and crosses the far access fiber.  The engine
applies these rules column-wise, so they are checked on its frame
columns.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math

import numpy as np
import pytest

import _reference
from qbackbone.cli import main
from qbackbone.engine import run
from qbackbone.linkbudget import FiberLink, classical_latency_s
from qbackbone.scenario import (
    Policy,
    ScenarioConfig,
    config_to_dict,
    fiber_source,
    satellite_source,
)

ETA_5KM = 10.0 ** (-0.1)
LOSSLESS = FiberLink(0.0, 0.2)


def config(**overrides):
    return ScenarioConfig(**overrides)


def saturated(**overrides):
    """A lossless 1e11 Hz source: every frame finds more pairs than survivors."""
    return config(
        sources=(fiber_source(arm_length_km=0.0, emission_rate_hz=1e11),),
        **overrides,
    )


def invisible_satellite(**overrides):
    """A satellite pass far outside the horizon: the memories stay empty."""
    return config(
        sources=(satellite_source("Micius", peak_time_s=5000.0),),
        policy=Policy("satellite-only", "Micius"),
        **overrides,
    )


class TestClassicalLatency:
    def test_zero_distance(self):
        assert classical_latency_s(0.0) == 0.0

    def test_frozen_values(self):
        assert classical_latency_s(150.0) == pytest.approx(7.345081376263308e-4, abs=1e-6)
        assert classical_latency_s(5.0) == pytest.approx(2.448360458754436e-5, abs=1e-7)


class TestAccessLink:
    def test_perfect_link(self):
        frames = run(config(ingress_access=LOSSLESS, duration_s=4.0)).frames
        assert len(frames) > 0
        assert np.all(frames.survivors_at_egress == frames.payload_qubits)

    def test_binomial_moments(self):
        frames = run(config(duration_s=16.0, seed=1)).frames
        samples = frames.survivors_at_egress
        n = frames.payload_qubits
        mean = n * ETA_5KM
        std = math.sqrt(n * ETA_5KM * (1 - ETA_5KM))
        assert std == pytest.approx(127.8, abs=0.5)
        assert len(samples) > 500
        assert samples.mean() == pytest.approx(mean, abs=3 * std / math.sqrt(len(samples)))
        assert samples.std(ddof=1) == pytest.approx(std, rel=0.15)


class TestEgressProcess:
    def test_empty_memory(self):
        frames = run(invisible_satellite(duration_s=4.0)).frames
        assert len(frames) > 0
        assert np.all(frames.attempts == 0)
        assert np.all(frames.successes == 0)
        assert np.all(_reference.consumed_ranges(frames)[0] == 0)
        assert np.all(frames.survivors_at_egress > 0)

    def test_deterministic_success(self):
        frames = run(saturated(duration_s=0.5, p_teleport_success=1.0)).frames
        assert len(frames) > 0
        assert np.array_equal(frames.attempts, frames.survivors_at_egress)
        assert np.array_equal(frames.successes, frames.attempts)
        starts, stops = _reference.consumed_ranges(frames)
        assert starts[0] == 0
        assert np.array_equal(starts[1:], stops[:-1])

    def test_mean_successes_with_surplus(self):
        # Given the attempts, the successes are Binomial(sum attempts, 0.5).
        frames = run(saturated(duration_s=2.0, seed=2)).frames
        attempts = int(frames.attempts.sum())
        assert np.array_equal(frames.attempts, frames.survivors_at_egress)
        mean = attempts * 0.5
        std = math.sqrt(attempts * 0.25)
        assert int(frames.successes.sum()) == pytest.approx(mean, abs=3 * std)

    def test_pairs_consumed_equals_attempts(self, tmp_path):
        for memory in (1, 10, None):
            cfg = config(duration_s=8.0, memory_capacity=memory, seed=3)
            path = tmp_path / "scenario.json"
            path.write_text(json.dumps(config_to_dict(cfg)))
            out = tmp_path / f"out-{memory}"
            assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
            with open(out / "frames.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert rows
            for row in rows:
                attempts = int(row["attempts"])
                assert int(row["pairs_consumed"]) == attempts
                assert int(row["consumed_stop"]) - int(row["consumed_start"]) == attempts
                assert attempts == int(row["survivors_at_egress"]) - int(
                    row["dropped_for_no_pair"]
                )
                if memory is not None:
                    assert attempts <= memory


class TestIngressReconstruct:
    def test_zero_successes(self):
        result = run(config(duration_s=4.0, p_teleport_success=0.0))
        frames = result.frames
        assert len(frames.delivered) > 0
        assert frames.attempts.sum() > 0
        assert np.all(frames.successes == 0)
        assert np.all(frames.delivered == 0)
        assert result.totals.qubits_delivered == 0

    def test_perfect_egress_access(self):
        frames = run(config(egress_access=LOSSLESS, duration_s=8.0, seed=1)).frames
        n_completed = len(frames.delivered)
        assert n_completed > 0
        assert frames.successes[:n_completed].sum() > 0
        assert np.array_equal(frames.delivered, frames.successes[:n_completed])

    def test_end_to_end_mean_with_surplus(self):
        # 1e5 qubits through eta, 50% teleport, eta again: mean 31547.87
        frames = run(saturated(duration_s=2.5, seed=4)).frames
        delivered = frames.delivered
        assert len(delivered) > 50
        p_total = ETA_5KM**2 * 0.5
        mean = 100_000 * p_total
        std = math.sqrt(100_000 * p_total * (1 - p_total))
        assert delivered.mean() == pytest.approx(mean, abs=3 * std / math.sqrt(len(delivered)))

    def test_messages_apply_in_fifo_order(self):
        # Corrections reach the ingress in frame order, and each frame's
        # pairs come after the previous frame's in the memory.
        cfg = config(duration_s=16.0, memory_capacity=20, seed=7)
        frames = run(cfg).frames
        n_completed = len(frames.delivered)
        assert n_completed > 1
        latency = classical_latency_s(cfg.classical_distance_km)
        delay_out = classical_latency_s(cfg.egress_access.length_km)
        expected = frames.egress_at_s[:n_completed] + latency + delay_out
        assert np.array_equal(frames.delivered_at_s, expected)
        assert np.all(np.diff(frames.delivered_at_s) >= 0.0)
        starts, stops = _reference.consumed_ranges(frames)
        assert np.array_equal(starts[1:], stops[:-1])


class TestAccountingIdentity:
    def test_per_frame_identity_exact(self):
        # payload = access losses + no-pair drops + failures + far losses + delivered
        rng = np.random.default_rng(8)
        base = ScenarioConfig()
        for trial in range(10):
            payload = int(rng.integers(1, 5000))
            memory = [None, 1, int(rng.integers(2, 5000))][trial % 3]
            cfg = dataclasses.replace(
                base,
                duration_s=2.0,
                memory_capacity=memory,
                seed=trial,
                traffic=dataclasses.replace(
                    base.traffic, frame_duration_s=payload / base.traffic.qubit_rate_hz
                ),
            )
            assert cfg.traffic.payload_qubits == payload
            frames = run(cfg).frames
            n = len(frames.delivered)
            assert n > 0
            survivors = frames.survivors_at_egress[:n]
            attempts = frames.attempts[:n]
            successes = frames.successes[:n]
            terms = (
                payload - survivors,
                survivors - attempts,
                attempts - successes,
                successes - frames.delivered,
                frames.delivered,
            )
            assert np.array_equal(sum(terms), np.full(n, payload))
            assert all(np.all(term >= 0) for term in terms)

    def test_delivered_zero_with_empty_memories(self):
        result = run(invisible_satellite(duration_s=4.0, seed=9))
        frames = result.frames
        n = len(frames.delivered)
        assert n > 0
        assert np.all(frames.delivered == 0)
        # Every surviving qubit is dropped for want of a pair.
        dropped_for_no_pair = frames.survivors_at_egress - frames.attempts
        assert np.array_equal(dropped_for_no_pair, frames.survivors_at_egress)
        assert result.totals.qubits_delivered == 0
