from __future__ import annotations

import math

import numpy as np
import pytest

from qbackbone.entanglement import (
    MemoryPair,
    QuantumMemory,
    coincidence_count,
)
from qbackbone.linkbudget import FiberLink, fiber_transmittance
from qbackbone.scenario import fiber_source, satellite_source

STD_ARM_ETA = fiber_transmittance(FiberLink(75.0, 0.2))
DARK_ARM_ETA = fiber_transmittance(FiberLink(75.0, 0.16))


class TestCoincidenceCount:
    def test_dead_arm_always_zero(self):
        rng = np.random.default_rng(0)
        assert all(
            coincidence_count(2.0e5, 0.0, 0.5, 1.0, rng) == 0 for _ in range(20)
        )

    def test_standard_fiber_rate(self):
        # mean 2e5 * 10^-3 = 200.0 per second
        rng = np.random.default_rng(1)
        samples = [
            coincidence_count(2.0e5, STD_ARM_ETA, STD_ARM_ETA, 1.0, rng)
            for _ in range(100)
        ]
        mean = 2.0e5 * STD_ARM_ETA**2
        assert min(samples) > mean - 5 * math.sqrt(mean)
        assert max(samples) < mean + 5 * math.sqrt(mean)
        assert np.mean(samples) == pytest.approx(mean, abs=3 * math.sqrt(mean / 100))

    def test_dark_fiber_rate(self):
        rng = np.random.default_rng(2)
        samples = [
            coincidence_count(2.0e5, DARK_ARM_ETA, DARK_ARM_ETA, 1.0, rng)
            for _ in range(100)
        ]
        mean = 2.0e5 * DARK_ARM_ETA**2
        assert np.mean(samples) == pytest.approx(mean, abs=3 * math.sqrt(mean / 100))

    def test_disjoint_intervals_sum_in_distribution(self):
        # mean and variance of count(0,T)+count(T,2T) match count(0,2T)
        rate, eta, trials = 1.0e4, 0.1, 4000
        rng = np.random.default_rng(3)
        split = np.array(
            [
                coincidence_count(rate, eta, eta, 1.0, rng)
                + coincidence_count(rate, eta, eta, 1.0, rng)
                for _ in range(trials)
            ]
        )
        whole = np.array(
            [coincidence_count(rate, eta, eta, 2.0, rng) for _ in range(trials)]
        )
        lam = rate * eta * eta * 2.0
        se_mean = math.sqrt(lam / trials)
        assert split.mean() == pytest.approx(whole.mean(), abs=6 * se_mean)
        se_var = lam * math.sqrt(2.0 / (trials - 1)) * 2.5
        assert split.var(ddof=1) == pytest.approx(whole.var(ddof=1), abs=6 * se_var)

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            coincidence_count(-1.0, 0.5, 0.5, 1.0, rng)
        with pytest.raises(ValueError):
            coincidence_count(1.0, 1.5, 0.5, 1.0, rng)
        with pytest.raises(ValueError):
            coincidence_count(1.0, 0.5, 0.5, -1.0, rng)


class TestMemory:
    def test_store_into_empty(self):
        pair = MemoryPair(20)
        assert pair.store_pairs(10) == (10, 0)
        assert pair.occupancy == 10
        assert pair.egress.occupancy == pair.ingress.occupancy == 10

    def test_capacity_arithmetic(self):
        pair = MemoryPair(5)
        pair.store_pairs(3)
        assert pair.store_pairs(10) == (2, 8)
        assert pair.occupancy == 5
        assert pair.egress.drop_count == 8

    def test_unlimited_never_drops(self):
        pair = MemoryPair(None)
        assert pair.store_pairs(10_000_000) == (10_000_000, 0)

    def test_fifo_ranges(self):
        pair = MemoryPair(None)
        pair.store_pairs(5)
        assert pair.consume_pairs(3) == (0, 3)
        assert pair.consume_pairs(2) == (3, 5)
        assert pair.occupancy == 0

    def test_consume_zero_is_noop(self):
        pair = MemoryPair(None)
        pair.store_pairs(4)
        before = pair.egress.state()
        assert pair.consume_pairs(0) == (0, 0)
        assert pair.egress.state() == before

    def test_overconsume_rejected(self):
        pair = MemoryPair(None)
        pair.store_pairs(2)
        with pytest.raises(ValueError):
            pair.consume_pairs(3)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            QuantumMemory(0)

    def test_mirror_invariant_random_operations(self):
        rng = np.random.default_rng(17)
        for capacity in (None, 1, 7, 64):
            pair = MemoryPair(capacity)
            stored_total = consumed_total = 0
            for _ in range(400):
                if rng.random() < 0.6:
                    stored, _dropped = pair.store_pairs(int(rng.integers(0, 12)))
                    stored_total += stored
                else:
                    k = int(rng.integers(0, pair.occupancy + 1))
                    start, stop = pair.consume_pairs(k)
                    assert stop - start == k
                    consumed_total += k
                assert pair.is_mirrored()
                # conservation: stored pairs are either consumed or still held
                assert stored_total == consumed_total + pair.occupancy
                assert pair.egress.next_consume_index <= pair.egress.next_store_index

    def test_interleaved_sequences_identical_on_both_sides(self):
        rng = np.random.default_rng(23)
        pair = MemoryPair(16)
        egress_log, ingress_log = [], []
        for _ in range(200):
            if rng.random() < 0.5:
                count = int(rng.integers(0, 20))
                pair.egress.store(count)
                pair.ingress.store(count)
            else:
                k = int(rng.integers(0, pair.egress.occupancy + 1))
                egress_log.append(pair.egress.consume(k))
                ingress_log.append(pair.ingress.consume(k))
        assert egress_log == ingress_log


class TestSources:
    def test_fiber_source_constant(self):
        source = fiber_source()
        assert source.coincidence_probability(0.0) == source.coincidence_probability(599.0)
        assert source.pair_rate_hz(0.0) == pytest.approx(2.0e5 * STD_ARM_ETA**2)

    def test_satellite_source_peak_and_gating(self):
        source = satellite_source("Micius")
        p_peak = source.coincidence_probability(128.0)
        assert p_peak > 0.0
        assert source.coincidence_probability(128.0 + 5000.0) == 0.0
        eta_a, eta_b = source.transmittances(128.0)
        assert p_peak == pytest.approx(eta_a * eta_b, rel=1e-12)

    def test_satellite_requires_station_parameters(self):
        source = satellite_source("Micius")
        with pytest.raises(ValueError):
            type(source)(
                source_id="bad",
                pass_model=source.pass_model,
                station_a="Munich",
                station_b="nowhere",
            )
