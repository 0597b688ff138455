"""Acceptance suite: one test per criterion, each printing a PASS line.

Statistical criteria compare means over seeds at 3 sigma, with sigma
estimated from the per-seed samples (or derived analytically where the
criterion states the distribution).  Run with ``pytest -s`` to see the
per-criterion lines.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import time

import numpy as np
import pytest

import _reference
from qbackbone.cli import main
from qbackbone.engine import run
from qbackbone.geometry import visibility_window
from qbackbone.linkbudget import DARK_FIBER_DB_PER_KM, FiberLink, fiber_transmittance
from qbackbone.scenario import (
    Policy,
    ScenarioConfig,
    fiber_source,
    satellite_source,
)

MEASURED_WINDOWS_S = {"Micius": 256.0, "Starlink-2007": 326.0, "Iridium-126": 416.0}
MODEL_WINDOWS_S = {"Micius": 281.385, "Starlink-2007": 322.498, "Iridium-126": 448.724}
ETA_5KM = 10.0 ** (-0.1)


def config_with(**overrides):
    return ScenarioConfig(**overrides)


def satellite_config(name: str, memory: int | None, seed: int = 0):
    return config_with(
        sources=(satellite_source(name),),
        policy=Policy("satellite-only", name),
        memory_capacity=memory,
        seed=seed,
    )


def fiber_config(dark: bool, memory: int | None, seed: int = 0, **extra):
    source = fiber_source("fiber-dark", DARK_FIBER_DB_PER_KM) if dark else fiber_source()
    return config_with(sources=(source,), memory_capacity=memory, seed=seed, **extra)


def run_seeds(base, n_seeds: int):
    return [
        run(dataclasses.replace(base, seed=base.seed + k))
        for k in range(n_seeds)
    ]


def sigma_diff(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return math.sqrt(a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b))


def test_criterion_1_pass_geometry_calibration():
    """Model visibility durations within 20 percent of the measured windows."""
    for name, measured in MEASURED_WINDOWS_S.items():
        model = satellite_source(name).pass_model
        # the egress station's own window: a pass seen twice from the egress
        single = dataclasses.replace(model, ingress=model.egress)
        window = visibility_window(single, 20.0)
        assert window is not None
        start, end = window
        assert end - start == pytest.approx(MODEL_WINDOWS_S[name], abs=1.0)
        ratio = (end - start) / measured
        assert 0.8 <= ratio <= 1.2, f"{name}: model {end - start:.1f}s vs {measured}s"
    print(
        "ACCEPTANCE 1 PASS: single-station windows "
        + ", ".join(
            f"{n}={MODEL_WINDOWS_S[n]:.0f}s (measured {MEASURED_WINDOWS_S[n]:.0f}s)"
            for n in MEASURED_WINDOWS_S
        )
    )


def test_criterion_2_analytic_link_oracles():
    """Fiber transmittance and simulated ground-fiber arrival rates."""
    assert fiber_transmittance(FiberLink(5.0, 0.2)) == pytest.approx(0.79433, abs=1e-5)

    n_seeds, horizon = 30, 60.0
    for dark, arm_db in ((False, 0.2), (True, 0.16)):
        eta_arm = 10.0 ** (-75.0 * arm_db / 10.0)
        expected_rate = 2.0e5 * eta_arm**2
        results = run_seeds(fiber_config(dark, None, duration_s=horizon), n_seeds)
        rates = [r.totals.pairs_arrived / horizon for r in results]
        se = math.sqrt(expected_rate * horizon / n_seeds) / horizon
        assert np.mean(rates) == pytest.approx(expected_rate, abs=3 * se), (
            f"{'dark' if dark else 'standard'} fiber arrival rate"
        )
    print(
        "ACCEPTANCE 2 PASS: fiber eta(5km)=0.79433, arrival means match "
        "200.0/s (standard) and 796.2/s (dark) at 3 sigma"
    )


def test_criterion_3_end_to_end_expectation():
    """Mean delivered per frame with saturated pair supply: 31548 +- 3 sigma."""
    # A lossless 1e11 Hz source stores about 2.4e6 pairs before the first
    # egress (at least the 24.5 us access latency after t = 0), so no
    # frame ever waits for pairs and each one is an independent draw.
    config = config_with(
        sources=(fiber_source(arm_length_km=0.0, emission_rate_hz=1e11),),
        duration_s=2.5,
    )
    assert config.memory_capacity is None
    frames = run(config).frames
    assert np.array_equal(frames.attempts, frames.survivors_at_egress)
    n_frames = len(frames.delivered)
    assert n_frames > 0
    p_chain = ETA_5KM * 0.5 * ETA_5KM
    mean_expected = config.traffic.payload_qubits * p_chain
    sigma_frame = math.sqrt(config.traffic.payload_qubits * p_chain * (1.0 - p_chain))
    tolerance = 3.0 * sigma_frame / math.sqrt(n_frames)
    assert np.mean(frames.delivered) == pytest.approx(mean_expected, abs=tolerance)
    print(
        f"ACCEPTANCE 3 PASS: mean delivered/frame {np.mean(frames.delivered):.1f} "
        f"vs {mean_expected:.1f} +- {tolerance:.1f} over {n_frames} frames"
    )


def visibility_bins(name: str, bin_width: float, n_bins: int, duration: float):
    source = satellite_source(name)
    window = visibility_window(source.pass_model, source.link_params.min_elevation_deg)
    start_s, end_s = window
    start = max(start_s, 0.0)
    end = min(end_s, duration)
    return [k for k in range(n_bins) if k * bin_width >= start and (k + 1) * bin_width <= end], window


def test_criterion_4_source_orderings():
    """Satellites beat dark fiber at peak for M >= 20; Iridium never does."""
    n_seeds = 30
    duration, bin_width = 600.0, 8.0
    n_bins = 75

    dark20 = run_seeds(fiber_config(True, 20), n_seeds)
    dark_unl = run_seeds(fiber_config(True, None), n_seeds)
    std_unl = run_seeds(fiber_config(False, None), n_seeds)
    micius20 = run_seeds(satellite_config("Micius", 20), n_seeds)
    starlink20 = run_seeds(satellite_config("Starlink-2007", 20), n_seeds)
    iridium_unl = run_seeds(satellite_config("Iridium-126", None), n_seeds)

    # (a) peak satellite bins above dark fiber's concurrent level at M=20
    for name, results in (("Micius", micius20), ("Starlink-2007", starlink20)):
        bins_in_window, _ = visibility_bins(name, bin_width, n_bins, duration)
        peak = [r.bins.qubits_delivered.max() for r in results]
        dark_level = [r.bins.qubits_delivered[bins_in_window].mean() for r in dark20]
        margin = np.mean(peak) - np.mean(dark_level)
        assert margin > 3.0 * sigma_diff(peak, dark_level), (
            f"{name} peak bin {np.mean(peak):.0f} vs dark {np.mean(dark_level):.0f}"
        )

    # (b) Iridium's 10-minute total never exceeds dark fiber's
    iridium_totals = [r.totals.qubits_delivered for r in iridium_unl]
    dark_totals = [r.totals.qubits_delivered for r in dark_unl]
    assert np.mean(dark_totals) - np.mean(iridium_totals) > 3.0 * sigma_diff(
        iridium_totals, dark_totals
    )

    # (c) fiber delivers in every bin; satellites only inside their window
    for results in (std_unl, dark_unl):
        for r in results:
            assert np.all(r.bins.qubits_delivered > 0)
    for name, results in (
        ("Micius", micius20),
        ("Starlink-2007", starlink20),
        ("Iridium-126", iridium_unl),
    ):
        bins_in_window, (start, end) = visibility_bins(name, bin_width, n_bins, duration)
        for r in results:
            assert np.any(r.bins.qubits_delivered[bins_in_window] > 0)
            bin_start = r.bins.bin_start_s
            outside = (bin_start + bin_width < start - bin_width) | (bin_start > end + bin_width)
            leaked = bin_start[outside & (r.bins.qubits_delivered > 0)]
            assert len(leaked) == 0, f"{name} delivered outside visibility at t={leaked}"
    print(
        "ACCEPTANCE 4 PASS: (a) Micius/Starlink peak bins above dark fiber at M=20, "
        "(b) Iridium total below dark fiber, (c) fiber continuous / satellites windowed"
    )


def test_criterion_5_memory_sweep_shape():
    """Delivered total monotone in M with convergence to the unlimited total."""
    n_seeds = 10
    sizes: list[int | None] = [1, 5, 10, 20, 50, 100, 200, 500, 1000, None]
    totals = {}
    for size in sizes:
        results = run_seeds(fiber_config(True, size), n_seeds)
        totals[size] = [r.totals.qubits_delivered for r in results]
    means = {size: float(np.mean(totals[size])) for size in sizes}

    # monotone non-decreasing in the mean, up to 3 sigma of seed noise
    for a, b in zip(sizes, sizes[1:]):
        assert means[b] >= means[a] - 3.0 * sigma_diff(totals[a], totals[b]), (
            f"mean delivered fell from M={a} ({means[a]:.0f}) to M={b} ({means[b]:.0f})"
        )
    # strict growth while memory is the bottleneck
    assert means[20] > means[1] + 3.0 * sigma_diff(totals[1], totals[20])

    # convergence: smallest M whose mean is within 3 sigma of unlimited,
    # with every larger M staying within 3 sigma as well
    converged_from = None
    finite = [s for s in sizes if s is not None]
    for size in finite:
        within = all(
            abs(means[m] - means[None]) <= 3.0 * sigma_diff(totals[m], totals[None])
            for m in finite
            if m >= size
        )
        if within:
            converged_from = size
            break
    assert converged_from is not None, "no finite memory size reaches the unlimited total"
    print(
        f"ACCEPTANCE 5 PASS: monotone sweep, converges at M*={converged_from} "
        f"(mean {means[converged_from]:.0f} vs unlimited {means[None]:.0f})"
    )


def test_criterion_6_aggregation_oracle_equivalence():
    """Aggregated engine matches the per-qubit, per-pair oracle in the mean."""
    n_seeds = 30
    base = fiber_config(False, None, duration_s=10.0)
    engine_totals = [
        run(dataclasses.replace(base, seed=s)).totals.qubits_delivered
        for s in range(n_seeds)
    ]
    oracle_totals = [
        _reference.simulate_per_qubit(base, seed=10_000 + s) for s in range(n_seeds)
    ]
    gap = abs(np.mean(engine_totals) - np.mean(oracle_totals))
    limit = 3.0 * sigma_diff(engine_totals, oracle_totals)
    assert gap <= limit, (
        f"aggregated {np.mean(engine_totals):.1f} vs per-qubit {np.mean(oracle_totals):.1f}"
    )
    print(
        f"ACCEPTANCE 6 PASS: aggregated {np.mean(engine_totals):.1f} vs per-qubit "
        f"oracle {np.mean(oracle_totals):.1f} (3 sigma {limit:.1f})"
    )


def test_criterion_7_determinism_and_accounting(tmp_path):
    """Byte-identical outputs, exact per-frame accounting, FIFO consumed ranges."""
    import json

    from qbackbone.scenario import config_to_dict

    config_path = tmp_path / "scenario.json"
    config_path.write_text(json.dumps(config_to_dict(config_with(duration_s=40.0, seed=11))))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(config_path), "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", str(config_path), "--out", str(out_b)]) == 0
    for name in ("timeseries.csv", "frames.csv", "summary.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    config = config_with(duration_s=64.0, memory_capacity=15, seed=2)
    config_path.write_text(json.dumps(config_to_dict(config)))
    out_c = tmp_path / "c"
    assert main(["simulate", "--config", str(config_path), "--out", str(out_c)]) == 0
    with open(out_c / "frames.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    frames = run(config).frames
    assert rows and len(rows) == len(frames)
    counts = [
        {k: int(v) for k, v in row.items() if not k.endswith("_s") and v != ""}
        for row in rows
    ]
    assert [c["attempts"] for c in counts] == frames.attempts.tolist()
    assert [c["delivered"] for c in counts if "delivered" in c] == frames.delivered.tolist()
    for c in counts:
        assert min(c.values()) >= 0
        assert c["pairs_consumed"] == c["attempts"] == c["consumed_stop"] - c["consumed_start"]
        if "delivered" not in c:
            continue
        assert c["payload_qubits"] == (
            c["ingress_access_lost"]
            + c["dropped_for_no_pair"]
            + c["teleport_failures"]
            + c["egress_access_lost"]
            + c["delivered"]
        )

    # The consumed index ranges tile the stored pairs in FIFO order.
    assert int(rows[0]["consumed_start"]) == 0
    for prev, row in zip(rows, rows[1:]):
        assert row["consumed_start"] == prev["consumed_stop"]
    with open(out_c / "summary.csv", newline="") as fh:
        (summary,) = list(csv.DictReader(fh))
    assert int(rows[-1]["consumed_stop"]) <= int(summary["pairs_stored"])
    print(
        "ACCEPTANCE 7 PASS: byte-identical CSVs, exact frame accounting, "
        "contiguous FIFO consumed ranges"
    )


def test_criterion_8_performance():
    """Full default scenario in aggregated mode completes in under 10 s."""
    start = time.perf_counter()
    result = run(ScenarioConfig())
    elapsed = time.perf_counter() - start
    assert result.totals.frames_generated > 0
    assert elapsed < 10.0, f"default scenario took {elapsed:.2f}s"
    print(f"ACCEPTANCE 8 PASS: default 600 s scenario in {elapsed:.2f}s")
