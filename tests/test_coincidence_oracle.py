"""The skipping pass kernels against the per-instant oracles, bit for bit.

``coincidence_matrix`` evaluates a satellite only on its ``pass_slice``
of the steps and ``linkbudget`` prints that slice; both must give
exactly the values of the per-instant kernels in ``tests/_reference.py``
evaluated at every instant, and ``linkbudget`` must print the matrix
the engine runs.  The drawn masks sit
on the computed elevation at a grid instant or at the peak, one ulp
either side included, so the edges of the skip are where the test looks.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _reference
from qbackbone.cli import LINKBUDGET_COLUMNS, main
from qbackbone.entanglement import SatelliteSource, coincidence_matrix
from qbackbone.geometry import SatellitePassModel, StationPass
from qbackbone.linkbudget import FreeSpaceLinkParams
from qbackbone.scenario import (
    Policy,
    ScenarioConfig,
    builtin_sources,
    config_to_dict,
    load_config_file,
    satellite_source,
)

SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


class Case(NamedTuple):
    altitude_km: float
    egress: StationPass
    ingress: StationPass
    min_elevation_deg: float
    step_s: float
    n_steps: int
    start_s: float

    def source(self) -> SatelliteSource:
        model = SatellitePassModel(self.altitude_km, self.egress, self.ingress)
        return SatelliteSource("sat", model, FreeSpaceLinkParams(min_elevation_deg=self.min_elevation_deg))

    def times(self) -> np.ndarray:
        return self.start_s + np.arange(self.n_steps) * self.step_s


def twin(altitude_km, peak_deg, peak_s, mask_deg, step_s, n_steps, start_s=0.0) -> Case:
    station = StationPass(peak_deg, peak_s)
    return Case(altitude_km, station, station, mask_deg, step_s, n_steps, start_s)


# The mask equals the computed peak elevation, which exceeds the configured
# one: the visibility window is None, yet step 512 is positive.
ABOVE_CONFIGURED_PEAK = twin(1721.984467166461, 43.34780025337088, 128.0, 43.3478002533709, 0.25, 1024)
# A mask just under the peak of a slow orbit: acos near 1 puts the computed
# mask crossings about 3,000 steps outside the analytic window.
SQRT_EPS_EDGE = twin(
    400_000.0, 88.80312083889909, 0.12078096214979495, 88.80312083884581, 2e-6, 100_000
)
# Micius on its 2 s grid from the analytic window start, where the ingress
# elevation is 19.99999999999999 degrees, one ulp under the 20 degree mask.
_MICIUS = satellite_source("Micius").pass_model
MICIUS_WINDOW_START = Case(474.0, _MICIUS.egress, _MICIUS.ingress, 20.0, 2.0, 150, -11.923715115459373)

STEPS_S = (0.25, 2.0, 0.1, 0.3, 1.0 / 3.0, 1e-6, 3e-6, 7.3e-4)


@st.composite
def cases(draw) -> Case:
    altitude_km = draw(st.floats(300.0, 400_000.0))
    step_s = draw(st.one_of(st.sampled_from(STEPS_S), st.floats(1e-6, 20.0)))
    n_steps = draw(st.integers(1, 1500))
    start_s = draw(st.sampled_from((0.0, -0.5 * n_steps * step_s, 1e3)))
    horizon_s = n_steps * step_s
    peak_times = st.floats(-0.25, 1.25).map(lambda u: start_s + u * horizon_s)
    egress = StationPass(draw(st.floats(0.5, 90.0)), draw(peak_times))
    ingress = draw(st.one_of(st.just(egress), st.builds(StationPass, st.floats(0.5, 90.0), peak_times)))
    model = SatellitePassModel(altitude_km, egress, ingress)
    station = draw(st.sampled_from((egress, ingress)))
    anchor = draw(st.one_of(st.just(station.peak_time_s), st.integers(0, n_steps - 1).map(
        lambda k: start_s + k * step_s)))
    computed = _reference.elevation_at(anchor, model, station)
    mask = draw(st.one_of(
        st.floats(0.5, 89.5),
        st.sampled_from((-1, 0, 1)).map(
            lambda ulps: nudge(computed, ulps) if computed is not None else 45.0),
    ))
    mask = min(max(mask, 1e-3), math.nextafter(90.0, 0.0))
    return Case(altitude_km, egress, ingress, mask, step_s, n_steps, start_s)


def nudge(x: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.inf if ulps > 0 else -math.inf)
    return x


class TestCoincidenceMatrix:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=cases())
    @example(case=ABOVE_CONFIGURED_PEAK)
    @example(case=SQRT_EPS_EDGE)
    @example(case=MICIUS_WINDOW_START)
    def test_equals_full_grid_oracle(self, case):
        sources = (case.source(),)
        times = case.times()
        assert np.array_equal(coincidence_matrix(sources, times), _reference.coincidence_matrix(sources, times))

    def test_pinned_hazards_are_positive_outside_the_window(self):
        above = ABOVE_CONFIGURED_PEAK
        p = coincidence_matrix((above.source(),), above.times())[:, 0]
        assert np.flatnonzero(p).tolist() == [512]
        edge = SQRT_EPS_EDGE
        p = coincidence_matrix((edge.source(),), edge.times())[:, 0]
        assert np.count_nonzero(p) == 79_410
        micius = MICIUS_WINDOW_START
        p = coincidence_matrix((micius.source(),), micius.times())[:, 0]
        assert p[0] == 0.0 and p[1] > 0.0


def linkbudget_stdout(config: ScenarioConfig, source_id: str, directory) -> str:
    path = directory / "scenario.json"
    path.write_text(json.dumps(config_to_dict(config)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["linkbudget", "--config", str(path), "--source", source_id]) == 0
    return out.getvalue()


def reference_stdout(rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(LINKBUDGET_COLUMNS)
    writer.writerows([_reference._fmt(v) for v in row] for row in rows)
    return out.getvalue()


def assert_prints_a_run_of(stdout: str, rows: list[tuple]) -> None:
    """``stdout`` is the table of consecutive ``rows``, byte for byte, and
    every row it leaves out has coincidence probability 0."""
    lines = stdout.splitlines()[1:]
    lo = [row[0] for row in rows].index(float(lines[0].split(",")[0])) if lines else 0
    hi = lo + len(lines)
    assert stdout == reference_stdout(rows[lo:hi])
    assert all(row[-1] == 0.0 for row in rows[:lo] + rows[hi:])


class TestLinkbudgetRows:
    """``linkbudget`` prints a satellite's rows on the steps the engine
    evaluates, and each is the per-instant oracle's row."""

    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(peaks=st.lists(st.floats(400.0, 2000.0), min_size=3, max_size=3))
    def test_rows_equal_per_instant_oracle(self, peaks, tmp_path_factory):
        # Five built-in sources on 0.25 s steps with drawn peak times.
        directory = tmp_path_factory.mktemp("linkbudget")
        names = [s.source_id for s in builtin_sources() if s.kind == "satellite-pass"]
        peak_of = dict(zip(names, peaks))
        sources = tuple(
            satellite_source(s.source_id, peak_time_s=peak_of[s.source_id]) if s.source_id in peak_of else s
            for s in builtin_sources()
        )
        config = ScenarioConfig(
            sources=sources, policy=Policy("best-source"), duration_s=2400.0, channel_step_s=0.25
        )
        for source in sources[2:]:
            stdout = linkbudget_stdout(config, source.source_id, directory)
            assert_prints_a_run_of(stdout, _reference.linkbudget_rows(source, config))

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda path: path.stem)
    def test_table_is_the_rate_table(self, path, capsys):
        config = load_config_file(str(path))
        grid = np.arange(config.n_steps) * config.channel_step_s
        p = coincidence_matrix(config.sources, grid)
        for j, source in enumerate(config.sources):
            assert main(["linkbudget", "--config", str(path), "--source", source.source_id]) == 0
            rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
            times = [float(row["time_s"]) for row in rows]
            steps = np.searchsorted(grid, times)
            assert grid[steps].tolist() == times
            assert p[steps, j].tolist() == [float(row["p_coincidence"]) for row in rows]
            if source.kind == "satellite-pass":
                assert rows
                assert not np.delete(p[:, j], steps).any()
