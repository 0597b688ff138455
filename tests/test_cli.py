from __future__ import annotations

import contextlib
import copy
import csv
import dataclasses
import io
import json
import math
import os
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _reference
from qbackbone import engine, ryu
from qbackbone.cli import (
    COMMANDS,
    FRAMES_CHUNK,
    FRAMES_COLUMNS,
    LINKBUDGET_COLUMNS,
    TIMESERIES_COLUMNS,
    _row_bytes,
    _write_frames,
    _write_quoted,
    build_parser,
    main,
)
from qbackbone.entanglement import FiberSource, SatelliteSource
from qbackbone.geometry import SatellitePassModel, StationPass
from qbackbone.linkbudget import FiberLink, FreeSpaceLinkParams
from qbackbone.scenario import (
    MAX_RUN_CELLS,
    MAX_RUN_COUNT,
    Policy,
    ScenarioConfig,
    TrafficConfig,
    config_to_dict,
    dark_fiber_source,
    fiber_source,
    builtin_sources,
    load_config,
    load_config_file,
    satellite_source,
)


CONFIGS_DIR = Path(__file__).resolve().parent.parent / "configs"


class Discard:
    """A text file that drops what is written to it."""

    def write(self, text: str) -> None:
        pass


def write_config(tmp_path, config: ScenarioConfig, name: str = "scenario.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(config_to_dict(config)))
    return str(path)


def short_config(**overrides) -> ScenarioConfig:
    settings = dict(duration_s=24.0, sources=(fiber_source(),), seed=5)
    settings.update(overrides)
    return ScenarioConfig(**settings)


def read_csv(path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestSimulate:
    def test_default_config_writes_75_bins(self, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--out", str(out)]) == 0
        rows = read_csv(out / "timeseries.csv")
        assert len(rows) == 75
        assert rows[0]["bin_start_s"] == "0.0"
        assert rows[-1]["bin_start_s"] == "592.0"
        summary = read_csv(out / "summary.csv")[0]
        assert int(summary["qubits_delivered"]) == sum(
            int(r["qubits_delivered"]) for r in rows
        )
        frames = read_csv(out / "frames.csv")
        assert int(summary["frames_processed"]) == len(frames)

    def test_determinism_byte_identical(self, tmp_path):
        config = write_config(tmp_path, short_config())
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", config, "--out", str(a)]) == 0
        assert main(["simulate", "--config", config, "--out", str(b)]) == 0
        for name in ("timeseries.csv", "frames.csv", "summary.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        config = write_config(tmp_path, short_config())
        a, b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", config, "--out", str(a)])
        main(["simulate", "--config", config, "--out", str(b), "--seed", "99"])
        assert (a / "summary.csv").read_bytes() != (b / "summary.csv").read_bytes()

    def test_env_seed_override(self, tmp_path, monkeypatch):
        config = write_config(tmp_path, short_config())
        a, b = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("QBACKBONE_SEED", "99")
        main(["simulate", "--config", config, "--out", str(a)])
        monkeypatch.delenv("QBACKBONE_SEED")
        main(["simulate", "--config", config, "--out", str(b), "--seed", "99"])
        assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()

    def test_invalid_env_seed_exits_1(self, tmp_path, monkeypatch, capsys):
        config = write_config(tmp_path, short_config())
        monkeypatch.setenv("QBACKBONE_SEED", "abc")
        assert main(["simulate", "--config", config, "--out", str(tmp_path / "o")]) == 1
        assert "QBACKBONE_SEED" in capsys.readouterr().err

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        config = write_config(tmp_path, short_config(duration_s=0.0))
        code = main(["simulate", "--config", config, "--out", str(blocker / "nested")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate"],  # no --out
            ["sweep", "--out", "s.csv", "--memory", "1", "--seeds-per-point", "abc"],
            ["passes", "extra"],  # reported by the top-level parser
            ["linkbudget", "--config", "c.json"],  # no --source
            ["teleport"],  # no such command
            [],  # no command
        ],
        ids=["missing-out", "bad-int", "extra-argument", "missing-source", "unknown-command", "no-command"],
    )
    def test_usage_error_exits_1(self, argv, capsys):
        # main builds only the named command's subparser; its message is
        # the one the parser of every command prints.
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        full = capsys.readouterr().err
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "usage:" in err and err == full

    def test_help_exits_0(self, capsys):
        assert main(["simulate", "--help"]) == 0
        out, err = capsys.readouterr()
        assert "--out" in out and err == ""

    def test_top_level_help_lists_every_command(self, capsys):
        assert main(["--help"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        for command in ("simulate", "sweep", "passes", "linkbudget"):
            assert re.search(rf"^    {command} ", out, re.MULTILINE), command

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_command_help_is_the_full_parsers(self, command, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        full = capsys.readouterr().out
        assert main([command, "--help"]) == 0
        assert capsys.readouterr().out == full
        assert full.startswith(f"usage: qbackbone {command} ")

    def test_unknown_command_lists_the_choices(self, capsys):
        assert main(["teleport", "--out", "o"]) == 1
        err = capsys.readouterr().err
        choices = err[err.index("invalid choice: 'teleport'") :]
        assert all(command in choices for command in ("simulate", "sweep", "passes", "linkbudget"))

    def test_invalid_config_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"memory_capacity": 0}')
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert "unlimited" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [(b"{nope}", "line 1"), (b"\xff\xfe{}", "codec can't decode"), (b"[" * 200_000, "nested too deeply")],
        ids=["syntax", "not-utf8", "deep-nesting"],
    )
    def test_malformed_json_exits_1(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.json"
        bad.write_bytes(text)
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1 and err.startswith("error:")

    @pytest.mark.parametrize("digits, message", [(400, "duration_s"), (5000, "invalid JSON")])
    def test_oversized_integer_exits_1(self, tmp_path, capsys, digits, message):
        bad = tmp_path / "bad.json"
        bad.write_text('{"duration_s": 1' + "0" * digits + "}")
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert message in capsys.readouterr().err

    def test_huge_horizon_exits_1_before_allocating(self, tmp_path, capsys):
        doc = config_to_dict(ScenarioConfig())
        doc["duration_s"] = 1e12
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        tracemalloc.start()
        try:
            code = main(["simulate", "--config", str(path), "--out", str(out)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1
        assert "ceiling" in capsys.readouterr().err
        assert peak < 1_000_000
        assert not out.exists()

    def test_many_sources_exit_1_before_running(self, tmp_path, capsys, monkeypatch):
        # 10,000 sources on 1,000 steps: stages 2 and 3 would hold 10^7
        # cells per matrix, so the ceiling counts steps times sources.
        doc = config_to_dict(short_config(duration_s=2000.0, traffic=TrafficConfig(mean_interarrival_s=100.0)))
        doc["sources"] = [dict(doc["sources"][0], source_id=f"f{k}") for k in range(10_000)]
        path = tmp_path / "many.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o"

        def no_draw(config):
            raise AssertionError("stages 1-4 entered")

        monkeypatch.setattr(engine, "_draw", no_draw)
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"x 10000 sources 1e+07 exceeds the ceiling of {MAX_RUN_CELLS}" in err
        assert not out.exists()

    def test_peak_memory_per_frame(self):
        # MAX_RUN_CELLS keeps a run under 1 GB at 200 bytes per frame,
        # measured between 30k and 120k frames.
        base = load_config_file(str(CONFIGS_DIR / "dark_fiber.json"))

        def peak(duration_s: float) -> tuple[int, int]:
            tracemalloc.start()
            try:
                frames = engine.run(dataclasses.replace(base, duration_s=duration_s)).frames
                _write_frames(Discard(), frames)
                return len(frames), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(20.0)  # first-call allocations
        (n_short, short), (n_long, long) = peak(600.0), peak(2400.0)
        assert n_long > 3 * n_short
        assert (long - short) / (n_long - n_short) <= 200, (short, long)

    def test_peak_memory_per_bin(self):
        # MAX_RUN_CELLS keeps a run under 1 GB at 120 bytes per channel
        # step, here one bin per step.
        base = load_config_file(str(CONFIGS_DIR / "dark_fiber.json"))

        def peak(n_bins: int) -> int:
            # About 2,500 frames at every size, so their cost cancels.
            step = 50.0 / n_bins
            config = dataclasses.replace(base, duration_s=50.0, channel_step_s=step, bin_width_s=step)
            tracemalloc.start()
            try:
                bins = engine.run(config).bins
                columns = (getattr(bins, name) for name in TIMESERIES_COLUMNS)
                _write_quoted(Discard(), TIMESERIES_COLUMNS, zip(*columns))
                assert len(bins) == n_bins
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(100)  # first-call allocations
        short, long = peak(10_000), peak(40_000)
        assert (long - short) / 30_000 <= 120, (short, long)

    def test_schema_v1_document_exits_1(self, tmp_path, capsys):
        for version in (1, 2):
            doc = config_to_dict(ScenarioConfig())
            doc["schema_version"] = version
            doc["stations"] = {"egress": {"name": "Munich"}, "ingress": {"name": "Nuremberg"}}
            if version == 1:
                doc["stations"]["egress"].update(latitude_deg=48.15, longitude_deg=11.5333)
            path = tmp_path / f"v{version}.json"
            path.write_text(json.dumps(doc))
            assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
            assert "schema_version" in capsys.readouterr().err

    def test_schema_v3_document_exits_1(self, tmp_path, capsys):
        doc = {
            "schema_version": 3,
            "access": {"egress_access": {"length_km": 5.0, "attenuation_db_per_km": 0.2}},
            "sources": [{"id": "fiber-standard", "kind": "ground-fiber", "arm_length_km": 75.0}],
        }
        path = tmp_path / "v3.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "schema_version 3" in err
        assert not out.exists()

    def test_station_coordinates_exit_1(self, tmp_path, capsys):
        doc = config_to_dict(ScenarioConfig())
        assert doc["schema_version"] == 4
        doc["stations"] = {"egress": {"name": "Munich"}, "ingress": {"name": "Nuremberg"}}
        path = tmp_path / "v4.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "'stations'" in err

    def test_pair_counts_above_2_53_stay_exact(self, tmp_path, capsys):
        # 8 s bins of a lossless 2e15 Hz source hold about 1.6e16 pairs,
        # beyond the integers a float64 holds exactly.
        config = short_config(
            sources=(fiber_source(arm_length_km=0.0, emission_rate_hz=2e15),), duration_s=16.0
        )
        out = tmp_path / "o"
        assert main(["simulate", "--config", write_config(tmp_path, config), "--out", str(out)]) == 0
        with open(out / "timeseries.csv", newline="") as fh:
            bins = list(csv.DictReader(fh))
        assert len(bins) == 2
        for b in bins:
            arrived = int(b["pairs_arrived"])
            assert arrived > 2**53
            assert int(b["pairs_stored"]) + int(b["pairs_dropped"]) == arrived
        with open(out / "summary.csv", newline="") as fh:
            (summary,) = list(csv.DictReader(fh))
        assert int(summary["pairs_arrived"]) == sum(int(b["pairs_arrived"]) for b in bins)

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda doc: doc["sources"][0].update(emission_rate_hz=1e300), "emission_rate_hz"),
            (
                lambda doc: doc["traffic"].update(qubit_rate_hz=1e25, frame_duration_s=1.0),
                "traffic.qubit_rate_hz",
            ),
        ],
        ids=["pairs", "qubits"],
    )
    def test_undrawable_counts_exit_1(self, tmp_path, capsys, edit, field):
        doc = config_to_dict(ScenarioConfig())
        edit(doc)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err and "ceiling" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "doc, fields",
        [
            ({"traffic": {"frame_duration_s": 1e308}}, ["traffic.frame_duration_s"]),
            ({"bin_width_s": 1e308, "channel_step_s": 1e-308}, ["bin_width_s", "channel_step_s"]),
            ({"duration_s": 1e308, "channel_step_s": 1e-10}, ["duration_s", "channel_step_s"]),
            (
                {
                    "duration_s": 1e308,
                    "channel_step_s": 1e-10,
                    "bin_width_s": 1e-10,
                    "traffic": {"mean_interarrival_s": 1e308},
                },
                ["channel step count inf", "duration_s", "channel_step_s"],
            ),
        ],
        ids=["payload", "bin_step_ratio", "frame_count", "step_count"],
    )
    def test_non_finite_ratios_exit_1(self, tmp_path, capsys, doc, fields):
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and all(field in err for field in fields)
        assert not out.exists()


def synthetic_frames(n: int, n_completed: int, seed: int = 0, payload: int = 100) -> engine.FrameTable:
    """A frame table with random counts up to ``payload`` and times of
    every float form."""
    rng = np.random.default_rng(seed)
    created = rng.uniform(0.0, 600.0, n)
    # Exponent form below 1e-4 (one digit and several), fixed form from
    # 1e-4, and integral values, which repr writes with '.0' or trailing zeros.
    special = (3e-05, 6.25e-05, 1e-04, 0.5, 1.0, 64.0, 100.0, 512.0)
    created[: len(special)] = special[:n]
    created.sort()
    egress = created + 2.5e-05
    survivors = rng.integers(0, payload + 1, n)
    # Capped so that the consumed pair indices stay inside int64.
    attempts = rng.integers(0, np.minimum(survivors, 2**62 // max(n, 1)) + 1)
    successes = rng.integers(0, attempts + 1)
    delivered = rng.integers(0, successes[:n_completed] + 1)
    return engine.FrameTable(
        payload_qubits=payload,
        created_at_s=created,
        egress_at_s=egress,
        survivors_at_egress=survivors,
        attempts=attempts,
        successes=successes,
        consumed_start=np.cumsum(attempts) - attempts,
        delivered=delivered,
        delivered_at_s=egress[:n_completed] + 7.5e-04,
    )


def frames_csv(frames: engine.FrameTable) -> str:
    """The text of the bytes ``_write_frames`` writes; every byte is ASCII."""
    fh = io.BytesIO()
    _write_frames(fh, frames)
    return fh.getvalue().decode("ascii")


def assert_matches_reference(frames: engine.FrameTable) -> str:
    """The byte writer's text, checked line by line against the reference."""
    text = frames_csv(frames)
    got = text.split("\n")
    reference = io.StringIO(newline="")
    _reference.write_frames(reference, frames)
    want = reference.getvalue().split("\n")
    first = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), None)
    assert first is None, (first, got[first], want[first])
    assert len(got) == len(want)
    return text


class TestFramesWriter:
    """The byte writer's bytes equal the per-row reference writer's."""

    @pytest.mark.parametrize(
        "n, n_completed, payload",
        [
            (0, 0, 100),
            (5, 0, 100),
            (5, 5, 100),
            (FRAMES_CHUNK - 1, FRAMES_CHUNK - 1, 100),
            (FRAMES_CHUNK, 0, 100),
            (FRAMES_CHUNK, FRAMES_CHUNK, 100),
            (FRAMES_CHUNK + 1, FRAMES_CHUNK, 100),
            (FRAMES_CHUNK + 1, FRAMES_CHUNK + 1, 100),
            (2 * FRAMES_CHUNK + 1, FRAMES_CHUNK - 1, 100),
            (2 * FRAMES_CHUNK + 1, 0, 100),
            # Counts of up to 17 and up to 19 digits (int64's widest).
            (5, 3, 2**56),
            (2 * FRAMES_CHUNK + 1, FRAMES_CHUNK + 1, 2**56),
            (FRAMES_CHUNK + 1, 7, 2**63 - 1),
            # Every count 0.
            (2 * FRAMES_CHUNK + 1, FRAMES_CHUNK + 1, 0),
        ],
    )
    def test_matches_reference(self, n, n_completed, payload):
        frames = synthetic_frames(n, n_completed, payload=payload)
        lines = assert_matches_reference(frames).split("\n")
        assert lines[0] == ",".join(FRAMES_COLUMNS) and lines[-1] == ""
        assert len(lines) == n + 2
        if n:
            assert lines[1].split(",")[1] == "3e-05"

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        memory=st.one_of(st.none(), st.integers(1, 50)),
        duration=st.floats(0.0, 48.0),
        mean_gap=st.floats(0.005, 1.0),
    )
    def test_engine_runs_match_reference(self, seed, memory, duration, mean_gap):
        base = short_config()
        config = dataclasses.replace(
            base,
            seed=seed,
            memory_capacity=memory,
            duration_s=duration,
            traffic=dataclasses.replace(base.traffic, mean_interarrival_s=mean_gap),
        )
        assert_matches_reference(engine.run(config).frames)


# Doubles of every cell form: inside the Ryu kernel's range [2^-13, 2^50),
# outside it (repr's exponent form and the subnormals), any double, and NaN
# for an empty cell.
ROW_FLOATS = st.one_of(
    st.floats(2.0**-13, 2.0**50, exclude_max=True),
    st.sampled_from([1e-05, 1e16, 5e-324, 2.0**-14, 2.0**50, 0.0]),
    st.floats(),
    st.just(math.nan),
)


@st.composite
def row_columns(draw) -> tuple[int, list[tuple[str, list]]]:
    """``n`` rows of count and float columns; some cover only the first rows."""
    n = draw(st.integers(0, 40))
    columns = []
    for kind in draw(st.lists(st.sampled_from(["count", "float"]), min_size=1, max_size=6)):
        rows = draw(st.one_of(st.just(n), st.integers(0, n)))
        element = st.integers(0, 2**56) if kind == "count" else ROW_FLOATS
        columns.append((kind, draw(st.lists(element, min_size=rows, max_size=rows))))
    return n, columns


class TestRowBytes:
    """``_row_bytes`` over NUL-padded cells equals a per-row join of ``_fmt``."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(table=row_columns())
    def test_matches_joined_rows(self, table):
        n, columns = table
        cells = []
        for kind, values in columns:
            if kind == "count":
                cells.append(ryu.count_cells(np.array(values, np.int64)))
            else:
                values = np.array(values, np.float64)
                column = ryu.float_cells(values)
                column[:, np.isnan(values)] = 0  # an empty cell, as linkbudget writes it
                cells.append(column)
        got = _row_bytes(cells, n).decode("ascii")
        want = "".join(
            ",".join(
                # Empty past a column's rows and for NaN, the one value unequal to itself.
                _reference._fmt(None if i >= len(values) or values[i] != values[i] else values[i])
                for _, values in columns
            )
            + "\n"
            for i in range(n)
        )
        assert got == want


TABLE_CELLS = st.one_of(
    st.none(),
    st.integers(-(2**62), 2**62),
    st.floats(),
    st.floats().map(np.float64),
    st.sampled_from([-0.0, 5e-324, 3e-05, 1e16, 1e22, 1.7976931348623157e308]),
)


@st.composite
def numeric_tables(draw) -> tuple[tuple[str, ...], list[list[object]]]:
    width = draw(st.integers(2, 9))
    rows = draw(st.lists(st.lists(TABLE_CELLS, min_size=width, max_size=width), max_size=20))
    return tuple(f"c{k}" for k in range(width)), rows


class TestTableWriter:
    """The small-table writer's bytes equal ``csv.writer``'s with the reference cell rule."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(table=numeric_tables())
    def test_matches_csv_writer(self, table):
        columns, rows = table
        got = io.StringIO(newline="")
        _write_quoted(got, columns, rows)
        want = io.StringIO(newline="")
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_reference._fmt(v) for v in row] for row in rows)
        assert got.getvalue() == want.getvalue()


class TestSweep:
    def test_rows_and_ordering(self, tmp_path):
        config = write_config(
            tmp_path,
            short_config(duration_s=10.0, sources=(fiber_source(), dark_fiber_source())),
        )
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                "--config",
                config,
                "--out",
                str(out),
                "--memory",
                "5,unlimited,1",
                "--seeds-per-point",
                "2",
            ]
        )
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 2 * 3 * 2
        keys = [
            (r["label"], r["memory_capacity"] == "unlimited", r["memory_capacity"], int(r["seed"]))
            for r in rows
        ]
        assert keys == sorted(keys, key=lambda k: (k[0], k[1], int(k[2]) if not k[1] else 0, k[3]))
        labels = {r["label"] for r in rows}
        assert labels == {"fiber-standard", "fiber-dark"}
        memories = [r["memory_capacity"] for r in rows[:6]]
        assert memories == ["1", "1", "5", "5", "unlimited", "unlimited"]

    def test_monotone_in_memory(self, tmp_path):
        config = write_config(tmp_path, short_config(duration_s=20.0))
        out = tmp_path / "sweep.csv"
        main(
            [
                "sweep",
                "--config",
                config,
                "--out",
                str(out),
                "--memory",
                "1,20,unlimited",
                "--seeds-per-point",
                "3",
            ]
        )
        rows = read_csv(out)
        by_memory: dict[str, list[int]] = {}
        for r in rows:
            by_memory.setdefault(r["memory_capacity"], []).append(
                int(r["total_qubits_delivered"])
            )
        means = [sum(v) / len(v) for v in (by_memory["1"], by_memory["20"], by_memory["unlimited"])]
        assert means[0] < means[1] <= means[2] * 1.01

    def test_policy_flag(self, tmp_path):
        config = write_config(
            tmp_path,
            short_config(duration_s=10.0, sources=(fiber_source(), dark_fiber_source())),
        )
        out = tmp_path / "sweep.csv"
        assert (
            main(
                [
                    "sweep",
                    "--config",
                    config,
                    "--out",
                    str(out),
                    "--memory",
                    "unlimited",
                    "--policy",
                    "all-sources",
                ]
            )
            == 0
        )
        rows = read_csv(out)
        assert [r["label"] for r in rows] == ["all-sources"]

    def test_capacity_past_int64_walks_as_unlimited(self, tmp_path):
        config = write_config(tmp_path, short_config(duration_s=20.0))
        out = tmp_path / "sweep.csv"
        memory = "100000000000000000000000,unlimited"
        assert main(["sweep", "--config", config, "--out", str(out), "--memory", memory]) == 0
        huge, unlimited = read_csv(out)
        assert huge["memory_capacity"] == "100000000000000000000000"
        assert unlimited["memory_capacity"] == "unlimited"
        assert int(huge["total_qubits_delivered"]) > 0
        assert huge["total_qubits_delivered"] == unlimited["total_qubits_delivered"]

    @pytest.mark.parametrize("flag", ["--seeds-per-point", "--memory"])
    def test_rows_past_the_ceiling_exit_1_before_allocating(self, tmp_path, capsys, flag):
        # One label, so MAX_RUN_CELLS + 1 seeds or sizes is one row too many.
        config = write_config(tmp_path, short_config(duration_s=10.0))
        out = tmp_path / "sweep.csv"
        over = {"--seeds-per-point": str(MAX_RUN_CELLS + 1), "--memory": "1," * MAX_RUN_CELLS + "1"}
        argv = {"--memory": "1", "--seeds-per-point": "1", flag: over[flag]}
        tracemalloc.start()
        try:
            code = main(["sweep", "--config", config, "--out", str(out), *sum(argv.items(), ())])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert flag in err and "ceiling" in err
        assert peak < 1_000_000
        assert not out.exists()

    def test_isolated_sources_pass_the_run_ceilings(self, tmp_path, capsys, monkeypatch):
        # 1.2M steps a run: the document's 5 sources make 6M cells, but a
        # sweep without --policy runs each source alone, which fits.
        doc = json.loads((CONFIGS_DIR / "all_sources.json").read_text())
        doc["duration_s"], doc["traffic"]["mean_interarrival_s"] = 2.4e6, 10.0
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc))
        out = str(tmp_path / "sweep.csv")

        class Entered(Exception):
            pass

        def stop(config, capacities):
            assert [s.source_id for s in config.sources] == ["fiber-standard"]
            raise Entered

        monkeypatch.setattr(engine, "run_many", stop)
        with pytest.raises(Entered):
            main(["sweep", "--config", str(path), "--out", out, "--memory", "1", "--source", "fiber-standard"])
        # Under --policy one run holds every source, so the sweep exits 1 before running.
        assert main(["sweep", "--config", str(path), "--out", out, "--memory", "1", "--policy", "all-sources"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"channel step count x 5 sources 6e+06 exceeds the ceiling of {MAX_RUN_CELLS}" in err

    def test_peak_memory_does_not_grow_with_memory_sizes(self, tmp_path):
        # 30,000 frames: each result a sweep held would add about 1.2 MB.
        config = write_config(tmp_path, ScenarioConfig(sources=(dark_fiber_source(),)))
        out = str(tmp_path / "sweep.csv")

        def peak(memory: str) -> int:
            tracemalloc.start()
            try:
                assert main(["sweep", "--config", config, "--out", out, "--memory", memory]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak("1")  # first-call allocations
        one, many = peak("1"), peak("1,2,3,4,5,6,7,8,8,8")
        assert many < one + 300_000, (one, many)

    def test_duplicate_sizes_give_identical_rows(self, tmp_path):
        config = write_config(tmp_path, short_config(duration_s=20.0))
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--config", config, "--out", str(out), "--seeds-per-point", "2"]
        assert main([*argv, "--memory", "3,unlimited,3,1,unlimited"]) == 0
        rows = read_csv(out)
        assert [r["memory_capacity"] for r in rows] == ["1"] * 2 + ["3"] * 4 + ["unlimited"] * 4
        assert rows[2:4] == rows[4:6] and rows[6:8] == rows[8:10]
        assert main([*argv, "--memory", "3"]) == 0
        assert read_csv(out) == rows[2:4]

    def test_empty_memory_list_exits_1(self, tmp_path, capsys):
        config = write_config(tmp_path, short_config(duration_s=0.0))
        code = main(
            ["sweep", "--config", config, "--out", str(tmp_path / "s.csv"), "--memory", ","]
        )
        assert code == 1
        assert "memory list" in capsys.readouterr().err

    def test_unknown_source_exits_1(self, tmp_path):
        config = write_config(tmp_path, short_config(duration_s=0.0))
        code = main(
            [
                "sweep",
                "--config",
                config,
                "--out",
                str(tmp_path / "s.csv"),
                "--memory",
                "1",
                "--source",
                "Voyager",
            ]
        )
        assert code == 1


class TestPasses:
    def config_with_satellites(self, tmp_path):
        return write_config(tmp_path, short_config(sources=builtin_sources()))

    def parse_stdout(self, capsys) -> list[dict[str, str]]:
        return list(csv.DictReader(io.StringIO(capsys.readouterr().out)))

    def test_micius_peak_elevation_column(self, tmp_path, capsys):
        assert main(["passes", "--config", self.config_with_satellites(tmp_path)]) == 0
        rows = self.parse_stdout(capsys)
        micius = next(r for r in rows if r["satellite"] == "Micius")
        assert float(micius["peak_elevation_a_deg"]) == 83.0
        assert float(micius["peak_elevation_b_deg"]) == 75.0
        assert float(micius["altitude_km"]) == 474.0

    def test_window_durations_within_20_percent_of_reference(self, tmp_path, capsys):
        assert main(["passes", "--config", self.config_with_satellites(tmp_path)]) == 0
        rows = self.parse_stdout(capsys)
        reference = {"Micius": 256.0, "Starlink-2007": 326.0, "Iridium-126": 416.0}
        for row in rows:
            expected = reference[row["satellite"]]
            assert abs(float(row["window_duration_s"]) - expected) <= 0.2 * expected

    def test_mask_89_gives_empty_windows(self, tmp_path, capsys):
        # 89° is above every built-in peak elevation.
        masked = tuple(
            dataclasses.replace(s, link_params=FreeSpaceLinkParams(min_elevation_deg=89.0))
            for s in builtin_sources()
            if s.kind == "satellite-pass"
        )
        code = main(["passes", "--config", write_config(tmp_path, short_config(sources=masked))])
        assert code == 0
        rows = self.parse_stdout(capsys)
        assert rows
        assert all(r["window_start_s"] == "" and r["window_duration_s"] == "" for r in rows)

    @pytest.mark.parametrize("char", ["\r", "\n", "\t", "\x00"], ids=["CR", "LF", "TAB", "NUL"])
    def test_control_characters_in_source_ids_exit_1(self, tmp_path, capsys, char):
        # csv.writer writes these differently across Python versions.
        doc = config_to_dict(short_config(sources=(satellite_source("Micius"),)))
        doc["sources"][0]["source_id"] = f"Mic{char}ius"
        path = tmp_path / "control.json"
        path.write_text(json.dumps(doc))
        assert main(["passes", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert repr(f"Mic{char}ius") in captured.err

    @pytest.mark.parametrize("source_id, cell", [("Mic,ius", '"Mic,ius"'), ('Mic"ius', '"Mic""ius"')])
    def test_separators_in_source_ids_are_quoted(self, tmp_path, capsys, source_id, cell):
        source = dataclasses.replace(satellite_source("Micius"), source_id=source_id)
        config = write_config(tmp_path, short_config(sources=(source,)))
        assert load_config_file(config).sources[0].source_id == source_id
        assert main(["passes", "--config", config]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1].startswith(cell + ",")
        assert [r["satellite"] for r in csv.DictReader(io.StringIO(out))] == [source_id]

    def test_no_satellites_is_header_only(self, tmp_path, capsys):
        config = write_config(tmp_path, short_config())
        assert main(["passes", "--config", config]) == 0
        captured = capsys.readouterr()
        assert self_rows_empty(captured.out)
        assert "no satellite sources" in captured.err


def self_rows_empty(out: str) -> bool:
    return list(csv.DictReader(io.StringIO(out))) == []


class Drawn(Exception):
    """Stage 1 of a run was entered: the run passed its ceilings."""


class TestRunCeilings:
    """A document bounds only its step grid; a run bounds itself, at its own
    sources, before stage 1 (``engine._draw``) allocates anything."""

    @pytest.fixture
    def drawn(self, monkeypatch) -> list[list[str]]:
        """The source ids of each run that enters stage 1, which stops it."""
        runs = []

        def draw(config):
            runs.append([s.source_id for s in config.sources])
            raise Drawn

        monkeypatch.setattr(engine, "_draw", draw)
        return runs

    @pytest.fixture
    def rich(self, tmp_path) -> str:
        # Each source alone expects 2e16 pairs, below MAX_RUN_COUNT (2**56,
        # about 7.2e16); all five together expect 1e17.
        doc = json.loads((CONFIGS_DIR / "all_sources.json").read_text())
        doc["duration_s"], doc["traffic"]["mean_interarrival_s"] = 1e5, 1.0
        for source in doc["sources"]:
            source["emission_rate_hz"] = 2e11
        path = tmp_path / "rich.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_a_document_too_rich_to_run_loads_and_prints_its_passes(self, rich, drawn, capsys):
        assert len(load_config_file(rich).sources) == 5
        assert main(["passes", "--config", rich]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [r["satellite"] for r in rows] == ["Micius", "Starlink-2007", "Iridium-126"]
        assert drawn == []

    def test_an_isolated_source_runs_within_its_own_pairs(self, rich, drawn, tmp_path):
        out = str(tmp_path / "sweep.csv")
        with pytest.raises(Drawn):
            main(["sweep", "--config", rich, "--out", out, "--memory", "1", "--source", "fiber-standard"])
        assert drawn == [["fiber-standard"]]

    @pytest.mark.parametrize(
        "command", [["simulate", "--out"], ["sweep", "--memory", "1", "--policy", "all-sources", "--out"]]
    )
    def test_every_source_at_once_exits_1_before_drawing(self, rich, drawn, tmp_path, capsys, command):
        out = tmp_path / "o"
        assert main([*command, str(out), "--config", rich]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"expected pair count 1e+17 exceeds the ceiling of {MAX_RUN_COUNT}" in err
        assert drawn == []
        assert not out.exists()

    def test_a_later_label_past_its_ceiling_stops_the_sweep_before_any_run(self, drawn, tmp_path, capsys):
        # "b" alone expects 2.4e17 pairs; "a" sorts, and would run, first.
        doc = config_to_dict(short_config(sources=(fiber_source("a"), fiber_source("b"))))
        doc["sources"][1]["emission_rate_hz"] = 1e16
        path = tmp_path / "labels.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(path), "--out", str(out), "--memory", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "expected pair count 2.4e+17" in err
        assert drawn == []
        assert not out.exists()

    def test_a_run_without_sources_is_bounded_by_its_frames(self, drawn, tmp_path, capsys):
        # 1e7 frames on 1e5 steps: the document loads, and its run is
        # bounded at one source's width.
        doc = config_to_dict(ScenarioConfig(sources=()))
        doc["duration_s"] = 2e5
        path = tmp_path / "bare.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"error: expected frame count 1e+07 exceeds the ceiling of {MAX_RUN_CELLS}" in err
        assert drawn == []
        assert not out.exists()


class TestLinkbudget:
    def test_fiber_source_single_constant_row(self, tmp_path, capsys):
        config = write_config(tmp_path, short_config())
        assert main(["linkbudget", "--config", config, "--source", "fiber-standard"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 1
        row = rows[0]
        assert float(row["eta_a"]) == pytest.approx(10 ** (-1.5))
        assert float(row["p_coincidence"]) == pytest.approx(10 ** (-3.0))
        assert row["elev_a_deg"] == ""
        assert float(row["range_a_km"]) == 75.0

    def test_micius_profile_peaks_at_peak_elevation(self, tmp_path, capsys):
        # The horizon must cover the pass: rows are the steps of the run.
        config = write_config(
            tmp_path, short_config(sources=(satellite_source("Micius"),), duration_s=300.0)
        )
        assert main(["linkbudget", "--config", config, "--source", "Micius"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) > 100
        best = max(rows, key=lambda r: float(r["eta_a"]))
        assert float(best["elev_a_deg"]) == pytest.approx(83.0, abs=0.1)
        peak_p = max(float(r["p_coincidence"]) for r in rows)
        assert float(best["p_coincidence"]) == pytest.approx(peak_p)

    def test_unknown_source_exits_1(self, tmp_path, capsys):
        config = write_config(tmp_path, short_config())
        assert main(["linkbudget", "--config", config, "--source", "nope"]) == 1
        assert "unknown source" in capsys.readouterr().err

    def test_never_visible_satellite_prints_zero_probability(self, tmp_path, capsys):
        doc = {
            "sources": [
                {
                    "kind": "satellite-pass",
                    "source_id": "low-pass",
                    "pass_model": {
                        "altitude_km": 500.0,
                        "egress": {"peak_elevation_deg": 15.0, "peak_time_s": 100.0},
                        "ingress": {"peak_elevation_deg": 15.0, "peak_time_s": 100.0},
                    },
                }
            ]
        }
        path = tmp_path / "low.json"
        path.write_text(json.dumps(doc))
        assert main(["linkbudget", "--config", str(path), "--source", "low-pass"]) == 0
        # The steps evaluated around the peak, which stays under the mask.
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [row["time_s"] for row in rows] == ["98.0", "100.0", "102.0"]
        assert all(row["p_coincidence"] == "0.0" for row in rows)

    def test_empty_slice_prints_only_the_header(self, tmp_path, capsys):
        # A zero horizon has no channel steps, so the pass slice is empty.
        doc = config_to_dict(short_config(sources=(satellite_source("Micius"),)))
        doc["duration_s"] = 0.0
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(doc))
        assert main(["linkbudget", "--config", str(path), "--source", "Micius"]) == 0
        assert capsys.readouterr().out == ",".join(LINKBUDGET_COLUMNS) + "\n"

    def test_huge_window_exits_1_before_allocating(self, tmp_path, capsys):
        # 2**23 channel steps of 2**-23 s exceed the run ceiling; the
        # table would allocate one time per step.
        doc = config_to_dict(short_config(sources=(satellite_source("Micius"),)))
        doc.update(duration_s=1.0, channel_step_s=2.0**-23, bin_width_s=0.5)
        path = tmp_path / "fine.json"
        path.write_text(json.dumps(doc))
        tracemalloc.start()
        try:
            code = main(["linkbudget", "--config", str(path), "--source", "Micius"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "ceiling" in captured.err
        assert peak < 1_000_000


@pytest.mark.parametrize(
    "command", [["simulate", "--out", "out"], ["linkbudget", "--source", "horizon-mask"]]
)
def test_zero_elevation_mask_exits_1(tmp_path, monkeypatch, capsys, command):
    # A 0° mask has no visibility window, and the air-mass term divides by
    # the sine of the elevation.
    doc = config_to_dict(short_config(sources=(satellite_source("Micius"),)))
    doc["sources"][0].update(source_id="horizon-mask", link_params={"min_elevation_deg": 0.0})
    path = tmp_path / "mask.json"
    path.write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    assert main([*command, "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert re.search(r"link_params\W+min_elevation_deg", err), err


# Pass and downlink fields whose values would overflow or underflow the
# orbit rate or the beam formula: the four values that once crashed with
# a traceback, then the first value past each bound.
OUT_OF_RANGE_FIELDS = [
    ("pass_model", "altitude_km", 1e120),
    ("link_params", "divergence_half_angle_rad", 1e-300),
    ("link_params", "divergence_half_angle_rad", 1e300),
    ("link_params", "receiver_aperture_diameter_m", 1e200),
    ("pass_model", "altitude_km", math.nextafter(100.0, 0.0)),
    ("pass_model", "altitude_km", math.nextafter(1e6, math.inf)),
    ("link_params", "divergence_half_angle_rad", math.nextafter(1e-9, 0.0)),
    ("link_params", "divergence_half_angle_rad", math.nextafter(0.1, 1.0)),
    ("link_params", "receiver_aperture_diameter_m", math.nextafter(100.0, math.inf)),
]


@pytest.mark.parametrize(
    "command",
    [["simulate", "--out", "out"], ["passes"], ["linkbudget", "--source", "Micius"]],
    ids=lambda command: command[0],
)
@pytest.mark.parametrize("group,field,value", OUT_OF_RANGE_FIELDS)
def test_out_of_range_pass_fields_exit_1(tmp_path, monkeypatch, capsys, command, group, field, value):
    doc = json.loads((CONFIGS_DIR / "micius.json").read_text())
    doc["sources"][0][group][field] = value
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    assert main([*command, "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert re.search(rf"{group}\W+{field}", captured.err), captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("bin_width_s", [1e200, 2.0**63 * 2.0], ids=["1e200", "2**63-steps"])
def test_bin_wider_than_horizon_is_one_bin(tmp_path, bin_width_s):
    # 5 channel steps of 2 s; a wider bin is the same single bin.
    horizon = ScenarioConfig(duration_s=10.0)
    outputs = []
    for width in (bin_width_s, horizon.n_steps * horizon.channel_step_s):
        path = tmp_path / f"{width}.json"
        path.write_text(json.dumps({"bin_width_s": width, "duration_s": 10.0}))
        out = tmp_path / f"{width}-out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        sweep = ["sweep", "--config", str(path), "--out", str(out / "sweep.csv")]
        assert main([*sweep, "--memory", "1,unlimited"]) == 0
        names = ("timeseries.csv", "frames.csv", "summary.csv", "sweep.csv")
        outputs.append({name: (out / name).read_bytes() for name in names})
    assert outputs[0] == outputs[1]
    assert outputs[0]["timeseries.csv"].count(b"\n") == 2


def _number_paths(node, prefix=()):
    """Paths (keys and list indexes) of the numeric leaves of a document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        if isinstance(child, (dict, list)):
            yield from _number_paths(child, prefix + (key,))
        elif isinstance(child, (int, float)) and not isinstance(child, bool):
            yield prefix + (key,)


FUZZ_BASE = config_to_dict(
    ScenarioConfig(sources=builtin_sources(), duration_s=20.0, memory_capacity=50)
)
FUZZ_PATHS = [
    path for path in _number_paths(FUZZ_BASE) if path not in {("duration_s",), ("channel_step_s",)}
]
# Every key a diagnostic can cite.
FUZZ_FIELDS = {"schema_version", "kind"} | {
    f.name
    for cls in (
        ScenarioConfig, TrafficConfig, FiberLink, Policy, FreeSpaceLinkParams,
        SatellitePassModel, StationPass, FiberSource, SatelliteSource,
    )
    for f in dataclasses.fields(cls)
}
EXTREME_FLOATS = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, -1.0, -1e308, 1e308]
fuzz_floats = st.one_of(
    st.sampled_from(EXTREME_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
)


@st.composite
def fuzz_documents(draw):
    """A full document with a few numeric leaves anywhere in the float range;
    the horizon is at most 20 s of steps of at least 0.05 s."""
    doc = copy.deepcopy(FUZZ_BASE)
    doc["duration_s"] = draw(st.one_of(st.floats(0.0, 20.0), st.sampled_from(EXTREME_FLOATS[:6])))
    doc["channel_step_s"] = draw(
        st.one_of(st.floats(0.05, 20.0), st.sampled_from(EXTREME_FLOATS[1:5] + [1e308]))
    )
    doc["bin_width_s"] = doc["channel_step_s"] * draw(st.sampled_from([1, 3, 2**70]))
    doc["policy"] = draw(
        st.sampled_from(
            [{"kind": kind} for kind in ("fiber-only", "best-source", "all-sources")]
            + [{"kind": "satellite-only", "source_id": "Micius"}]
        )
    )
    for path in draw(st.lists(st.sampled_from(FUZZ_PATHS), max_size=3, unique=True)):
        *parents, last = path
        node = doc
        for key in parents:
            node = node[key]
        if last in ("seed", "memory_capacity"):
            node[last] = draw(st.one_of(st.integers(-(2**64), 2**70), st.sampled_from([0, -1, 1])))
        else:
            scaled = st.sampled_from([1e-3, 0.5, 2.0, 1e3]).map(lambda k, x=node[last]: k * x)
            node[last] = draw(st.one_of(fuzz_floats, scaled))
    return doc


def run_cli(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestCliFuzz:
    """Every command on any document: outputs in range, or one named error."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(doc=fuzz_documents(), source=st.sampled_from([s.source_id for s in builtin_sources()]))
    @example(doc={"bin_width_s": 1e200, "duration_s": 10.0}, source="fiber-standard")
    def test_exits_0_in_range_or_1_naming_a_field(self, doc, source):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "fuzz.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            for argv in (
                ["simulate", "--out", os.path.join(tmp, "out")],
                ["passes"],
                ["linkbudget", "--source", source],
            ):
                code, out, err = run_cli([*argv, "--config", path])
                assert "Traceback" not in err
                if code == 1:
                    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
                    assert any(name in err for name in FUZZ_FIELDS), err
                    continue
                assert code == 0, err
                if argv[0] == "simulate":
                    config = load_config(doc)
                    _reference.check_run(engine.run(config), config)
                if argv[0] == "linkbudget":
                    for row in csv.DictReader(io.StringIO(out)):
                        for column in ("eta_a", "eta_b", "p_coincidence"):
                            assert 0.0 <= float(row[column]) <= 1.0, row
