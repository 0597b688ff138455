"""Command-line entry point: run scenarios, sweeps, pass tables, link budgets.

Exit codes: 0 success, 1 usage/parse/validation errors, 2 I/O errors.  All
diagnostics go to standard error; data goes to files or standard output.
CSV numbers use a decimal point and no grouping, so outputs for a fixed
(config, seed) are byte-identical across runs.

``linkbudget`` prints the columns of ``entanglement.pass_slice``, whose
coincidence column a run's probability matrix holds, through the row
writer of ``frames.csv``; in one process it reuses the columns a run on
the same steps computed.  ``sweep`` runs each source alone under
all-sources, bounds its rows before building any list, checks every
label's run ceilings before its first run and holds one run.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import dataclasses
import functools
import operator
import os
import sys
from typing import Iterable, Sequence

import numpy as np

from . import engine, ryu, scenario
from .entanglement import coincidence_matrix, pass_slice
from .geometry import slant_range_km, visibility_window
from .linkbudget import fiber_transmittance

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2

TIMESERIES_COLUMNS = tuple(f.name for f in dataclasses.fields(engine.BinTable))
FRAMES_COLUMNS = (
    "frame_id",
    "created_at_s",
    "egress_at_s",
    "payload_qubits",
    "survivors_at_egress",
    "ingress_access_lost",
    "attempts",
    "dropped_for_no_pair",
    "successes",
    "teleport_failures",
    "pairs_consumed",
    "consumed_start",
    "consumed_stop",
    "delivered",
    "egress_access_lost",
    "delivered_at_s",
)
# Rows of frames.csv formatted and written at a time.  Each chunk costs
# about 600 numpy calls whatever its size, weighed against its working set:
# at 16,384 rows the largest allocation, the place matrix, is about 2.2 MB,
# far below the 32 MiB mmap threshold that `main` holds, so freed
# temporaries are reused instead of faulted back in.  Paired in process over
# the 7 shipped configs, 8,192, 16,384 and 32,768 rows wrote 10 %, 13 % and
# 11 % faster than 4,096.  Under glibc's default thresholds, as where the C
# library has no `mallopt`, 8,192 rows were 10 % faster, 16,384 no faster
# and 32,768 40 % slower.  The writer holds 12-14 MB above the run's
# result, whatever the horizon.
FRAMES_CHUNK = 16384
SUMMARY_COLUMNS = ("seed", "duration_s", *(f.name for f in dataclasses.fields(engine.RunTotals)))
SWEEP_COLUMNS = ("label", "memory_capacity", "seed", "total_qubits_delivered")
PASSES_COLUMNS = (
    "satellite",
    "altitude_km",
    "peak_elevation_a_deg",
    "peak_elevation_b_deg",
    "min_range_a_km",
    "min_range_b_km",
    "window_start_s",
    "window_end_s",
    "window_duration_s",
)
LINKBUDGET_COLUMNS = (
    "time_s",
    "elev_a_deg",
    "elev_b_deg",
    "range_a_km",
    "range_b_km",
    "eta_a",
    "eta_b",
    "p_coincidence",
)


def _cells(row: Iterable[object]) -> list[str]:
    """The one cell rule of every table: ``repr`` of floats (the shortest
    round-trip form, also for numpy scalars), empty for None, else ``str``."""
    return ["" if v is None else repr(float(v)) if isinstance(v, float) else str(v) for v in row]


def _write_quoted(fh, columns: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    """Write a small table through ``csv.writer`` over ``_cells``; it quotes
    text cells such as source ids and leaves numeric and empty cells bare."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(map(_cells, rows))


def _load(args: argparse.Namespace) -> scenario.ScenarioConfig:
    """Config from --config (or defaults).

    Commands with a --seed take the seed with precedence --seed > env >
    file; the others ignore the environment, as no table of theirs
    depends on the seed.
    """
    if args.config is not None:
        config = scenario.load_config_file(args.config)
    else:
        config = scenario.ScenarioConfig()
    if "seed" in vars(args):
        seed = scenario.seed_from_env()
        if args.seed is not None:
            seed = args.seed
        if seed is not None:
            config = dataclasses.replace(config, seed=seed)
    return config


def _write_frames(fh, frames: engine.FrameTable) -> None:
    """Write frames.csv to a binary file, ``FRAMES_CHUNK`` rows per write.

    Cells match ``_cells``: ``repr`` of floats (``ryu.float_cells``), ``str``
    of ints (``ryu.count_cells``) and empty cells for frames still in flight.
    """
    fh.write((",".join(FRAMES_COLUMNS) + "\n").encode())
    payload = ryu.count_cells(np.array([frames.payload_qubits]))
    consumed = 0  # each frame's pairs start where the previous frame's stop
    for lo in range(0, len(frames), FRAMES_CHUNK):
        hi = min(lo + FRAMES_CHUNK, len(frames))
        n = hi - lo
        survivors, attempts, successes = (
            c[lo:hi] for c in (frames.survivors_at_egress, frames.attempts, frames.successes)
        )
        delivered = frames.delivered[lo:hi]  # the chunk's completed frames only
        times = ryu.float_cells(
            np.concatenate([frames.created_at_s[lo:hi], frames.egress_at_s[lo:hi], frames.delivered_at_s[lo:hi]])
        )
        tried = ryu.count_cells(attempts)
        stops = consumed + np.cumsum(attempts)
        span = ryu.count_cells(np.append(consumed, stops))
        consumed = int(stops[-1])
        cells = (
            ryu.count_cells(np.arange(lo, hi)),
            times[:, :n],
            times[:, n : 2 * n],
            np.broadcast_to(payload, (len(payload), n)),
            ryu.count_cells(survivors),
            ryu.count_cells(frames.payload_qubits - survivors),
            tried,
            ryu.count_cells(survivors - attempts),
            ryu.count_cells(successes),
            ryu.count_cells(attempts - successes),
            tried,  # pairs_consumed
            span[:, :n],  # consumed_start
            span[:, 1:],  # consumed_stop, each frame's stop the next one's start
            ryu.count_cells(delivered),
            ryu.count_cells(successes[: len(delivered)] - delivered),
            times[:, 2 * n :],
        )
        fh.write(_row_bytes(cells, n))


def _row_bytes(cells: Sequence[np.ndarray], n: int) -> bytes:
    """The bytes of ``n`` unquoted CSV rows from one cell matrix per column,
    laid out as ``ryu.float_cells`` lays out its cells; a matrix that covers
    only the first rows leaves the others empty.  The cells are stacked
    place-major with a comma or newline place after each cell's places,
    copied once into row-major order, and their NUL bytes dropped: no byte
    of a cell's text is NUL."""
    chars = np.zeros((sum(len(cell) + 1 for cell in cells), n), np.uint8)
    at = 0
    for cell in cells:
        chars[at : at + len(cell), : cell.shape[1]] = cell
        at += len(cell) + 1
        chars[at - 1] = ord(",")
    chars[-1] = ord("\n")
    return chars.T.tobytes().translate(None, b"\0")


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _load(args)
    result = engine.run(config)
    try:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "timeseries.csv"), "w", encoding="utf-8", newline="") as fh:
            columns = (getattr(result.bins, name) for name in TIMESERIES_COLUMNS)
            _write_quoted(fh, TIMESERIES_COLUMNS, zip(*columns))
        with open(os.path.join(args.out, "frames.csv"), "wb") as fh:
            _write_frames(fh, result.frames)
        with open(os.path.join(args.out, "summary.csv"), "w", encoding="utf-8", newline="") as fh:
            totals = dataclasses.astuple(result.totals)
            _write_quoted(fh, SUMMARY_COLUMNS, [(config.seed, config.duration_s, *totals)])
    except OSError as exc:
        print(f"error: cannot write outputs under {args.out!r}: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote timeseries.csv, frames.csv, summary.csv to {args.out}", file=sys.stderr)
    return EXIT_OK


def _parse_memory_list(raw: str) -> list[int | None]:
    values: list[int | None] = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        if token.lower() in ("unlimited", "none", "inf"):
            values.append(None)
            continue
        try:
            m = int(token)
        except ValueError as exc:
            raise scenario.ConfigError(f"invalid memory size {token!r}") from exc
        if m < 1:
            raise scenario.ConfigError("capacity must be >= 1 or unlimited")
        values.append(m)
    if not values:
        raise scenario.ConfigError("memory list must not be empty")
    return values


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _load(args)
    if args.seeds_per_point < 1:
        raise scenario.ConfigError("--seeds-per-point must be >= 1")

    if args.policy is not None:
        base = dataclasses.replace(config, policy=scenario.Policy(args.policy, args.source))
        labeled = [(args.policy, base)]
    else:
        # Each source alone: every policy that admits a lone source keeps
        # exactly its steps with p > 0, as all-sources does.
        alone = scenario.Policy("all-sources")
        labeled = [
            (s.source_id, dataclasses.replace(config, sources=(s,), policy=alone))
            for s in config.sources
            if args.source in (None, s.source_id)
        ]
        if args.source is not None and not labeled:
            raise scenario.ConfigError(f"unknown source {args.source!r}")

    # Bound the rows, one per label, size and seed, before any list is
    # built; the commas bound the number of sizes --memory lists.
    n_sizes = args.memory.count(",") + 1
    if len(labeled) * n_sizes * args.seeds_per_point > scenario.MAX_RUN_CELLS:
        raise scenario.ConfigError(
            f"sweep rows ({len(labeled)} labels x {n_sizes} --memory sizes x {args.seeds_per_point} "
            f"--seeds-per-point) exceed the ceiling of {scenario.MAX_RUN_CELLS}"
        )
    for _, base in labeled:  # so that no label fails after another has run
        base.check_ceilings()
    memory_sizes = sorted(_parse_memory_list(args.memory), key=lambda m: (m is None, m))
    # Equal sizes give equal results, so each distinct size is walked once.
    distinct = list(dict.fromkeys(memory_sizes))
    seeds = range(config.seed, config.seed + args.seeds_per_point)
    qubits_delivered = operator.attrgetter("totals.qubits_delivered")
    rows = []
    for label, base in sorted(labeled, key=lambda item: item[0]):
        # One batch per seed walks every size over the same draws, and
        # each result is reduced to its count before the next is walked.
        delivered = []
        for seed in seeds:
            results = engine.run_many(dataclasses.replace(base, seed=seed), distinct)
            delivered.append(dict(zip(distinct, map(qubits_delivered, results))))
        for memory in memory_sizes:
            cell = "unlimited" if memory is None else memory
            rows += [(label, cell, seed, counts[memory]) for seed, counts in zip(seeds, delivered)]
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            _write_quoted(fh, SWEEP_COLUMNS, rows)
    except OSError as exc:
        print(f"error: cannot write {args.out!r}: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {len(rows)} sweep points to {args.out}", file=sys.stderr)
    return EXIT_OK


def _cmd_passes(args: argparse.Namespace) -> int:
    config = _load(args)
    rows = []
    for source in config.sources:
        if source.kind != "satellite-pass":
            continue
        model = source.pass_model
        window = visibility_window(model, source.link_params.min_elevation_deg)
        start, end = (None, None) if window is None else window
        rows.append(
            (
                source.source_id,
                model.altitude_km,
                model.egress.peak_elevation_deg,
                model.ingress.peak_elevation_deg,
                slant_range_km(model.egress.peak_elevation_deg, model.altitude_km),
                slant_range_km(model.ingress.peak_elevation_deg, model.altitude_km),
                start,
                end,
                None if window is None else end - start,
            )
        )
    if not rows:
        print("note: no satellite sources in configuration", file=sys.stderr)
    _write_quoted(sys.stdout, PASSES_COLUMNS, rows)
    return EXIT_OK


def _cmd_linkbudget(args: argparse.Namespace) -> int:
    config = _load(args)
    matches = [s for s in config.sources if s.source_id == args.source]
    if not matches:
        raise scenario.ConfigError(f"unknown source {args.source!r}")
    source = matches[0]
    if source.kind == "ground-fiber":
        eta, length = fiber_transmittance(source.arm), source.arm.length_km
        p = coincidence_matrix((source,), np.zeros(1))[:, 0]
        columns = ([0.0], [np.nan], [np.nan], [length], [length], [eta], [eta], p)
    else:
        times = config.step_grid[:-1]
        lo, hi, egress, ingress, p = pass_slice(source, times)
        columns = (times[lo:hi], egress[0], ingress[0], egress[1], ingress[1], egress[2], ingress[2], p)
    values = np.vstack(columns).ravel()  # NaN, below the horizon, prints as an empty cell
    cells = ryu.float_cells(values)
    cells[:, np.isnan(values)] = 0  # an empty cell
    rows = _row_bytes(np.split(cells, len(columns), axis=1), len(values) // len(columns))
    sys.stdout.write(",".join(LINKBUDGET_COLUMNS) + "\n" + rows.decode())
    return EXIT_OK


_CONFIG = ("--config", {"help": "Scenario JSON (defaults when omitted)."})
# Each command's handler, its line in the command list and its arguments.
COMMANDS = {
    "simulate": (_cmd_simulate, "Run one scenario and write CSV telemetry.", (
        _CONFIG,
        ("--out", {"required": True, "help": "Output directory for the CSV files."}),
        ("--seed", {"type": int, "help": "Master seed override."}),
    )),
    "sweep": (_cmd_sweep, "Sweep memory sizes over seeds and sources.", (
        _CONFIG,
        ("--out", {"required": True, "help": "Output CSV file."}),
        ("--seed", {"type": int, "help": "Base seed override."}),
        ("--memory", {"required": True, "help": "Comma-separated memory sizes, e.g. '1,10,100,unlimited'."}),
        ("--seeds-per-point", {"type": int, "default": 1, "help": "Seeds per point."}),
        ("--source", {
            "help": "Without --policy, sweep only this source; with --policy satellite-only, the "
            "policy's satellite; any other --policy takes no source and exits 1.",
        }),
        ("--policy", {
            "choices": scenario.POLICY_KINDS,
            "help": "Sweep this policy over the full source list instead of per-source isolation.",
        }),
    )),
    "passes": (_cmd_passes, "Print the satellite pass table as CSV.", (_CONFIG,)),
    "linkbudget": (_cmd_linkbudget, "Print one source's downlink budget per channel step as CSV.", (
        _CONFIG,
        ("--source", {"required": True, "help": "Source id to profile."}),
    )),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built on first use and kept for the
    life of the process."""
    parser = argparse.ArgumentParser(
        prog="qbackbone",
        description="Simulate quantum dataframe transmission over an entanglement backbone.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, arguments) in COMMANDS.items():
        subparser = sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            subparser.add_argument(flag, **options)
        subparser.set_defaults(func=func)
    return parser


@functools.cache
def _hold_freed_memory() -> None:
    """Fix glibc's mmap threshold (-3) at its maximum and its trim threshold
    (-1) at 256 MiB, once per process, so freed temporaries stay mapped."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt in this C library
        return
    mallopt(-3, ctypes.sizeof(ctypes.c_long) << 22)  # 4 MiB per byte of a long: 32 MiB on 64-bit hosts
    mallopt(-1, 256 << 20)


def main(argv: Sequence[str] | None = None) -> int:
    _hold_freed_memory()
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the help (code 0) or a usage error (code 2).
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    try:
        return args.func(args)
    except scenario.ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BrokenPipeError:
        # downstream consumer (e.g. head) closed the pipe; not our error
        try:
            sys.stdout.close()
        except OSError:
            pass
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
