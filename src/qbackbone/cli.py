"""Command-line entry point: run scenarios, sweeps, pass tables, link budgets.

Exit codes: 0 success, 1 parse/validation errors, 2 I/O errors.  All
diagnostics go to standard error; data goes to files or standard output.
CSV numbers use a decimal point and no grouping, so outputs for a fixed
(config, seed) are byte-identical across runs.

``linkbudget`` prints a satellite's downlinks on the channel steps where
the engine evaluates them (``entanglement.pass_slice``), so each
``p_coincidence`` is an entry of the probability matrix a run uses.
``sweep`` bounds its rows before building any list and holds one run.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import operator
import os
import sys
from typing import Callable, Iterable, Sequence

import numpy as np

from . import engine, scenario
from .entanglement import pass_slice
from .geometry import slant_range_km, visibility_window
from .linkbudget import fiber_transmittance

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2

TIMESERIES_COLUMNS = tuple(f.name for f in dataclasses.fields(engine.MetricsBin))
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
# Rows of frames.csv formatted and written at a time: large enough to
# amortise the per-chunk numpy calls, small enough that the formatted
# strings of a chunk stay a small share of the run's memory.
FRAMES_CHUNK = 1024
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
    """Write frames.csv from the frame columns, ``FRAMES_CHUNK`` rows per write.

    Cells match ``_cells``: ``repr`` of floats, ``str`` of ints, and empty
    cells for frames still in flight.  Every cell is numeric or empty, so
    no cell needs CSV quoting.
    """
    fh.write(",".join(FRAMES_COLUMNS) + "\n")
    payload, start, delivered = frames.payload_qubits, frames.consumed_start, frames.delivered
    survivors, attempts, successes = frames.survivors_at_egress, frames.attempts, frames.successes
    counts = [
        _int_cells(c)
        for c in (survivors, payload - survivors, attempts, survivors - attempts, successes, attempts - successes)
    ]
    # Frame i consumes the pairs [start[i], start[i + 1]); the last one, start + attempts.
    bounds = _int_cells(np.append(start, start[-1:] + attempts[-1:]))
    done, lost_out = _int_cells(delivered), _int_cells(successes[: len(delivered)] - delivered)
    for lo in range(0, len(frames), FRAMES_CHUNK):
        hi = min(lo + FRAMES_CHUNK, len(frames))
        kept, lost_in, tried, no_pair, succeeded, failed = (cells(lo, hi) for cells in counts)
        bound_cells, done_cells = bounds(lo, hi + 1), done(lo, hi)
        in_flight = [""] * (hi - lo - len(done_cells))
        columns = (
            map(str, range(lo, hi)),
            map(repr, frames.created_at_s[lo:hi].tolist()),
            map(repr, frames.egress_at_s[lo:hi].tolist()),
            itertools.repeat(str(payload), hi - lo),
            *(kept, lost_in, tried, no_pair, succeeded, failed, tried),  # through pairs_consumed
            bound_cells[:-1],
            bound_cells[1:],
            done_cells + in_flight,
            lost_out(lo, hi) + in_flight,
            itertools.chain(map(repr, frames.delivered_at_s[lo:hi].tolist()), in_flight),
        )
        fh.write("".join([",".join(row) + "\n" for row in zip(*columns)]))


def _int_cells(column: np.ndarray) -> Callable[[int, int], list[str]]:
    """``cells(lo, hi)``, the ``str`` cells of ``column[lo:hi]``.  A column
    spanning no more values than it has entries formats each value once,
    into a table indexed by value; any other is formatted entry by entry."""
    if len(column):
        low, high = int(column.min()), int(column.max())
        if high - low < len(column):
            table = np.array([str(v) for v in range(low, high + 1)], dtype=object)
            return lambda lo, hi: table[column[lo:hi] - low].tolist()
    return lambda lo, hi: list(map(str, column[lo:hi].tolist()))


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _load(args)
    result = engine.run(config)
    try:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "timeseries.csv"), "w", encoding="utf-8", newline="") as fh:
            bin_row = operator.attrgetter(*TIMESERIES_COLUMNS)
            _write_quoted(fh, TIMESERIES_COLUMNS, map(bin_row, result.bins))
        with open(os.path.join(args.out, "frames.csv"), "w", encoding="utf-8", newline="") as fh:
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


def _isolated_source_runs(
    config: scenario.ScenarioConfig,
) -> list[tuple[str, scenario.ScenarioConfig]]:
    """One (label, config) per source, each run with only that source active."""
    runs = []
    for source in config.sources:
        if source.kind == "satellite-pass":
            policy = scenario.Policy("satellite-only", source.source_id)
        else:
            policy = scenario.Policy("fiber-only")
        runs.append(
            (
                source.source_id,
                dataclasses.replace(config, sources=(source,), policy=policy),
            )
        )
    return runs


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _load(args)
    if args.seeds_per_point < 1:
        raise scenario.ConfigError("--seeds-per-point must be >= 1")

    if args.policy is not None:
        base = dataclasses.replace(config, policy=scenario.Policy(args.policy, args.source))
        labeled = [(args.policy, base)]
    else:
        labeled = _isolated_source_runs(config)
        if args.source is not None:
            labeled = [(label, cfg) for label, cfg in labeled if label == args.source]
            if not labeled:
                raise scenario.ConfigError(f"unknown source {args.source!r}")

    # Bound the rows, one per label, size and seed, before any list is
    # built; the commas bound the number of sizes --memory lists.
    n_sizes = args.memory.count(",") + 1
    if len(labeled) * n_sizes * args.seeds_per_point > scenario.MAX_RUN_CELLS:
        raise scenario.ConfigError(
            f"sweep rows ({len(labeled)} labels x {n_sizes} --memory sizes x {args.seeds_per_point} "
            f"--seeds-per-point) exceed the ceiling of {scenario.MAX_RUN_CELLS}"
        )
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
        eta = fiber_transmittance(source.arm)
        length = source.arm.length_km
        rows = [_cells((0.0, None, None, length, length, eta, eta, eta * eta))]
    else:
        times = config.step_grid[:-1]
        lo, hi, (elev_a, range_a, eta_a), (elev_b, range_b, eta_b) = pass_slice(source, times)
        # ``_cells`` column by column: every value is a float, or None below the horizon.
        rows = zip(
            map(repr, times[lo:hi].tolist()),
            *(["" if v is None else repr(v) for v in c] for c in (elev_a, elev_b, range_a, range_b)),
            *(map(repr, c) for c in (eta_a, eta_b, np.multiply(eta_a, eta_b).tolist())),
        )
    sys.stdout.write("".join([",".join(row) + "\n" for row in (LINKBUDGET_COLUMNS, *rows)]))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbackbone",
        description="Simulate quantum dataframe transmission over an entanglement backbone.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="Run one scenario and write CSV telemetry.")
    simulate.add_argument("--config", help="Scenario JSON (defaults when omitted).")
    simulate.add_argument("--out", required=True, help="Output directory for the CSV files.")
    simulate.add_argument("--seed", type=int, help="Master seed override.")
    simulate.set_defaults(func=_cmd_simulate)

    sweep = sub.add_parser("sweep", help="Sweep memory sizes over seeds and sources.")
    sweep.add_argument("--config", help="Scenario JSON (defaults when omitted).")
    sweep.add_argument("--out", required=True, help="Output CSV file.")
    sweep.add_argument("--seed", type=int, help="Base seed override.")
    sweep.add_argument(
        "--memory",
        required=True,
        help="Comma-separated memory sizes, e.g. '1,10,100,unlimited'.",
    )
    sweep.add_argument("--seeds-per-point", type=int, default=1, help="Seeds per point.")
    sweep.add_argument("--source", help="Restrict to one source id.")
    sweep.add_argument(
        "--policy",
        choices=scenario.POLICY_KINDS,
        help="Sweep this policy over the full source list instead of per-source isolation.",
    )
    sweep.set_defaults(func=_cmd_sweep)

    passes = sub.add_parser("passes", help="Print the satellite pass table as CSV.")
    passes.add_argument("--config", help="Scenario JSON (defaults when omitted).")
    passes.set_defaults(func=_cmd_passes)

    linkbudget = sub.add_parser(
        "linkbudget", help="Print one source's downlink budget per channel step as CSV."
    )
    linkbudget.add_argument("--config", help="Scenario JSON (defaults when omitted).")
    linkbudget.add_argument("--source", required=True, help="Source id to profile.")
    linkbudget.set_defaults(func=_cmd_linkbudget)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
