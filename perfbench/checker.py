"""Output checks run after each benchmark op, outside the timed region.

Each function takes the bytes a command wrote and returns the list of
invariants it violates (empty when the output is correct).  Only the
first offending row of an invariant is reported.  Numeric tables are
parsed straight from the bytes with numpy, so that the checker's own
memory stays small next to the simulator's.
"""

from __future__ import annotations

import csv
import io

import numpy as np

TIMESERIES_HEADER = [
    "bin_start_s",
    "pairs_arrived",
    "pairs_stored",
    "pairs_dropped",
    "qubits_delivered",
    "frames_completed",
]
FRAMES_HEADER = [
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
]
SUMMARY_HEADER = [
    "seed",
    "duration_s",
    "frames_generated",
    "frames_processed",
    "frames_completed",
    "pairs_arrived",
    "pairs_stored",
    "pairs_dropped",
    "qubits_delivered",
]
SWEEP_HEADER = ["label", "memory_capacity", "seed", "total_qubits_delivered"]
LINKBUDGET_HEADER = [
    "time_s",
    "elev_a_deg",
    "elev_b_deg",
    "range_a_km",
    "range_b_km",
    "eta_a",
    "eta_b",
    "p_coincidence",
]


class _Invalid(Exception):
    """The text cannot be parsed into the expected table."""


def _header(data: bytes, header: list[str], name: str) -> bytes:
    """The body of a CSV whose first line is exactly `header`."""
    first, _, body = data.partition(b"\n")
    if first.decode("utf-8", "replace").split(",") != header:
        raise _Invalid(f"{name}: header is {first!r}")
    return body


def _columns(data: bytes, header: list[str], name: str) -> dict[str, np.ndarray]:
    """Numeric CSV columns as float64 (exact for these integers); empty cells are NaN."""
    body = _header(data, header, name)
    if not body:
        return {h: np.empty(0) for h in header}
    body = body.replace(b",\n", b",nan\n").replace(b",,", b",nan,").replace(b",,", b",nan,")
    try:
        table = np.loadtxt(io.BytesIO(body), delimiter=",", ndmin=2)
    except ValueError as exc:
        raise _Invalid(f"{name}: malformed rows ({exc})") from exc
    if table.shape[1] != len(header):
        raise _Invalid(f"{name}: malformed rows ({table.shape[1]} columns)")
    return {h: table[:, k] for k, h in enumerate(header)}


def _first(mask: np.ndarray) -> int | None:
    hits = np.flatnonzero(mask)
    return int(hits[0]) if len(hits) else None


def check_simulate(
    timeseries: bytes, frames: bytes, summary: bytes, unlimited: bool
) -> list[str]:
    """Invariants of one `simulate` run's three CSV files."""
    try:
        ts = _columns(timeseries, TIMESERIES_HEADER, "timeseries.csv")
        fr = _columns(frames, FRAMES_HEADER, "frames.csv")
        sm = _columns(summary, SUMMARY_HEADER, "summary.csv")
    except _Invalid as exc:
        return [str(exc)]
    if len(sm["seed"]) != 1:
        return [f"summary.csv: {len(sm['seed'])} data rows, expected 1"]

    errors = []
    arrived, stored, dropped = ts["pairs_arrived"], ts["pairs_stored"], ts["pairs_dropped"]
    k = _first(stored + dropped != arrived)
    if k is not None:
        errors.append(f"bin {k}: stored {stored[k]} + dropped {dropped[k]} != arrived {arrived[k]}")
    if unlimited and np.any(dropped != 0):
        errors.append(f"unlimited memory dropped {dropped.sum()} pairs")
    for key in ("pairs_arrived", "pairs_stored", "pairs_dropped", "qubits_delivered",
                "frames_completed"):
        if sm[key][0] != ts[key].sum():
            errors.append(f"summary {key} {sm[key][0]} != timeseries sum {ts[key].sum()}")

    done = ~np.isnan(fr["delivered"])
    accounted = sum(fr[key][done] for key in (
        "ingress_access_lost", "dropped_for_no_pair", "teleport_failures",
        "egress_access_lost", "delivered"))
    k = _first(accounted != fr["payload_qubits"][done])
    if k is not None:
        errors.append(f"frame {fr['frame_id'][done][k]}: payload "
                      f"{fr['payload_qubits'][done][k]} != accounted {accounted[k]}")
    if np.any(np.diff(fr["frame_id"]) <= 0):
        errors.append("frames.csv: frame ids not strictly increasing")
    start, stop, attempts = fr["consumed_start"], fr["consumed_stop"], fr["attempts"]
    expected = np.concatenate(([0.0], stop[:-1]))
    k = _first((start != expected) | (stop - start != attempts)
               | (fr["pairs_consumed"] != attempts))
    if k is not None:
        errors.append(f"frame {fr['frame_id'][k]}: consumed [{start[k]}, {stop[k]}) with "
                      f"{attempts[k]} attempts does not continue the tiling at {expected[k]}")
    if attempts.sum() > sm["pairs_stored"][0]:
        errors.append(f"attempts {attempts.sum()} exceed pairs stored {sm['pairs_stored'][0]}")
    return errors


def check_sweep(data: bytes, memory: list[str], seed: int) -> list[str]:
    """A one-source, one-seed-per-point sweep: one row per memory size, in order."""
    try:
        body = _header(data, SWEEP_HEADER, "sweep.csv").decode("utf-8")
        rows = list(csv.reader(io.StringIO(body)))
        if any(len(row) != len(SWEEP_HEADER) for row in rows):
            raise _Invalid("sweep.csv: malformed rows")
        delivered = [int(row[3]) for row in rows]
    except (_Invalid, UnicodeDecodeError, ValueError) as exc:
        return [str(exc)]
    errors = []
    if [row[1] for row in rows] != memory:
        errors.append(f"sweep memory column {[row[1] for row in rows]} != {memory}")
    if any(row[2] != str(seed) for row in rows):
        errors.append(f"sweep seed column is not {seed}")
    if any(d < 0 for d in delivered):
        errors.append(f"sweep delivered a negative count: {delivered}")
    return errors


def check_linkbudget(data: bytes) -> list[str]:
    """p_coincidence = eta_a * eta_b with both transmittances in [0, 1]."""
    try:
        table = _columns(data, LINKBUDGET_HEADER, "linkbudget")
    except _Invalid as exc:
        return [str(exc)]
    a, b, p = table["eta_a"], table["eta_b"], table["p_coincidence"]
    if not len(p):
        return ["linkbudget: no rows"]
    errors = []
    k = _first(~((0.0 <= a) & (a <= 1.0) & (0.0 <= b) & (b <= 1.0)))
    if k is not None:
        errors.append(f"linkbudget row {k}: eta ({a[k]}, {b[k]}) outside [0, 1]")
    k = _first(~np.isclose(p, a * b, rtol=1e-12, atol=0.0))
    if k is not None:
        errors.append(f"linkbudget row {k}: p_coincidence {p[k]} != eta_a * eta_b {a[k] * b[k]}")
    return errors
