"""qbackbone benchmark: one closed-loop client running one workload.

    python3 perfbench/run.py --workload simulate-shipped --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  `--trace 0` reports the end-to-end metrics with tracing off;
`--trace 1` reports per-layer metrics from a traced run.  Readable lines
come first; the last line of standard output is one JSON object.  A
record of the run (environment, per-op times, output digest and, when
traced, the spans) is written under `perfbench/out/`.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import heapq
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "out")
SETUP_SAMPLES = 7
# Median seconds of one `calibrate()` over 15 runs on the 2-vCPU host the
# bounds were set on (quartiles 0.028 and 0.041 s); op times are scaled to
# that host speed (see `run_timed`).
CALIBRATION_REF_S = 0.036
END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_norm_s": "s",
    "sim_norm_s_per_s": "s/s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}
UNGATED_UNITS = {
    "fail_ratio": "ratio",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "op_p90_norm_s": "s",
    "sim_s_per_s": "s/s",
    "host_speed": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: time a cold import plus config load in a fresh process.
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


@dataclasses.dataclass
class OpResult:
    seconds: float
    errors: list[str]
    bytes_written: int


def execute(workload, op, tracer=None, digest=None) -> OpResult:
    """Run one op; only the cli.main calls are inside the timed region.

    Outputs are checked and, when `digest` is given, hashed into it.
    """
    from qbackbone import cli

    workload.prepare(op)
    gc.collect()
    stdouts, codes, errors = [], [], []
    scope = (tracer.installed() if tracer else contextlib.nullcontext())
    with scope, (tracer.span("op", op.index) if tracer else contextlib.nullcontext()):
        start = time.perf_counter()
        try:
            for argv in op.argvs:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    codes.append(cli.main(list(argv)))
                stdouts.append(out.getvalue())
                if codes[-1] != 0:
                    errors.append(f"{argv[0]} exited {codes[-1]}: {err.getvalue().strip()}")
        except Exception:  # a failed op is counted, not fatal
            errors.append(traceback.format_exc())
        seconds = time.perf_counter() - start
    outputs = workload.outputs(stdouts)
    if not errors:
        errors = workload.check(op, outputs)
    for line in errors:
        print(f"op {op.index} failed: {line}", file=sys.stderr)
    if digest is not None:
        for name in sorted(outputs):
            digest.update(name.encode("utf-8") + b"\0")
            digest.update(len(outputs[name]).to_bytes(8, "big"))
            digest.update(outputs[name])
    return OpResult(seconds, errors, sum(len(v) for v in outputs.values()))


def calibrate() -> float:
    """Seconds for a fixed piece of interpreter work that uses no qbackbone
    code: a heap, dict and list churn, float formatting and small numpy
    calls, the mix an op spends its time on.  The collector is off, so the
    heap an op leaves behind does not change its cost."""
    import numpy

    gc.disable()
    try:
        start = time.perf_counter()
        rng = random.Random(5)
        heap, table, rows = [], {}, []
        for i in range(12000):
            x = rng.random()
            heapq.heappush(heap, (x, i))
            table[i] = (x, str(i))
            rows.append(f"{i},{x:.6f},{x * 2.0:.3f}\n")
        while heap:
            heapq.heappop(heap)
        rows.sort()
        "".join(rows)
        a = numpy.arange(2000.0)
        for _ in range(120):
            a = numpy.sqrt(a + 1.0)
        return time.perf_counter() - start
    finally:
        gc.enable()


def cycles(seconds: float, started: float, between=None):
    """Yield once per whole cycle: at least once, and again only while the
    last cycle, repeated, would end within `seconds` of `started`.
    `between(elapsed)` runs after each cycle and counts toward its length."""
    while True:
        begin = time.perf_counter()
        yield
        if between is not None:
            between(time.perf_counter() - started)
        length = time.perf_counter() - begin
        if time.perf_counter() - started + length > seconds:
            return


def run_timed(workload, seed: int, seconds: float) -> dict:
    """Ops 1, 2, ... in whole cycles; setup probes are spread over the run so
    that setup_s sees the same host conditions as the ops.

    The host's speed drifts by up to 1.5x over minutes, often for a whole
    run, so the gated op figures are normalised: `calibrate()` runs before
    the first timed op and after each one, and an op's time is scaled by
    CALIBRATION_REF_S / (mean of the calibrations on either side of it).
    A faster or slower program moves these figures as much as the raw ones.
    """
    started = time.perf_counter()
    setup = [setup_probe(workload.name)]

    def probe_when_due(elapsed: float) -> None:
        due = min(SETUP_SAMPLES, 1 + int(elapsed * SETUP_SAMPLES / seconds))
        while len(setup) < due:
            setup.append(setup_probe(workload.name))

    k = workload.cycle
    digest = hashlib.sha256()
    # Op 0 warms caches and lazy imports: checked and digested, not timed.
    warm = execute(workload, workload.op(seed, 0), digest=digest)
    calibrations = [calibrate()]
    index = 1
    timed = []
    for _ in cycles(seconds, started, probe_when_due):
        for _ in range(k):
            op = workload.op(seed, index)
            result = execute(workload, op, digest=digest if index < k else None)
            calibrations.append(calibrate())
            timed.append((op, result))
            index += 1
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_probe(workload.name))
    results = [warm] + [r for _, r in timed]
    times = [r.seconds for _, r in timed]
    scales = [2.0 * CALIBRATION_REF_S / (a + b)
              for a, b in zip(calibrations, calibrations[1:])]
    normed = [t * f for t, f in zip(times, scales)]
    sim_seconds = sum(op.sim_seconds for op, _ in timed)
    metrics = {
        "setup_s": statistics.median(setup),
        "op_p50_norm_s": statistics.median(normed),
        "sim_norm_s_per_s": sim_seconds / sum(normed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    ungated = {
        "op_p50_s": statistics.median(times),
        "op_p90_s": statistics.quantiles(times, n=10, method="inclusive")[8],
        "op_p90_norm_s": statistics.quantiles(normed, n=10, method="inclusive")[8],
        "sim_s_per_s": sim_seconds / sum(times),
        "host_speed": CALIBRATION_REF_S / statistics.median(calibrations),
    }
    return {"results": results, "metrics": metrics, "digest": digest.hexdigest(),
            "times": times, "ops_timed": len(times), "setup_samples": setup,
            "calibrations": calibrations, "ungated": ungated}


def run_traced(workload, seed: int, seconds: float) -> dict:
    """Each op of cycle 0 runs untraced and traced, alternating which goes
    first, in whole repeated cycles; per-op counts therefore repeat exactly."""
    import tracer as tracing

    started = time.perf_counter()
    tracer = tracing.Tracer()
    ops = [workload.op(seed, i) for i in range(workload.cycle)]
    results = [execute(workload, ops[0])]  # warm-up
    digest = hashlib.sha256()
    plain, traced = [], []
    n = 0
    for _ in cycles(seconds, started):
        for op in ops:
            first_cycle = digest if n < len(ops) else None
            if n % 2 == 0:
                p = execute(workload, op)
                t = execute(workload, op, tracer, first_cycle)
            else:
                t = execute(workload, op, tracer, first_cycle)
                p = execute(workload, op)
            plain.append(p)
            traced.append(t)
            n += 1
    results += plain + traced
    metrics = tracing.layer_metrics(
        tracer,
        len(traced),
        sum(r.bytes_written for r in traced),
        [r.seconds for r in traced],
        [r.seconds for r in plain],
    )
    return {"results": results, "metrics": metrics, "digest": digest.hexdigest(),
            "absent": tracer.absent, "tracer": tracer.dump(), "ops_timed": len(traced),
            "times": [r.seconds for r in traced], "plain_times": [r.seconds for r in plain],
            "units": tracing.PER_LAYER_UNITS}


def setup_probe(workload_name: str) -> float:
    """Seconds to import qbackbone and load the workload's configs, in a
    fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload_name,
         "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def environment(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "workload_seed": seed,
        "git_commit": git_commit(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qbackbone", "__init__.py")):
        print(f"error: no qbackbone sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    if args.setup_probe:
        start = time.perf_counter()
        import workloads
        workloads.WORKLOADS[args.workload](ROOT, os.path.join(WORK, args.workload))
        print(time.perf_counter() - start)
        return 0

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    env = environment(args.seed)
    workload = workloads.WORKLOADS[args.workload](ROOT, os.path.join(WORK, args.workload))
    run = (run_traced if args.trace else run_timed)(workload, args.seed, args.seconds)
    env["loadavg_end"] = os.getloadavg()

    results = run["results"]
    failed = sum(1 for r in results if r.errors)
    metrics = run["metrics"]
    if args.trace:
        units = run["units"]
    else:
        metrics["ok_ratio"] = 1.0 - failed / len(results)
        run["ungated"]["fail_ratio"] = failed / len(results)
        units = END_TO_END_UNITS
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "attempted": len(results),
        "failed": failed, "ops_timed": run["ops_timed"], "digest": run["digest"],
        "metrics": metrics, "op_times": run["times"],
    }
    for key in ("ungated", "setup_samples", "calibrations", "absent", "plain_times", "tracer"):
        if key in run:
            record[key] = run[key]
    os.makedirs(WORK, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(WORK, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    mode = "traced" if args.trace else "timed"
    print(f"{args.workload} seed={args.seed} {mode}: {len(results)} ops attempted, "
          f"{failed} failed, {run['ops_timed']} measured")
    print(f"  environment {json.dumps(env)}")
    print(f"  output sha256 {run['digest']}")
    if args.trace:
        print(f"  absent targets: {', '.join(run['absent']) or 'none'}")
    else:
        for key, value in run["ungated"].items():
            print(f"  {key:<42} {value:.6g} {UNGATED_UNITS[key]} (not gated)")
    for key, value in metrics.items():
        print(f"  {key:<42} {value:.6g} {units[key]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
