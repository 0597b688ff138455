"""Self-tests of the benchmark: checker, input generator, tracer.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import gc
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import pytest  # noqa: E402

import checker  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from qbackbone import cli, scenario  # noqa: E402

# --- checker --------------------------------------------------------------


@pytest.fixture(scope="module")
def simulate_outputs(tmp_path_factory):
    """The three CSVs of a short fiber run with delivered frames."""
    tmp = tmp_path_factory.mktemp("sim")
    config = scenario.ScenarioConfig(sources=(scenario.fiber_source(),), duration_s=16.0)
    path = tmp / "config.json"
    path.write_text(json.dumps(scenario.config_to_dict(config)))
    assert cli.main(["simulate", "--config", str(path), "--out", str(tmp), "--seed", "3"]) == 0
    return {n: (tmp / f"{n}.csv").read_bytes() for n in ("timeseries", "frames", "summary")}


def edit(data: bytes, row: int, column: str, change) -> bytes:
    """Apply `change` to one cell of a CSV (row 0 is the first data row)."""
    rows = list(csv.reader(io.StringIO(data.decode())))
    k = rows[0].index(column)
    rows[row + 1][k] = str(change(rows[row + 1][k]))
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue().encode()


def busy_bin(outputs) -> int:
    rows = list(csv.DictReader(io.StringIO(outputs["timeseries"].decode())))
    return next(k for k, r in enumerate(rows) if int(r["pairs_stored"]) > 0)


def check(outputs, unlimited=True, **replaced):
    files = {**outputs, **replaced}
    return checker.check_simulate(
        files["timeseries"], files["frames"], files["summary"], unlimited=unlimited
    )


def test_checker_accepts_real_outputs(simulate_outputs):
    assert check(simulate_outputs) == []


def test_checker_rejects_bin_imbalance(simulate_outputs):
    ts = edit(simulate_outputs["timeseries"], 0, "pairs_stored", lambda v: int(v) + 1)
    assert any("stored" in e and "!= arrived" in e for e in check(simulate_outputs, timeseries=ts))


def test_checker_rejects_drops_with_unlimited_memory(simulate_outputs):
    k = busy_bin(simulate_outputs)
    ts = edit(simulate_outputs["timeseries"], k, "pairs_stored", lambda v: int(v) - 1)
    ts = edit(ts, k, "pairs_dropped", lambda v: int(v) + 1)
    errors = check(simulate_outputs, timeseries=ts)
    assert any("unlimited memory dropped" in e for e in errors)
    assert not any("unlimited" in e for e in check(simulate_outputs, unlimited=False, timeseries=ts))


def test_checker_rejects_summary_mismatch(simulate_outputs):
    sm = edit(simulate_outputs["summary"], 0, "qubits_delivered", lambda v: int(v) + 1)
    assert any("summary qubits_delivered" in e for e in check(simulate_outputs, summary=sm))


def test_checker_rejects_frame_accounting(simulate_outputs):
    fr = edit(simulate_outputs["frames"], 0, "delivered", lambda v: int(v) + 1)
    assert any("!= accounted" in e for e in check(simulate_outputs, frames=fr))


def test_checker_rejects_broken_tiling(simulate_outputs):
    fr = edit(simulate_outputs["frames"], 1, "consumed_start", lambda v: int(v) + 1)
    assert any("tiling" in e for e in check(simulate_outputs, frames=fr))


def test_checker_rejects_attempts_beyond_stored(simulate_outputs):
    sm = edit(simulate_outputs["summary"], 0, "pairs_stored", lambda v: 0)
    assert any("exceed pairs stored" in e for e in check(simulate_outputs, summary=sm))


def test_checker_rejects_malformed_csv(simulate_outputs):
    assert check(simulate_outputs, frames=b"frame_id\n1\n")
    fr = simulate_outputs["frames"] + b"1,2\n"
    assert any("malformed" in e for e in check(simulate_outputs, frames=fr))


@pytest.fixture(scope="module")
def linkbudget_text():
    out = io.StringIO()
    config = os.path.join(ROOT, "configs", "micius.json")
    with contextlib.redirect_stdout(out):
        assert cli.main(["linkbudget", "--config", config, "--source", "Micius"]) == 0
    return out.getvalue().encode()


def test_checker_linkbudget(linkbudget_text):
    assert checker.check_linkbudget(linkbudget_text) == []
    peak = linkbudget_text.count(b"\n") // 2
    bad_p = edit(linkbudget_text, peak, "p_coincidence", lambda v: float(v) * 1.001)
    assert any("p_coincidence" in e for e in checker.check_linkbudget(bad_p))
    bad_eta = edit(linkbudget_text, 0, "eta_a", lambda v: 1.5)
    assert any("outside [0, 1]" in e for e in checker.check_linkbudget(bad_eta))


def test_checker_sweep():
    text = b"label,memory_capacity,seed,total_qubits_delivered\nx,1,7,10\nx,unlimited,7,12\n"
    assert checker.check_sweep(text, ["1", "unlimited"], 7) == []
    assert checker.check_sweep(text, ["1", "5"], 7)
    assert checker.check_sweep(text, ["1", "unlimited"], 8)


def test_failed_exit_code_fails_the_op(tmp_path):
    workload = workloads.SimulateShipped(ROOT, str(tmp_path))
    op = dataclasses.replace(
        workload.op(0, 0),
        argvs=(("simulate", "--config", str(tmp_path / "missing.json"), "--out", workload.out_dir),),
    )
    result = run.execute(workload, op)
    assert any("exited 1" in e for e in result.errors)


# --- input generator ------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_repeats_for_a_seed_and_differs_across_seeds(tmp_path, name):
    workload = workloads.WORKLOADS[name](ROOT, str(tmp_path))
    first = [workload.op(5, i) for i in range(workload.cycle + 1)]
    again = [workload.op(5, i) for i in range(workload.cycle + 1)]
    other = [workload.op(6, i) for i in range(workload.cycle + 1)]
    assert first == again
    assert all(a != b for a, b in zip(first, other))
    assert len({op.argvs for op in first}) == len(first)


def test_fine_peaks_stay_inside_the_pass_domain(tmp_path):
    workload = workloads.LinkbudgetFine(ROOT, str(tmp_path))
    config = scenario.load_config(workload.op(9, 0).config_doc)
    for source in config.sources:
        if source.kind == "satellite-pass":
            peak = next(iter(source.pass_model.station_passes.values())).peak_time_s
            lo, hi = workloads.FINE_PEAK_RANGE_S
            assert lo <= peak <= hi


# --- tracer ---------------------------------------------------------------


def qbackbone_bindings() -> dict:
    """Every (namespace, name) -> object binding in qbackbone's modules and classes."""
    found = {}
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "qbackbone" or mod_name.startswith("qbackbone.")):
            continue
        for attr, value in vars(module).items():
            found[(mod_name, attr)] = value
            if isinstance(value, type) and value.__module__ == mod_name:
                for name, member in vars(value).items():
                    found[(mod_name, attr, name)] = member
    return found


def short_fine_op(tmp_path):
    workload = workloads.LinkbudgetFine(ROOT, str(tmp_path))
    op = workload.op(1, 0)
    doc = dict(op.config_doc, duration_s=64.0)
    return workload, dataclasses.replace(op, config_doc=doc)


def test_traced_run_restores_every_binding(tmp_path):
    before = qbackbone_bindings()
    workload, op = short_fine_op(tmp_path)
    tracer = tracing.Tracer()
    result = run.execute(workload, op, tracer)
    assert result.errors == []
    after = qbackbone_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.absent == []
    totals = tracer.totals()
    assert totals["engine.run"][0] == 1 and totals["cli.main"][0] == 4
    assert totals["geometry.elevation_at"][0] > 0
    assert [s[0] for s in tracer.spans].count("op") == 1


def test_tracer_counts_repeat_exactly(tmp_path):
    counts = []
    for _ in range(2):
        workload, op = short_fine_op(tmp_path)
        tracer = tracing.Tracer()
        run.execute(workload, op, tracer)
        counts.append({k: v[0] for k, v in tracer.totals().items()})
    assert counts[0] == counts[1]


def test_missing_target_is_absent_not_fatal(tmp_path):
    targets = tracing.TARGETS + (
        tracing.Target("engine.gone", "qbackbone.engine", "NoSuchQueue.pop"),
        tracing.Target("interface.gone", "qbackbone.interface", "no_such_function"),
    )
    tracer = tracing.Tracer(targets=targets)
    workload, op = short_fine_op(tmp_path)
    assert run.execute(workload, op, tracer).errors == []
    assert tracer.absent == ["engine.gone", "interface.gone"]
    assert tracer.totals()["engine.gone"][0] == 0
    metrics = tracing.layer_metrics(tracer, 1, 1, [1.0], [1.0])
    assert set(metrics) == set(tracing.PER_LAYER_UNITS)


# --- calibration ----------------------------------------------------------


def test_calibration_times_work_and_restores_the_collector():
    assert gc.isenabled()
    assert run.calibrate() > 0.0
    assert gc.isenabled()


# --- BENCHMARK.json -------------------------------------------------------


def test_benchmark_json_names_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
