"""The benchmark's workloads: inputs drawn from a workload seed, one op each.

An op is a short list of `qbackbone.cli.main` argument vectors run back to
back, as a user at a shell would.  Op ``i`` of a workload depends only on
(workload, seed, i), so a run can be repeated exactly.  Config files an op
needs are written by `prepare`, before the op is timed.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random
import shutil

from qbackbone import scenario

import checker

SHIPPED_CONFIGS = (
    "all_sources",
    "best_source",
    "dark_fiber",
    "default",
    "iridium",
    "micius",
    "starlink",
)
SWEEP_MEMORY = ["1", "5", "20", "100", "unlimited"]
SWEEP_HORIZON_S = 120.0
FINE_HORIZON_S = 2400.0
FINE_STEP_S = 0.25
FINE_MEAN_GAP_S = 1.0
# Every satellite pass peaks inside this interval, so each visibility
# window lies inside the horizon and |t - peak| stays below half of every
# orbital period (checked in setup): the pass model's documented domain.
FINE_PEAK_RANGE_S = (400.0, 2000.0)
SATELLITES = ("Micius", "Starlink-2007", "Iridium-126")


@dataclasses.dataclass(frozen=True)
class Op:
    index: int
    argvs: tuple[tuple[str, ...], ...]
    sim_seconds: float
    config_doc: dict | None = None


class Workload:
    """Base: `op` draws inputs, `prepare` writes them, `check` judges outputs."""

    name = ""
    # Ops per round-robin cycle; statistics are taken over whole cycles.
    cycle = 4

    def __init__(self, root: str, work_dir: str) -> None:
        self.out_dir = os.path.join(work_dir, "out")
        self.input_path = os.path.join(work_dir, "input.json")

    def rng(self, seed: int, index: int) -> random.Random:
        return random.Random(f"{self.name}/{seed}/{index}")

    def op(self, seed: int, index: int) -> Op:
        raise NotImplementedError

    def prepare(self, op: Op) -> None:
        """Clear the previous op's outputs and write this op's config, if any."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        os.makedirs(self.out_dir)
        if op.config_doc is not None:
            with open(self.input_path, "w", encoding="utf-8") as fh:
                json.dump(op.config_doc, fh)

    def outputs(self, stdouts: list[str]) -> dict[str, bytes]:
        """Every byte the op wrote: its files, then each command's stdout."""
        found = {}
        for name in sorted(os.listdir(self.out_dir)):
            with open(os.path.join(self.out_dir, name), "rb") as fh:
                found[name] = fh.read()
        for k, text in enumerate(stdouts):
            if text:
                found[f"stdout.{k}"] = text.encode("utf-8")
        return found

    def check(self, op: Op, outputs: dict[str, bytes]) -> list[str]:
        raise NotImplementedError

    def _check_simulate(self, outputs: dict[str, bytes], unlimited: bool) -> list[str]:
        names = ("timeseries.csv", "frames.csv", "summary.csv")
        missing = [n for n in names if n not in outputs]
        if missing:
            return [f"missing outputs {missing}"]
        return checker.check_simulate(*(outputs[n] for n in names), unlimited=unlimited)


class SimulateShipped(Workload):
    """`simulate` on each shipped config in turn, fresh seed per op."""

    name = "simulate-shipped"
    cycle = len(SHIPPED_CONFIGS)

    def __init__(self, root: str, work_dir: str) -> None:
        super().__init__(root, work_dir)
        self.paths = {
            n: os.path.join(root, "configs", f"{n}.json") for n in SHIPPED_CONFIGS
        }
        self.configs = {n: scenario.load_config_file(p) for n, p in self.paths.items()}

    def op(self, seed: int, index: int) -> Op:
        name = SHIPPED_CONFIGS[index % len(SHIPPED_CONFIGS)]
        op_seed = self.rng(seed, index).randrange(2**31)
        argv = ("simulate", "--config", self.paths[name], "--out", self.out_dir,
                "--seed", str(op_seed))
        return Op(index, (argv,), self.configs[name].duration_s)

    def check(self, op: Op, outputs: dict[str, bytes]) -> list[str]:
        name = SHIPPED_CONFIGS[op.index % len(SHIPPED_CONFIGS)]
        return self._check_simulate(outputs, self.configs[name].memory_capacity is None)


class SweepMemory(Workload):
    """`sweep` of dark fiber over five memory sizes on a 120 s horizon."""

    name = "sweep-memory"

    def __init__(self, root: str, work_dir: str) -> None:
        super().__init__(root, work_dir)
        base = scenario.load_config_file(os.path.join(root, "configs", "dark_fiber.json"))
        self.doc = scenario.config_to_dict(
            dataclasses.replace(base, duration_s=SWEEP_HORIZON_S)
        )
        scenario.load_config(self.doc)

    def op(self, seed: int, index: int) -> Op:
        op_seed = self.rng(seed, index).randrange(2**31)
        argv = ("sweep", "--config", self.input_path,
                "--out", os.path.join(self.out_dir, "sweep.csv"),
                "--memory", ",".join(SWEEP_MEMORY), "--seed", str(op_seed))
        return Op(index, (argv,), SWEEP_HORIZON_S * len(SWEEP_MEMORY), self.doc)

    def check(self, op: Op, outputs: dict[str, bytes]) -> list[str]:
        if "sweep.csv" not in outputs:
            return ["missing output sweep.csv"]
        seed = int(op.argvs[0][-1])
        return checker.check_sweep(outputs["sweep.csv"], SWEEP_MEMORY, seed)


class LinkbudgetFine(Workload):
    """best-source over all built-in sources on a fine channel grid, then
    `linkbudget` for each satellite; fresh pass peak times per op."""

    name = "linkbudget-fine"

    def __init__(self, root: str, work_dir: str) -> None:
        super().__init__(root, work_dir)
        self.base = scenario.ScenarioConfig(
            sources=scenario.builtin_sources(),
            policy=scenario.Policy("best-source"),
            traffic=scenario.TrafficConfig(mean_interarrival_s=FINE_MEAN_GAP_S),
            duration_s=FINE_HORIZON_S,
            channel_step_s=FINE_STEP_S,
        )
        lo, hi = FINE_PEAK_RANGE_S
        for source in self.base.sources:
            if source.kind == "satellite-pass":
                half_period = math.pi / source.pass_model.angular_rate_rad_s
                if max(hi, FINE_HORIZON_S - lo) >= half_period:
                    raise ValueError(f"{source.source_id}: horizon repeats the pass")

    def op(self, seed: int, index: int) -> Op:
        rng = self.rng(seed, index)
        op_seed = rng.randrange(2**31)
        peaks = {name: rng.uniform(*FINE_PEAK_RANGE_S) for name in SATELLITES}
        sources = tuple(
            scenario.satellite_source(s.source_id, peak_time_s=peaks[s.source_id])
            if s.kind == "satellite-pass" else s
            for s in self.base.sources
        )
        doc = scenario.config_to_dict(dataclasses.replace(self.base, sources=sources))
        argvs = (("simulate", "--config", self.input_path, "--out", self.out_dir,
                  "--seed", str(op_seed)),)
        argvs += tuple(
            ("linkbudget", "--config", self.input_path, "--source", name)
            for name in SATELLITES
        )
        return Op(index, argvs, FINE_HORIZON_S, doc)

    def check(self, op: Op, outputs: dict[str, bytes]) -> list[str]:
        errors = self._check_simulate(outputs, unlimited=True)
        for k in range(1, len(op.argvs)):
            stdout = outputs.get(f"stdout.{k}", b"")
            errors += [f"{op.argvs[k][-1]}: {e}" for e in checker.check_linkbudget(stdout)]
        return errors


WORKLOADS = {w.name: w for w in (SimulateShipped, SweepMemory, LinkbudgetFine)}
