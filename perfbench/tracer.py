"""Outside-in tracer for the `qbackbone` layers.

`Tracer.installed()` wraps each target function in every `qbackbone`
namespace that bound it (and methods on their class), and restores the
original objects on exit.  A target the code no longer has is recorded
as absent and reports 0 calls.

Coarse targets (an op, `cli.main`, `engine.run`, config loading) keep a
span each: name, start, end, parent span and op id.  Every call is also
aggregated per (op, enclosing coarse span, layer) into a count, total and
self time; self time is the call's duration minus that of the wrapped
calls inside it.  Count-only targets are too frequent and too cheap to
time: timing them would mostly add wrapper cost to their caller.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    layer: str
    module: str
    attr: str  # "function" or "Class.method"
    coarse: bool = False
    timed: bool = True


def _ledger_record(counters, args, result) -> None:
    # PairLedger.record(self, bin_index, arrived, stored, dropped)
    counters["ledger.empty"] += args[2] == 0


def _engine_run(counters, args, result) -> None:
    counters["pairs.arrived"] += result.totals.pairs_arrived
    counters["pairs.stored"] += result.totals.pairs_stored


TARGETS = (
    Target("cli.main", "qbackbone.cli", "main", coarse=True),
    Target("engine.run", "qbackbone.engine", "run", coarse=True),
    Target("engine.events", "qbackbone.engine", "EventQueue.pop", timed=False),
    Target("scenario.load_config_file", "qbackbone.scenario", "load_config_file", coarse=True),
    Target("scenario.load_config", "qbackbone.scenario", "load_config", coarse=True),
    Target("scenario.select_sources", "qbackbone.scenario", "select_sources"),
    Target("entanglement.memory.store", "qbackbone.entanglement", "MemoryPair.store_pairs"),
    Target("entanglement.memory.consume", "qbackbone.entanglement", "MemoryPair.consume_pairs"),
    Target("entanglement.ledger.record", "qbackbone.entanglement", "PairLedger.record", timed=False),
    Target("entanglement.source.fiber", "qbackbone.entanglement", "FiberSource.transmittances"),
    Target("entanglement.source.satellite", "qbackbone.entanglement", "SatelliteSource.transmittances"),
    Target("geometry.elevation_at", "qbackbone.geometry", "elevation_at"),
    Target("geometry.visibility_window", "qbackbone.geometry", "visibility_window"),
    Target("linkbudget.freespace_transmittance", "qbackbone.linkbudget", "freespace_transmittance"),
    Target("linkbudget.fiber_transmittance", "qbackbone.linkbudget", "fiber_transmittance"),
    Target("linkbudget.attenuation_profile", "qbackbone.linkbudget", "attenuation_profile"),
    Target("interface.verify_index_sync", "qbackbone.interface", "verify_index_sync"),
)
HOOKS: dict[str, Callable] = {
    "entanglement.ledger.record": _ledger_record,
    "engine.run": _engine_run,
}


class Tracer:
    def __init__(self, targets=TARGETS) -> None:
        self.targets = targets
        self.op_id = None
        self.absent: list[str] = []
        # (op, enclosing coarse layer, layer) -> [count, total_s, self_s]
        self.calls: dict[tuple, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, int] = defaultdict(int)
        self.spans: list = []  # (name, start, end, parent span index, op)
        self._frames: list = []  # [layer, start, child_s] of open timed calls
        self._coarse: list = [("", None)]  # (layer, span index) of open coarse spans
        self._patches: list = []

    # --- patching ------------------------------------------------------

    def _resolve(self, target: Target):
        module = sys.modules.get(target.module)
        owner = module
        *path, name = target.attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        fn = getattr(owner, name, None) if owner is not None else None
        return owner, name, fn

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.absent = []
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == "qbackbone" or n.startswith("qbackbone."))]
        try:
            for target in self.targets:
                owner, name, fn = self._resolve(target)
                if fn is None:
                    self.absent.append(target.layer)
                    continue
                wrapper = self._wrap(target, fn)
                if isinstance(owner, type):
                    self._patch(owner, name, fn, wrapper)
                    continue
                for module in namespaces:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            self._patch(module, attr, fn, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # --- recording -----------------------------------------------------

    def _open(self, layer: str, coarse: bool) -> list:
        if coarse:
            self.spans.append(None)
            self._coarse.append((layer, len(self.spans) - 1))
        frame = [layer, 0.0, 0.0]
        self._frames.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _close(self, frame: list, coarse: bool) -> None:
        end = time.perf_counter()
        layer, start, child = frame
        self._frames.pop()
        duration = end - start
        if self._frames:
            self._frames[-1][2] += duration
        if coarse:
            _, index = self._coarse.pop()
            self.spans[index] = (layer, start, end, self._coarse[-1][1], self.op_id)
        entry = self.calls[(self.op_id, self._coarse[-1][0], layer)]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child

    def _wrap(self, target: Target, fn):
        layer, coarse = target.layer, target.coarse
        hook = HOOKS.get(layer)
        counters, calls, enclosing = self.counters, self.calls, self._coarse

        if not target.timed:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[(self.op_id, enclosing[-1][0], layer)][0] += 1
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(counters, args, result)
                return result
            return counted

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = self._open(layer, coarse)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, coarse)
            if hook is not None:
                hook(counters, args, result)
            return result
        return timed

    @contextlib.contextmanager
    def span(self, layer: str, op_id):
        """A coarse span opened by the benchmark itself, such as one op."""
        self.op_id = op_id
        frame = self._open(layer, coarse=True)
        try:
            yield
        finally:
            self._close(frame, coarse=True)
            self.op_id = None

    # --- results -------------------------------------------------------

    def totals(self, parent: str | None = None) -> dict[str, list]:
        """Per layer [count, total_s, self_s], optionally only under one coarse parent."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for (_, enclosing, layer), (count, total, own) in self.calls.items():
            if parent is None or enclosing == parent:
                entry = out[layer]
                entry[0] += count
                entry[1] += total
                entry[2] += own
        return out

    def dump(self) -> dict:
        return {
            "absent": self.absent,
            "spans": [dict(zip(("name", "start", "end", "parent", "op"), s)) for s in self.spans],
            "calls": [
                {"op": op, "parent": parent, "name": layer,
                 "count": count, "total_s": total, "self_s": own}
                for (op, parent, layer), (count, total, own) in sorted(
                    self.calls.items(), key=lambda item: tuple(map(str, item[0])))
            ],
            "counters": dict(self.counters),
        }


# Per-layer metrics summed over layers, per traced op:
# name -> (unit, layers, field index into [count, total_s, self_s]).
_SUMS = {
    "engine.run.calls": ("count", ("engine.run",), 0),
    "engine.run.self_s": ("s", ("engine.run",), 2),
    "engine.events": ("count", ("engine.events",), 0),
    "entanglement.memory.calls": (
        "count", ("entanglement.memory.store", "entanglement.memory.consume"), 0),
    "entanglement.memory.self_s": (
        "s", ("entanglement.memory.store", "entanglement.memory.consume"), 2),
    "entanglement.ledger.records": ("count", ("entanglement.ledger.record",), 0),
    "entanglement.source.self_s": (
        "s", ("entanglement.source.fiber", "entanglement.source.satellite"), 2),
    "scenario.load_config.s": (
        "s", ("scenario.load_config_file", "scenario.load_config"), 2),
    "scenario.select_sources.calls": ("count", ("scenario.select_sources",), 0),
    "scenario.select_sources.self_s": ("s", ("scenario.select_sources",), 2),
    "geometry.elevation_at.calls": ("count", ("geometry.elevation_at",), 0),
    "geometry.elevation_at.self_s": ("s", ("geometry.elevation_at",), 2),
    "geometry.visibility_window.calls": ("count", ("geometry.visibility_window",), 0),
    "linkbudget.freespace_transmittance.calls": (
        "count", ("linkbudget.freespace_transmittance",), 0),
    "linkbudget.freespace_transmittance.self_s": (
        "s", ("linkbudget.freespace_transmittance",), 2),
    "linkbudget.fiber_transmittance.calls": ("count", ("linkbudget.fiber_transmittance",), 0),
    "linkbudget.attenuation_profile.self_s": ("s", ("linkbudget.attenuation_profile",), 2),
    "interface.verify_index_sync.calls": ("count", ("interface.verify_index_sync",), 0),
    "interface.verify_index_sync.self_s": ("s", ("interface.verify_index_sync",), 2),
    "cli.self_s": ("s", ("cli.main",), 2),
}
# Layers whose self time inside engine.run is the link-budget path.
LINK_PATH = (
    "scenario.select_sources",
    "entanglement.source.fiber",
    "entanglement.source.satellite",
    "geometry.elevation_at",
    "geometry.visibility_window",
    "linkbudget.freespace_transmittance",
    "linkbudget.fiber_transmittance",
)
PER_LAYER_UNITS = {
    **{name: unit for name, (unit, _, _) in _SUMS.items()},
    "entanglement.ledger.empty_ratio": "ratio",
    "entanglement.store_ratio": "ratio",
    "cli.bytes_written": "B",
    "engine.linkpath_share": "ratio",
    "op.engine_cli_share": "ratio",
    "trace.overhead_ratio": "ratio",
}


def layer_metrics(
    tracer: Tracer,
    n_ops: int,
    bytes_written: int,
    traced_s: list[float],
    plain_s: list[float],
) -> dict[str, float]:
    """Per-layer metrics of `n_ops` traced ops (`traced_s`) and their untraced twins."""
    totals = tracer.totals()
    values = {
        name: sum(totals[layer][field] for layer in layers) / n_ops
        for name, (_, layers, field) in _SUMS.items()
    }
    c = tracer.counters
    records = totals["entanglement.ledger.record"][0]
    values["entanglement.ledger.empty_ratio"] = c["ledger.empty"] / records if records else 0.0
    values["entanglement.store_ratio"] = (
        c["pairs.stored"] / c["pairs.arrived"] if c["pairs.arrived"] else 0.0
    )
    values["cli.bytes_written"] = bytes_written / n_ops
    in_engine = tracer.totals(parent="engine.run")
    engine_total = totals["engine.run"][1]
    link_self = sum(in_engine[layer][2] for layer in LINK_PATH)
    values["engine.linkpath_share"] = link_self / engine_total if engine_total else 0.0
    values["op.engine_cli_share"] = (
        (values["engine.run.self_s"] + values["cli.self_s"]) * n_ops / sum(traced_s)
    )
    values["trace.overhead_ratio"] = statistics.median(traced_s) / statistics.median(plain_s) - 1.0
    return values
