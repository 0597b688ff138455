"""Scenario configuration, defaults, and source-selection policies.

Configurations are plain JSON documents validated strictly: unknown keys
are rejected and every diagnostic names the offending field.  The
dataclasses are the schema: a document object holds one dataclass's
fields under their own names, a source object also its ``kind``, and an
absent key keeps its default.  An empty document loads
``ScenarioConfig()``, the default scenario (standard ground fiber
backbone, unlimited memory, 10 minute horizon).
"""

from __future__ import annotations

import functools
import json
import math
import os
import typing
from collections.abc import Mapping
from dataclasses import MISSING, Field, asdict, dataclass, fields, is_dataclass
from typing import Any

import numpy as np

from .entanglement import (
    DEFAULT_EMISSION_RATE_HZ,
    EntanglementSource,
    FiberSource,
    SatelliteSource,
)
from .geometry import SatellitePassModel, StationPass
from .linkbudget import DARK_FIBER_DB_PER_KM, STANDARD_FIBER_DB_PER_KM, FiberLink

SCHEMA_VERSION = 4
SEED_ENV_VAR = "QBACKBONE_SEED"

# name -> (altitude_km, peak elevation egress/ingress, default peak time)
_SATELLITES = {
    "Micius": (474.0, 83.0, 75.0, 128.0),
    "Starlink-2007": (551.0, 88.0, 75.0, 199.0),
    "Iridium-126": (804.0, 76.0, 74.0, 328.0),
}

POLICY_KINDS = ("fiber-only", "satellite-only", "best-source", "all-sources")

# Ceiling on the expected frame count and on the channel steps of one run
# (a bin spans whole steps, so bins are never more than steps).  The
# tracemalloc peak of ``simulate`` grows by about 145 bytes per frame
# (dark_fiber, 30k to 240k frames), so the ceiling keeps a run under
# 1 GB; at the default traffic it allows a 27 h horizon.
MAX_RUN_CELLS = 5_000_000

# Ceiling on the expected pair count and the expected qubit count of one
# run.  Counts are drawn and summed in int64, and numpy's Poisson sampler
# takes means up to about 9.2e18; 2**56 (7.2e16) leaves a factor of 128
# above the mean for fluctuations and sums.
MAX_RUN_COUNT = 2**56


class ConfigError(ValueError):
    """A scenario document failed to parse or validate."""


@dataclass(frozen=True)
class Policy:
    """Rule choosing which sources feed the memories at each channel step."""

    kind: str
    source_id: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in POLICY_KINDS:
            raise ConfigError(
                f"policy.kind must be one of {POLICY_KINDS}: {self.kind!r}"
            )
        if self.kind == "satellite-only" and not self.source_id:
            raise ConfigError("policy satellite-only requires a source_id")
        if self.kind != "satellite-only" and self.source_id is not None:
            raise ConfigError(f"policy {self.kind!r} takes no source_id")


@dataclass(frozen=True)
class TrafficConfig:
    """Frame generation model of the sending subnetwork node."""

    qubit_rate_hz: float = 1.0e9
    frame_duration_s: float = 1.0e-4
    mean_interarrival_s: float = 0.020

    def __post_init__(self) -> None:
        for name in ("qubit_rate_hz", "frame_duration_s", "mean_interarrival_s"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ConfigError(f"traffic.{name} must be > 0: {value}")
        payload = self.qubit_rate_hz * self.frame_duration_s
        if not math.isfinite(payload) or abs(payload - round(payload)) > 1e-6 or round(payload) < 1:
            raise ConfigError(
                "traffic.qubit_rate_hz * traffic.frame_duration_s must be a "
                f"positive integer payload: {payload}"
            )

    @property
    def payload_qubits(self) -> int:
        return int(round(self.qubit_rate_hz * self.frame_duration_s))


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete, validated description of one simulation run."""

    seed: int = 0
    duration_s: float = 600.0
    bin_width_s: float = 8.0
    channel_step_s: float = 2.0
    memory_capacity: int | None = None
    p_teleport_success: float = 0.5
    classical_distance_km: float = 150.0
    traffic: TrafficConfig = TrafficConfig()
    ingress_access: FiberLink = FiberLink(5.0, STANDARD_FIBER_DB_PER_KM)
    egress_access: FiberLink = FiberLink(5.0, STANDARD_FIBER_DB_PER_KM)
    policy: Policy = Policy("fiber-only")
    sources: tuple[EntanglementSource, ...] = (FiberSource("fiber-standard"),)

    def __post_init__(self) -> None:
        if self.memory_capacity is not None and self.memory_capacity < 1:
            raise ConfigError("memory_capacity must be >= 1 or unlimited (null)")
        if not 0.0 <= self.p_teleport_success <= 1.0:
            raise ConfigError(
                f"p_teleport_success must be in [0, 1]: {self.p_teleport_success}"
            )
        if not (math.isfinite(self.duration_s) and self.duration_s >= 0.0):
            raise ConfigError(f"duration_s must be >= 0: {self.duration_s}")
        for name in ("bin_width_s", "channel_step_s", "classical_distance_km"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ConfigError(f"{name} must be > 0: {value}")
        ratio = self.bin_width_s / self.channel_step_s
        if not math.isfinite(ratio) or abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise ConfigError(
                f"bin_width_s ({self.bin_width_s}) must be a multiple of "
                f"channel_step_s ({self.channel_step_s})"
            )
        frames = self.duration_s / self.traffic.mean_interarrival_s
        cells_hint = "shorten duration_s or lengthen channel_step_s or the frame gap"
        for name, count, ceiling, hint in (
            ("expected frame count", frames, MAX_RUN_CELLS, cells_hint),
            ("channel step count", self.duration_s / self.channel_step_s, MAX_RUN_CELLS, cells_hint),
            (
                "expected pair count",
                sum(s.emission_rate_hz for s in self.sources) * self.duration_s,
                MAX_RUN_COUNT,
                "lower the sources' emission_rate_hz or shorten duration_s",
            ),
            (
                "expected qubit count",
                self.traffic.payload_qubits * max(1.0, frames),
                MAX_RUN_COUNT,
                "lower traffic.qubit_rate_hz x traffic.frame_duration_s or shorten duration_s",
            ),
        ):
            if count > ceiling:
                raise ConfigError(f"{name} {count:.6g} exceeds the ceiling of {ceiling}; {hint}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer: {self.seed}")
        seen: set[str] = set()
        for source in self.sources:
            if source.source_id in seen:
                raise ConfigError(f"duplicate source id {source.source_id!r}")
            seen.add(source.source_id)
        if self.policy.kind == "satellite-only":
            match = [s for s in self.sources if s.source_id == self.policy.source_id]
            if not match:
                raise ConfigError(
                    f"policy references unknown source {self.policy.source_id!r}"
                )
            if match[0].kind != "satellite-pass":
                raise ConfigError(
                    f"policy satellite-only requires a satellite source, "
                    f"got {match[0].kind!r} for {self.policy.source_id!r}"
                )

    @property
    def n_steps(self) -> int:
        """Channel steps covering [0, duration_s).

        A remainder below 1e-9 steps is float noise and gets no step of
        its own, but a positive horizon always has at least one step.
        """
        if self.duration_s <= 0.0:
            return 0
        return max(1, int(math.ceil(self.duration_s / self.channel_step_s - 1e-9)))

    @property
    def step_grid(self) -> np.ndarray:
        """Step edges ``k * channel_step_s``, ``k <= n_steps``: each step's start, then the end."""
        return np.arange(self.n_steps + 1) * self.channel_step_s

    @property
    def steps_per_bin(self) -> int:
        return round(self.bin_width_s / self.channel_step_s)


def active_sources(
    policy: Policy, sources: tuple[EntanglementSource, ...], p: np.ndarray
) -> np.ndarray:
    """Which sources feed the memories at each step, as a mask shaped like ``p``.

    ``p`` holds the coincidence probabilities, one row per step and one
    column per source.  A source with zero probability is never active.
    best-source keeps the single source with the highest probability;
    ties go to the lexicographically first source id.
    """
    available = p > 0.0
    if policy.kind == "fiber-only":
        return available & np.array([s.kind == "ground-fiber" for s in sources], dtype=bool)
    if policy.kind == "satellite-only":
        return available & np.array([s.source_id == policy.source_id for s in sources], dtype=bool)
    if policy.kind == "all-sources" or not sources:
        return available
    by_id = np.array(sorted(range(len(sources)), key=lambda j: sources[j].source_id))
    best = np.zeros_like(available)
    best[np.arange(len(p)), by_id[np.argmax(p[:, by_id], axis=1)]] = True
    return available & best


def satellite_source(name: str, peak_time_s: float | None = None) -> SatelliteSource:
    """Backbone source backed by a built-in satellite's pass over the two stations."""
    altitude_km, peak_egress, peak_ingress, default_peak_time = _SATELLITES[name]
    t_peak = default_peak_time if peak_time_s is None else peak_time_s
    return SatelliteSource(
        source_id=name,
        pass_model=SatellitePassModel(
            altitude_km, StationPass(peak_egress, t_peak), StationPass(peak_ingress, t_peak)
        ),
    )


def fiber_source(
    source_id: str = "fiber-standard",
    attenuation_db_per_km: float = STANDARD_FIBER_DB_PER_KM,
    arm_length_km: float = 75.0,
    emission_rate_hz: float = DEFAULT_EMISSION_RATE_HZ,
) -> FiberSource:
    """Ground source placed equidistantly between egress and ingress."""
    return FiberSource(source_id, FiberLink(arm_length_km, attenuation_db_per_km), emission_rate_hz)


def dark_fiber_source(source_id: str = "fiber-dark") -> FiberSource:
    return fiber_source(source_id, DARK_FIBER_DB_PER_KM)


def builtin_sources() -> tuple[EntanglementSource, ...]:
    """Both fiber backbones plus the three built-in satellites."""
    return (
        fiber_source(),
        dark_fiber_source(),
        satellite_source("Micius"),
        satellite_source("Starlink-2007"),
        satellite_source("Iridium-126"),
    )


def seed_from_env() -> int | None:
    """Seed override from the environment, or None when unset."""
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return None
    try:
        seed = int(raw)
    except ValueError as exc:
        raise ConfigError(f"{SEED_ENV_VAR} must be an integer: {raw!r}") from exc
    if seed < 0:
        raise ConfigError(f"{SEED_ENV_VAR} must be >= 0: {seed}")
    return seed


# --- documents --------------------------------------------------------------


def _require_mapping(value: Any, path: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise ConfigError(f"{path} must be an object, got {type(value).__name__}")
    return value


def _check_keys(doc: Mapping[str, Any], allowed: set[str], path: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {path}: {sorted(unknown)}")


@functools.cache
def _typed_fields(cls: type) -> tuple[tuple[Field, Any], ...]:
    """Each field of a dataclass with its resolved type annotation."""
    types = typing.get_type_hints(cls)
    return tuple((f, types[f.name]) for f in fields(cls))


def _load_fields(cls: type, doc: Any, default: Any, path: str) -> Any:
    """A dataclass from a document object that holds its fields under their names.

    An absent key keeps the field of ``default`` when one is given, else
    the dataclass default; a field with neither is required.
    """
    doc = _require_mapping(doc, path)
    typed_fields = _typed_fields(cls)
    _check_keys(doc, {f.name for f, _ in typed_fields}, path)
    values = {}
    for f, tp in typed_fields:
        value = f.default if default is None else getattr(default, f.name)
        if f.name in doc:
            value = _load(tp, doc[f.name], value, f"{path}.{f.name}")
        elif value is MISSING:
            raise ConfigError(f"{path}.{f.name} is required")
        values[f.name] = value
    try:
        return cls(**values)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _load(tp: Any, value: Any, default: Any, path: str) -> Any:
    """One document value read as the field type ``tp``.

    ``default`` is the value the key replaces: a nested dataclass keeps
    its fields for the keys the object leaves out.
    """
    if is_dataclass(tp):
        return _load_fields(tp, value, None if default is MISSING else default, path)
    args = typing.get_args(tp)
    if typing.get_origin(tp) is tuple:  # tuple[X, ...]
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path} must be a list, got {type(value).__name__}")
        return tuple(_load(args[0], item, None, f"{path}[{i}]") for i, item in enumerate(value))
    if type(None) in args:  # X | None
        if value is None:
            return None
        (tp,) = set(args) - {type(None)}
        return _load(tp, value, default, path)
    if args:  # a union of dataclasses, each object tagged by its class's ``kind``
        kinds = {cls.kind: cls for cls in args}
        doc = dict(_require_mapping(value, path))
        kind = doc.pop("kind", None)
        if not isinstance(kind, str) or kind not in kinds:
            raise ConfigError(f"{path}.kind must be one of {sorted(kinds)}, got {kind!r}")
        return _load_fields(kinds[kind], doc, None, path)
    if tp is str:
        if isinstance(value, str) and value:
            return value
        raise ConfigError(f"{path} must be a non-empty string, got {value!r}")
    if isinstance(value, bool) or not isinstance(value, (int, float) if tp is float else int):
        what = "a number" if tp is float else "an integer"
        raise ConfigError(f"{path} must be {what}, got {value!r}")
    if tp is int:
        return value
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{path} is too large for a float") from None


def load_config(doc: Mapping[str, Any]) -> ScenarioConfig:
    """Build a validated ScenarioConfig from a configuration document."""
    doc = dict(_require_mapping(doc, "config"))
    version = doc.pop("schema_version", SCHEMA_VERSION)
    if isinstance(version, bool) or not isinstance(version, int) or version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})")
    return _load_fields(ScenarioConfig, doc, None, "config")


def load_config_file(path: str) -> ScenarioConfig:
    """Load a JSON scenario document; parse errors report their position."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"invalid JSON in {path!r} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise ConfigError(f"invalid JSON in {path!r}: {exc}") from exc
    return load_config(doc)


def config_to_dict(config: ScenarioConfig) -> dict[str, Any]:
    """Canonical JSON-compatible form; round-trips through load_config."""
    doc = asdict(config)
    doc["sources"] = [{"kind": s.kind, **d} for s, d in zip(config.sources, doc["sources"])]
    return {"schema_version": SCHEMA_VERSION, **doc}
