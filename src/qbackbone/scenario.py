"""Scenario configuration, defaults, and source-selection policies.

Configurations are plain JSON documents validated strictly: unknown keys
are rejected and every diagnostic names the offending field.  An empty
document loads the default scenario (standard ground fiber backbone,
unlimited memory, 10 minute horizon).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, fields
from typing import Any, Mapping

import numpy as np

from .entanglement import (
    DEFAULT_EMISSION_RATE_HZ,
    EntanglementSource,
    FiberSource,
    SatelliteSource,
)
from .geometry import SatellitePassModel, StationPass
from .linkbudget import FiberLink, FreeSpaceLinkParams

SCHEMA_VERSION = 3
SEED_ENV_VAR = "QBACKBONE_SEED"

STANDARD_FIBER_DB_PER_KM = 0.2
DARK_FIBER_DB_PER_KM = 0.16

# name -> (altitude_km, peak elevation egress/ingress, default peak time)
_SATELLITES = {
    "Micius": (474.0, 83.0, 75.0, 128.0),
    "Starlink-2007": (551.0, 88.0, 75.0, 199.0),
    "Iridium-126": (804.0, 76.0, 74.0, 328.0),
}

POLICY_KINDS = ("fiber-only", "satellite-only", "best-source", "all-sources")

# Ceiling on the expected frame count and on the channel steps of one run
# (a bin spans whole steps, so bins are never more than steps).  A run
# holds about 220 bytes per frame, so the ceiling keeps a run near 1 GB;
# at the default traffic it allows a 27 h horizon.
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
        if abs(payload - round(payload)) > 1e-6 or round(payload) < 1:
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

    sources: tuple[EntanglementSource, ...] = ()
    policy: Policy = Policy("fiber-only")
    traffic: TrafficConfig = TrafficConfig()
    ingress_access: FiberLink = FiberLink(5.0, STANDARD_FIBER_DB_PER_KM)
    egress_access: FiberLink = FiberLink(5.0, STANDARD_FIBER_DB_PER_KM)
    memory_capacity: int | None = None
    p_teleport_success: float = 0.5
    duration_s: float = 600.0
    bin_width_s: float = 8.0
    channel_step_s: float = 2.0
    classical_distance_km: float = 150.0
    seed: int = 0

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
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise ConfigError(
                f"bin_width_s ({self.bin_width_s}) must be a multiple of "
                f"channel_step_s ({self.channel_step_s})"
            )
        frames = self.duration_s / self.traffic.mean_interarrival_s
        cells_hint = "shorten duration_s or lengthen channel_step_s or the frame gap"
        for name, count, ceiling, hint in (
            ("expected frame count", frames, MAX_RUN_CELLS, cells_hint),
            ("channel step count", self.n_steps, MAX_RUN_CELLS, cells_hint),
            (
                "expected pair count",
                sum(s.emission_rate_hz for s in self.sources) * self.duration_s,
                MAX_RUN_COUNT,
                "lower the sources' emission_rate_hz or shorten duration_s",
            ),
            (
                "expected qubit count",
                self.payload_qubits * max(1.0, frames),
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
    def payload_qubits(self) -> int:
        return self.traffic.payload_qubits

    @property
    def n_bins(self) -> int:
        return _cell_count(self.duration_s, self.bin_width_s)

    @property
    def n_steps(self) -> int:
        return _cell_count(self.duration_s, self.channel_step_s)


def _cell_count(duration_s: float, width_s: float) -> int:
    """Cells of ``width_s`` covering [0, duration_s).

    A remainder below 1e-9 cells is float noise and gets no cell of its
    own, but a positive horizon always has at least one cell.
    """
    if duration_s <= 0.0:
        return 0
    return max(1, int(math.ceil(duration_s / width_s - 1e-9)))


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


def satellite_pass(name: str, peak_time_s: float | None = None) -> SatellitePassModel:
    """Pass model of one of the built-in satellites over the two stations."""
    altitude_km, peak_egress, peak_ingress, default_peak_time = _SATELLITES[name]
    t_peak = default_peak_time if peak_time_s is None else peak_time_s
    return SatellitePassModel(
        altitude_km, StationPass(peak_egress, t_peak), StationPass(peak_ingress, t_peak)
    )


def satellite_source(
    name: str,
    link_params: FreeSpaceLinkParams = FreeSpaceLinkParams(),
    emission_rate_hz: float = DEFAULT_EMISSION_RATE_HZ,
    peak_time_s: float | None = None,
) -> SatelliteSource:
    """Backbone source backed by a built-in satellite pass."""
    return SatelliteSource(
        source_id=name,
        pass_model=satellite_pass(name, peak_time_s),
        link_params=link_params,
        emission_rate_hz=emission_rate_hz,
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


def default_config() -> ScenarioConfig:
    """The default scenario: standard fiber backbone, unlimited memory."""
    return ScenarioConfig(sources=(fiber_source(),))


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


# --- document loading -------------------------------------------------------


def _require_mapping(value: Any, path: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise ConfigError(f"{path} must be an object, got {type(value).__name__}")
    return value


def _check_keys(doc: Mapping[str, Any], allowed: set[str], path: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {path}: {sorted(unknown)}")


def _get_number(doc: Mapping[str, Any], key: str, default: float, path: str) -> float:
    value = doc.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}.{key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{path}.{key} is too large for a float") from None


def _get_str(doc: Mapping[str, Any], key: str, path: str, default: str | None = None) -> str:
    value = doc.get(key, default)
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{path}.{key} must be a non-empty string, got {value!r}")
    return value


def _load_fields(cls: type, doc: Any, default: Any, path: str) -> Any:
    """A dataclass leaf read field by field; absent keys keep ``default``'s values."""
    if doc is None:
        return default
    doc = _require_mapping(doc, path)
    names = [f.name for f in fields(cls)]
    _check_keys(doc, set(names), path)
    values = {}
    for name in names:
        value = getattr(default, name)
        if isinstance(value, str):
            values[name] = _get_str(doc, name, path, value)
        else:
            values[name] = _get_number(doc, name, value, path)
    try:
        return cls(**values)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _per_role(doc: Mapping[str, Any], key: str, path: str, required: bool) -> dict[str, float] | None:
    """A scalar or an {egress, ingress} object, normalised to a role map."""
    if key not in doc:
        if required:
            raise ConfigError(f"{path}.{key} is required for satellite sources")
        return None
    value = doc[key]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        number = _get_number(doc, key, math.nan, path)
        return {"egress": number, "ingress": number}
    value = _require_mapping(value, f"{path}.{key}")
    _check_keys(value, {"egress", "ingress"}, f"{path}.{key}")
    return {
        "egress": _get_number(value, "egress", math.nan, f"{path}.{key}"),
        "ingress": _get_number(value, "ingress", math.nan, f"{path}.{key}"),
    }


def _load_source(doc: Any, path: str) -> EntanglementSource:
    doc = _require_mapping(doc, path)
    kind = _get_str(doc, "kind", path)
    source_id = _get_str(doc, "id", path)
    try:
        if kind == "ground-fiber":
            _check_keys(
                doc,
                {"id", "kind", "emission_rate_hz", "arm_length_km", "attenuation_db_per_km"},
                path,
            )
            default = fiber_source()
            arm = FiberLink(
                length_km=_get_number(doc, "arm_length_km", default.arm.length_km, path),
                attenuation_db_per_km=_get_number(
                    doc, "attenuation_db_per_km", default.arm.attenuation_db_per_km, path
                ),
            )
            return FiberSource(
                source_id=source_id,
                arm=arm,
                emission_rate_hz=_get_number(
                    doc, "emission_rate_hz", default.emission_rate_hz, path
                ),
            )
        if kind == "satellite-pass":
            _check_keys(
                doc,
                {
                    "id",
                    "kind",
                    "emission_rate_hz",
                    "altitude_km",
                    "peak_elevation_deg",
                    "peak_time_s",
                    "link",
                },
                path,
            )
            peaks = _per_role(doc, "peak_elevation_deg", path, required=True)
            times = _per_role(doc, "peak_time_s", path, required=False) or {
                "egress": 0.0,
                "ingress": 0.0,
            }
            pass_model = SatellitePassModel(
                altitude_km=_get_number(doc, "altitude_km", math.nan, path),
                egress=StationPass(peaks["egress"], times["egress"]),
                ingress=StationPass(peaks["ingress"], times["ingress"]),
            )
            return SatelliteSource(
                source_id=source_id,
                pass_model=pass_model,
                link_params=_load_fields(
                    FreeSpaceLinkParams, doc.get("link"), FreeSpaceLinkParams(), f"{path}.link"
                ),
                emission_rate_hz=_get_number(
                    doc, "emission_rate_hz", DEFAULT_EMISSION_RATE_HZ, path
                ),
            )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    raise ConfigError(
        f"{path}.kind must be 'ground-fiber' or 'satellite-pass', got {kind!r}"
    )


def _load_policy(doc: Any, default: Policy) -> Policy:
    if doc is None:
        return default
    if isinstance(doc, str):
        return Policy(doc)
    doc = _require_mapping(doc, "policy")
    _check_keys(doc, {"kind", "source_id"}, "policy")
    source_id = doc.get("source_id")
    if source_id is not None and not isinstance(source_id, str):
        raise ConfigError(f"policy.source_id must be a string, got {source_id!r}")
    return Policy(_get_str(doc, "kind", "policy"), source_id)


_TOP_LEVEL_KEYS = {
    "schema_version",
    "seed",
    "duration_s",
    "bin_width_s",
    "channel_step_s",
    "memory_capacity",
    "p_teleport_success",
    "classical_distance_km",
    "traffic",
    "access",
    "policy",
    "sources",
}


def load_config(doc: Mapping[str, Any]) -> ScenarioConfig:
    """Build a validated ScenarioConfig from a configuration document."""
    doc = _require_mapping(doc, "config")
    version = doc.get("schema_version", SCHEMA_VERSION)
    if isinstance(version, bool) or not isinstance(version, int) or version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})")
    _check_keys(doc, _TOP_LEVEL_KEYS, "config")
    defaults = ScenarioConfig()

    traffic = _load_fields(TrafficConfig, doc.get("traffic"), defaults.traffic, "traffic")

    access_doc = doc.get("access")
    if access_doc is not None:
        access_doc = _require_mapping(access_doc, "access")
        _check_keys(access_doc, {"ingress_access", "egress_access"}, "access")
    ingress_access = _load_fields(
        FiberLink,
        access_doc.get("ingress_access") if access_doc else None,
        defaults.ingress_access,
        "access.ingress_access",
    )
    egress_access = _load_fields(
        FiberLink,
        access_doc.get("egress_access") if access_doc else None,
        defaults.egress_access,
        "access.egress_access",
    )

    sources_doc = doc.get("sources")
    if sources_doc is None:
        sources: tuple[EntanglementSource, ...] = (fiber_source(),)
    else:
        if not isinstance(sources_doc, (list, tuple)):
            raise ConfigError("sources must be a list of source objects")
        sources = tuple(
            _load_source(entry, f"sources[{i}]")
            for i, entry in enumerate(sources_doc)
        )

    memory = doc.get("memory_capacity", defaults.memory_capacity)
    if memory is not None and (isinstance(memory, bool) or not isinstance(memory, int)):
        raise ConfigError(f"memory_capacity must be an integer or null: {memory!r}")

    seed = doc.get("seed", defaults.seed)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError(f"seed must be an integer: {seed!r}")

    return ScenarioConfig(
        sources=sources,
        policy=_load_policy(doc.get("policy"), defaults.policy),
        traffic=traffic,
        ingress_access=ingress_access,
        egress_access=egress_access,
        memory_capacity=memory,
        p_teleport_success=_get_number(
            doc, "p_teleport_success", defaults.p_teleport_success, "config"
        ),
        duration_s=_get_number(doc, "duration_s", defaults.duration_s, "config"),
        bin_width_s=_get_number(doc, "bin_width_s", defaults.bin_width_s, "config"),
        channel_step_s=_get_number(doc, "channel_step_s", defaults.channel_step_s, "config"),
        classical_distance_km=_get_number(
            doc, "classical_distance_km", defaults.classical_distance_km, "config"
        ),
        seed=seed,
    )


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


def _source_to_dict(source: EntanglementSource) -> dict[str, Any]:
    if source.kind == "ground-fiber":
        return {
            "id": source.source_id,
            "kind": source.kind,
            "emission_rate_hz": source.emission_rate_hz,
            "arm_length_km": source.arm.length_km,
            "attenuation_db_per_km": source.arm.attenuation_db_per_km,
        }
    egress_pass = source.pass_model.egress
    ingress_pass = source.pass_model.ingress
    return {
        "id": source.source_id,
        "kind": source.kind,
        "emission_rate_hz": source.emission_rate_hz,
        "altitude_km": source.pass_model.altitude_km,
        "peak_elevation_deg": {
            "egress": egress_pass.peak_elevation_deg,
            "ingress": ingress_pass.peak_elevation_deg,
        },
        "peak_time_s": {
            "egress": egress_pass.peak_time_s,
            "ingress": ingress_pass.peak_time_s,
        },
        "link": asdict(source.link_params),
    }


def config_to_dict(config: ScenarioConfig) -> dict[str, Any]:
    """Canonical JSON-compatible form; round-trips through load_config."""
    policy: dict[str, Any] = {"kind": config.policy.kind}
    if config.policy.source_id is not None:
        policy["source_id"] = config.policy.source_id
    return {
        "schema_version": SCHEMA_VERSION,
        "seed": config.seed,
        "duration_s": config.duration_s,
        "bin_width_s": config.bin_width_s,
        "channel_step_s": config.channel_step_s,
        "memory_capacity": config.memory_capacity,
        "p_teleport_success": config.p_teleport_success,
        "classical_distance_km": config.classical_distance_km,
        "traffic": asdict(config.traffic),
        "access": {
            "ingress_access": asdict(config.ingress_access),
            "egress_access": asdict(config.egress_access),
        },
        "policy": policy,
        "sources": [_source_to_dict(s) for s in config.sources],
    }
