"""Deterministic simulator of quantum dataframe transmission over an
entanglement-based backbone joining two packetized quantum subnetworks."""

from .engine import BinTable, RunResult, run
from .geometry import SatellitePassModel
from .linkbudget import FiberLink, FreeSpaceLinkParams
from .scenario import (
    ConfigError,
    Policy,
    ScenarioConfig,
    config_to_dict,
    load_config,
    load_config_file,
)

__version__ = "0.1.0"

__all__ = [
    "BinTable",
    "ConfigError",
    "FiberLink",
    "FreeSpaceLinkParams",
    "Policy",
    "RunResult",
    "SatellitePassModel",
    "ScenarioConfig",
    "config_to_dict",
    "load_config",
    "load_config_file",
    "run",
    "__version__",
]
