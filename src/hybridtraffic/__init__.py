"""Hybrid traffic simulation: interchangeable macroscopic, mesoscopic, and
microscopic link models coupled through a common packet-exchange protocol."""

__version__ = "0.1.0"  # the only version source; pyproject.toml reads it

from .engine import Engine
from .scenario import Scenario, load_scenario, save_scenario, validate_scenario

__all__ = [
    "Engine",
    "Scenario",
    "load_scenario",
    "save_scenario",
    "validate_scenario",
]
