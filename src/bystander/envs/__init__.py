"""Built-in environments and named presets."""

from __future__ import annotations

from ..core import ConfigError
from .base import EnvDescriptor, Environment, FailurePathDescriptor, StepEvents, audit_neutrality
from .corridor import CorridorConfig, CorridorEnv, CorridorState, Vehicle
from .skirmish import SkirmishConfig, SkirmishEnv, SkirmishState, Unit

# Difficulty ladder: small = victims outnumber opponents, even = matched,
# hard = victims outnumbered.
PRESETS = {
    "skirmish-small": SkirmishConfig(
        grid_size=(8, 5), victim_count=3, opponent_count=2, adversary_count=2, horizon=40
    ),
    "skirmish-even": SkirmishConfig(
        grid_size=(8, 5), victim_count=3, opponent_count=3, adversary_count=2, horizon=40
    ),
    "skirmish-hard": SkirmishConfig(
        grid_size=(8, 5), victim_count=2, opponent_count=3, adversary_count=2, horizon=40
    ),
    "corridor-small": CorridorConfig(
        lanes=2, length=10, victim_count=1, adversary_count=2, other_vehicle_count=2, horizon=40
    ),
    "corridor-med": CorridorConfig(
        lanes=3, length=12, victim_count=3, adversary_count=3, other_vehicle_count=2, horizon=40
    ),
}


def make_env(config) -> Environment:
    if isinstance(config, SkirmishConfig):
        return SkirmishEnv(config)
    if isinstance(config, CorridorConfig):
        return CorridorEnv(config)
    raise ConfigError(f"unknown environment config type {type(config).__name__}")


__all__ = [
    "CorridorConfig",
    "CorridorEnv",
    "CorridorState",
    "EnvDescriptor",
    "Environment",
    "FailurePathDescriptor",
    "PRESETS",
    "SkirmishConfig",
    "SkirmishEnv",
    "SkirmishState",
    "StepEvents",
    "Unit",
    "Vehicle",
    "audit_neutrality",
    "make_env",
]
