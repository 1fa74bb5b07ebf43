"""Desk-scale laboratory for bystander-agent attacks on cooperative
multi-agent reinforcement learning: train victims, freeze them, then train
neutral bystanders to break the task through the shared environment."""

__version__ = "0.1.0"

from .core import AgentId, EpisodeTrajectory, Party, StepOutcome, derive_seed

__all__ = [
    "AgentId",
    "EpisodeTrajectory",
    "Party",
    "StepOutcome",
    "derive_seed",
    "__version__",
]
