"""Environment contract shared by the built-in desk-scale environments.

Environments are functional: `reset` and `step` take and return immutable
state values, so trajectories can be replayed and audited bit-exactly. An
environment instance owns only its configuration and derived lookup tables.

Policies and learners read a state only through the per-agent `observe` and
`available_actions` (stacked per party by `observe_party`/`masks_party`).
There is no global-state view: bystanders have none, and each party's mixer
reads its own agents' observations. `positions`, `failure_signals` and
`step_events` exist for audits and oracle-only rewards.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..core import (
    AgentId,
    ConfigError,
    ContractViolation,
    EpisodeTrajectory,
    Party,
    StepOutcome,
)


@dataclass(frozen=True)
class FailurePathDescriptor:
    """One way the victim task can go wrong, yielding a per-step signal."""

    id: int
    name: str
    description: str


def check_failure_weights(weights: tuple[float, ...], n_paths: int, env_name: str) -> None:
    """ConfigError unless there is one weight per failure path, every weight
    is >= 0 and at least one is > 0."""
    if len(weights) != n_paths:
        raise ConfigError(f"{env_name} has exactly {n_paths} failure paths")
    if not (all(w >= 0 for w in weights) and any(w > 0 for w in weights)):
        raise ConfigError(f"failure_weights {weights} must be >= 0 with at least one > 0")


@dataclass(frozen=True)
class EnvDescriptor:
    """Machine-readable manifest of an environment's interface: feature
    layouts, action tables, and failure paths."""

    name: str
    horizon: int
    party_counts: Mapping[Party, int]
    action_labels: Mapping[Party, tuple[str, ...]]
    obs_labels: Mapping[Party, tuple[str, ...]]
    failure_paths: tuple[FailurePathDescriptor, ...]
    default_weights: tuple[float, ...]

    def n_actions(self, party: Party) -> int:
        return len(self.action_labels[party])

    def obs_dim(self, party: Party) -> int:
        return len(self.obs_labels[party])

    @property
    def n_failure_paths(self) -> int:
        return len(self.failure_paths)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "horizon": self.horizon,
            "party_counts": {p.label: int(c) for p, c in self.party_counts.items()},
            "action_labels": {p.label: list(v) for p, v in self.action_labels.items()},
            "obs_labels": {p.label: list(v) for p, v in self.obs_labels.items()},
            "failure_paths": [
                {"id": f.id, "name": f.name, "description": f.description}
                for f in self.failure_paths
            ],
            "default_weights": list(self.default_weights),
        }


@dataclass(frozen=True)
class StepEvents:
    """Debug/audit channel for one resolved step."""

    attacks: tuple[tuple[AgentId, AgentId, int], ...]  # attacker, target, damage
    moves: tuple[tuple[AgentId, tuple, tuple], ...]  # agent, from, to
    collisions: tuple[tuple[AgentId, AgentId], ...]  # mover, obstacle
    canceled: tuple[AgentId, ...]  # agents whose maneuver was canceled


class Environment(ABC):
    """Functional multi-party environment."""

    @property
    @abstractmethod
    def descriptor(self) -> EnvDescriptor: ...

    @abstractmethod
    def reset(self, seed: int): ...

    @abstractmethod
    def step_events(self, state, joint_action: Mapping[AgentId, int]): ...

    def step(self, state, joint_action: Mapping[AgentId, int]):
        nxt, outcome, _ = self.step_events(state, joint_action)
        return nxt, outcome

    @abstractmethod
    def observe(self, state, agent: AgentId) -> np.ndarray: ...

    @abstractmethod
    def available_actions(self, state, agent: AgentId) -> np.ndarray: ...

    @abstractmethod
    def agents(self, party: Party) -> tuple[AgentId, ...]: ...

    @abstractmethod
    def victim_task_reward(self, prev, joint_action, nxt, outcome: StepOutcome) -> float: ...

    @abstractmethod
    def positions(self, state) -> dict[AgentId, tuple]:
        """On-grid coordinates of every live unit/vehicle."""
        ...

    @property
    def controllable_agents(self) -> tuple[AgentId, ...]:
        return self.agents(Party.VICTIM) + self.agents(Party.ADVERSARY)

    def failure_signals(
        self, prev, joint_action: Mapping[AgentId, int], nxt
    ) -> np.ndarray:
        """Per-step failure-path progress for a genuine transition.

        Recomputes the step from (prev, joint_action) and rejects the call if
        the claimed successor does not match.
        """
        recomputed, outcome = self.step(prev, joint_action)
        if recomputed != nxt:
            raise ContractViolation("(prev, action, next) is not a genuine transition")
        return outcome.failure_signals

    def observe_party(self, state, party: Party) -> np.ndarray:
        """Stacked observations for one party, in agent-index order."""
        return np.stack([self.observe(state, a) for a in self.agents(party)])

    def masks_party(self, state, party: Party) -> np.ndarray:
        return np.stack([self.available_actions(state, a) for a in self.agents(party)])


def audit_neutrality(env: Environment, traj: EpisodeTrajectory) -> None:
    """Replay a trajectory and verify adversaries never dealt damage to a
    victim nor finished a move in a cell a victim occupied that tick.

    Raises ContractViolation on the first breach.
    """
    state = env.reset(traj.seed)
    for t in range(len(traj)):
        nxt, _, events = env.step_events(state, traj.joint_action(t))
        for attacker, target, dmg in events.attacks:
            if attacker.party is Party.ADVERSARY and target.party is Party.VICTIM and dmg:
                raise ContractViolation(
                    f"step {t}: adversary {attacker.key} damaged victim {target.key}"
                )
        pos = env.positions(nxt)
        victim_cells = {c for a, c in pos.items() if a.party is Party.VICTIM}
        for agent, cell in pos.items():
            if agent.party is Party.ADVERSARY and cell in victim_cells:
                raise ContractViolation(
                    f"step {t}: adversary {agent.key} shares cell {cell} with a victim"
                )
        for mover, obstacle in events.collisions:
            if mover.party is Party.ADVERSARY and obstacle.party is Party.VICTIM:
                raise ContractViolation(
                    f"step {t}: adversary {mover.key} collided with victim {obstacle.key}"
                )
        state = nxt
