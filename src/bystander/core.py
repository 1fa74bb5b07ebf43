"""Shared multi-party Dec-POMDP value types: parties, agents, joint actions,
step outcomes and episode trajectories.

Everything in this module is immutable value data; environments hold the only
mutable machinery and hand out fresh state objects on every step.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Mapping

import numpy as np


class Party(IntEnum):
    """The three roles an agent can play in the open system.

    Ordering matters: lower values win movement-conflict tie-breaks.
    """

    ADVERSARY = 0
    VICTIM = 1
    THIRD = 2

    @property
    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def from_label(cls, label: str) -> "Party":
        try:
            return cls[label.upper()]
        except KeyError:
            raise ValueError(f"unknown party label {label!r}") from None


@dataclass(frozen=True, order=True)
class AgentId:
    """Identifies one agent as (party, index); indices are contiguous from 0
    within each party."""

    party: Party
    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"agent index must be >= 0, got {self.index}")

    @property
    def key(self) -> str:
        return f"{self.party.label}/{self.index}"

    def __repr__(self) -> str:  # keeps audit messages readable
        return self.key


@dataclass(frozen=True)
class StepOutcome:
    """Per-step result flags plus the failure-path signal vector.

    Success is decided only at episode end: victim_success stays False on
    non-terminal steps, and a terminal step without it is a victim failure.
    """

    terminal: bool
    victim_success: bool
    failure_signals: np.ndarray

    def __post_init__(self) -> None:
        if self.victim_success and not self.terminal:
            raise ValueError("success may only be set on a terminal step")
        sig = np.asarray(self.failure_signals, dtype=float)
        if sig.ndim != 1:
            raise ValueError("failure_signals must be a flat vector")
        # a Python loop: numpy's reductions cost more than the step that
        # builds this outcome, at two or three signals
        for x in sig.tolist():
            if not 0.0 <= x < math.inf:
                raise ValueError("failure signals must be finite and >= 0")
        object.__setattr__(self, "failure_signals", sig)


@dataclass(frozen=True)
class EpisodeTrajectory:
    """The record of one played episode, held as the arrays the rollout
    builds: per party, obs (T+1, n, D) and avail (T+1, n, A) over the states
    s_0..s_T and actions (T, n); the T+1 env states themselves; per
    transition, the T StepOutcomes env.step returned. It holds no reward: a
    reward scores it after the rollout. A learner reads its party's arrays;
    audits replay the episode from `seed` through `joint_action`."""

    obs: Mapping[Party, np.ndarray]
    avail: Mapping[Party, np.ndarray]
    actions: Mapping[Party, np.ndarray]
    states: tuple
    outcomes: tuple[StepOutcome, ...]
    seed: int

    def __len__(self) -> int:
        return len(self.outcomes)

    def joint_action(self, t: int) -> dict[Party, np.ndarray]:
        """The actions of step t, one (n,) array per party, as env.step
        takes them."""
        return {party: acts[t] for party, acts in self.actions.items()}


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...] = ()


class StructuralError(ValueError):
    """Raised for shape/layout mismatches in records, masks, or tensors."""


class ContractViolation(RuntimeError):
    """Raised when an operation's stated precondition is broken."""


class LifecycleError(RuntimeError):
    """Raised when an object is used outside its valid phase (e.g. stepping a
    terminal state)."""


class ConfigError(ValueError):
    """Raised for invalid environment or training configuration."""


class TrainingFault(RuntimeError):
    """Raised when training goes wrong: non-finite values, a frozen policy
    that changed while another party trained, or a trained party that
    misses its competence floor."""


def validate_trajectory(traj: EpisodeTrajectory, descriptor) -> ValidationReport:
    """Check a trajectory against an environment descriptor.

    Returns a pass/fail report listing every violated invariant. Array
    shapes are checked per party against the T+1 states and T steps;
    per-step problems are reported with the record (step) index.
    """
    steps = len(traj.outcomes)
    if not steps:
        raise StructuralError("trajectory has no records")
    violations: list[str] = []
    if steps > descriptor.horizon:
        violations.append(f"length {steps} exceeds horizon {descriptor.horizon}")
    for t, out in enumerate(traj.outcomes):
        last = t == steps - 1
        if out.terminal and not last:
            violations.append(f"record {t}: terminal before end")
        if last and not out.terminal:
            violations.append(f"record {t}: last record not terminal")
        if out.failure_signals.shape != (descriptor.n_failure_paths,):
            violations.append(
                f"record {t} shape: signals {out.failure_signals.shape} "
                f"!= ({descriptor.n_failure_paths},)"
            )
    if len(traj.states) != steps + 1:
        violations.append(f"shape: {len(traj.states)} states != {steps + 1}")
    arrays = {"obs": traj.obs, "avail": traj.avail, "actions": traj.actions}
    for party in sorted(set().union(*arrays.values())):
        n, n_act = descriptor.party_counts[party], descriptor.n_actions(party)
        want = {
            "obs": (steps + 1, n, descriptor.obs_dim(party)),
            "avail": (steps + 1, n, n_act),
            "actions": (steps, n),
        }
        wrong = [
            f"shape: {party.label} {name} {np.shape(arrays[name].get(party))} != {shape}"
            for name, shape in want.items()
            if np.shape(arrays[name].get(party)) != shape
        ]
        if wrong:
            violations += wrong
            continue
        masks = traj.avail[party]
        for (t, i), a in np.ndenumerate(traj.actions[party]):
            key = AgentId(party, i).key
            if not masks[t, i].any():
                violations.append(f"record {t}: {key} has no available action")
            if not (0 <= a < n_act and masks[t, i, a]):
                violations.append(f"record {t}: {key} action {a} not available")
    return ValidationReport(ok=not violations, violations=tuple(violations))


def derive_seed(master: int, stream: str, counter: int) -> int:
    """Derive a child seed from a master seed by counter hashing.

    Stable across platforms and sessions, so a master seed plus a stream name
    pins every episode seed in a sweep.
    """
    digest = hashlib.sha256(f"{master}:{stream}:{counter}".encode()).digest()
    return int.from_bytes(digest[:8], "little")
