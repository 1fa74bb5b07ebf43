"""Shared multi-party Dec-POMDP value types: parties, agents, joint actions,
step outcomes and episode trajectories.

Everything in this module is immutable value data; environments hold the only
mutable machinery and hand out fresh state objects on every step.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterable, Mapping, Sequence

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

    @classmethod
    def from_key(cls, key: str) -> "AgentId":
        party, _, idx = key.partition("/")
        return cls(Party.from_label(party), int(idx))

    def __repr__(self) -> str:  # keeps trajectory dumps readable
        return self.key


@dataclass(frozen=True)
class StepOutcome:
    """Per-step result flags plus the failure-path signal vector.

    Success/failure are decided only at episode end: both flags stay False on
    non-terminal steps and are mutually exclusive on the terminal one.
    """

    terminal: bool
    victim_success: bool
    victim_failed: bool
    failure_signals: np.ndarray

    def __post_init__(self) -> None:
        if self.victim_success and self.victim_failed:
            raise ValueError("victim_success and victim_failed are mutually exclusive")
        if not self.terminal and (self.victim_success or self.victim_failed):
            raise ValueError("success/failure may only be set on a terminal step")
        sig = np.asarray(self.failure_signals, dtype=float)
        if sig.ndim != 1:
            raise ValueError("failure_signals must be a flat vector")
        if np.any(sig < 0) or not np.all(np.isfinite(sig)):
            raise ValueError("failure signals must be finite and >= 0")
        object.__setattr__(self, "failure_signals", sig)

    def to_dict(self) -> dict:
        return {
            "terminal": self.terminal,
            "victim_success": self.victim_success,
            "victim_failed": self.victim_failed,
            "failure_signals": [float(x) for x in self.failure_signals],
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "StepOutcome":
        return cls(
            terminal=bool(d["terminal"]),
            victim_success=bool(d["victim_success"]),
            victim_failed=bool(d["victim_failed"]),
            failure_signals=np.asarray(d["failure_signals"], dtype=float),
        )


@dataclass(frozen=True)
class StepRecord:
    """One transition as seen by the externally controlled agents."""

    observations: Mapping[AgentId, np.ndarray]
    available: Mapping[AgentId, np.ndarray]
    actions: Mapping[AgentId, int]
    failure_signals: np.ndarray
    reward: float
    outcome: StepOutcome


@dataclass(frozen=True)
class EpisodeTrajectory:
    """Ordered step records plus the episode summary; the raw material for
    both learners and the reward estimator."""

    records: tuple[StepRecord, ...]
    final_outcome: StepOutcome
    seed: int

    def __len__(self) -> int:
        return len(self.records)

    @property
    def rewards(self) -> np.ndarray:
        return np.array([r.reward for r in self.records], dtype=float)


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
    """Raised when training produces non-finite values."""


def validate_trajectory(traj: EpisodeTrajectory, descriptor) -> ValidationReport:
    """Check a trajectory against an environment descriptor.

    Returns a pass/fail report listing every violated invariant. Structural
    problems (wrong observation length) are reported with the record index.
    """
    if not traj.records:
        raise StructuralError("trajectory has no records")
    violations: list[str] = []
    horizon = descriptor.horizon
    if len(traj.records) > horizon:
        violations.append(f"length {len(traj.records)} exceeds horizon {horizon}")
    for t, rec in enumerate(traj.records):
        last = t == len(traj.records) - 1
        if rec.outcome.terminal and not last:
            violations.append(f"record {t}: terminal before end")
        if last and not rec.outcome.terminal:
            violations.append(f"record {t}: last record not terminal")
        for agent, obs in rec.observations.items():
            want = descriptor.obs_dim(agent.party)
            if np.asarray(obs).shape != (want,):
                violations.append(
                    f"record {t} shape: {agent.key} observation "
                    f"{np.asarray(obs).shape} != ({want},)"
                )
        for agent, mask in rec.available.items():
            want = descriptor.n_actions(agent.party)
            mask = np.asarray(mask)
            if mask.shape != (want,):
                violations.append(
                    f"record {t} shape: {agent.key} mask {mask.shape} != ({want},)"
                )
            elif not mask.any():
                violations.append(f"record {t}: {agent.key} has no available action")
        for agent, action in rec.actions.items():
            mask = np.asarray(rec.available.get(agent, ()))
            if mask.size and not (0 <= action < mask.size and mask[action]):
                violations.append(
                    f"record {t}: {agent.key} action {action} not available"
                )
        sig = np.asarray(rec.failure_signals)
        if sig.shape != (descriptor.n_failure_paths,):
            violations.append(
                f"record {t} shape: signals {sig.shape} != ({descriptor.n_failure_paths},)"
            )
    if traj.final_outcome != traj.records[-1].outcome:
        violations.append("final_outcome differs from last record outcome")
    return ValidationReport(ok=not violations, violations=tuple(violations))


# --- line-delimited trajectory serialization ---------------------------------
#
# One JSON object per record, keys sorted; the final line is the outcome
# summary {"final_outcome": ..., "seed": ..., "length": ...}.

def trajectory_to_lines(traj: EpisodeTrajectory) -> list[str]:
    lines = []
    for t, rec in enumerate(traj.records):
        lines.append(
            json.dumps(
                {
                    "t": t,
                    "obs": {a.key: [float(x) for x in o] for a, o in rec.observations.items()},
                    "avail": {a.key: [bool(b) for b in m] for a, m in rec.available.items()},
                    "actions": {a.key: int(x) for a, x in rec.actions.items()},
                    "signals": [float(x) for x in rec.failure_signals],
                    "reward": float(rec.reward),
                    "outcome": rec.outcome.to_dict(),
                },
                sort_keys=True,
            )
        )
    lines.append(
        json.dumps(
            {
                "final_outcome": traj.final_outcome.to_dict(),
                "length": len(traj.records),
                "seed": traj.seed,
            },
            sort_keys=True,
        )
    )
    return lines


def trajectory_from_lines(lines: Sequence[str]) -> EpisodeTrajectory:
    if len(lines) < 2:
        raise StructuralError("trajectory stream needs >= 1 record plus summary")
    summary = json.loads(lines[-1])
    records = []
    for line in lines[:-1]:
        d = json.loads(line)
        records.append(
            StepRecord(
                observations={
                    AgentId.from_key(k): np.asarray(v, dtype=float)
                    for k, v in d["obs"].items()
                },
                available={
                    AgentId.from_key(k): np.asarray(v, dtype=bool)
                    for k, v in d["avail"].items()
                },
                actions={AgentId.from_key(k): int(v) for k, v in d["actions"].items()},
                failure_signals=np.asarray(d["signals"], dtype=float),
                reward=float(d["reward"]),
                outcome=StepOutcome.from_dict(d["outcome"]),
            )
        )
    return EpisodeTrajectory(
        records=tuple(records),
        final_outcome=StepOutcome.from_dict(summary["final_outcome"]),
        seed=int(summary["seed"]),
    )


def save_trajectory(path, traj: EpisodeTrajectory) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(trajectory_to_lines(traj)) + "\n")


def load_trajectory(path) -> EpisodeTrajectory:
    with open(path) as fh:
        return trajectory_from_lines([ln for ln in fh.read().splitlines() if ln])


def derive_seed(master: int, stream: str, counter: int) -> int:
    """Derive a child seed from a master seed by counter hashing.

    Stable across platforms and sessions, so a master seed plus a stream name
    pins every episode seed in a sweep.
    """
    digest = hashlib.sha256(f"{master}:{stream}:{counter}".encode()).digest()
    return int.from_bytes(digest[:8], "little")
