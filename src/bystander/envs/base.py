"""Environment contract shared by the built-in desk-scale environments.

Environments are functional: `reset` and `step` take and return immutable
state values, so trajectories can be replayed and audited bit-exactly. An
environment instance owns only its configuration and derived lookup tables.

`Environment` holds what every environment shares, written once:
  - the step contract: a terminal state cannot be stepped (LifecycleError).
    The joint action holds one (n,) array per controllable party, laid out
    as `masks_party` (a party left out plays noop); any other key, a wrong
    length or an action its mask refuses is a ContractViolation. The check
    reads the masks the caller already holds (the rollout passes the ones
    its controllers acted on) and computes each missing party's with one
    `masks_party` call. The scripted third party then acts, and the
    resolver gets every unit's action in the state's unit order, with the
    cells occupied at tick start, found once per step;
  - the observation layout: an observer's own features, then fixed
    per-unit slot blocks for victims, third-party units and bystander slots
    (`config.adversary_slots`), its own party's block leaving out itself.
    Each block is (present, feature...) and stays zero when the unit is
    absent or out of sight.
  - the state type: a `State` keeps its units in sorted agent order
    (party order, then index), so each party holds a contiguous run of
    positions. `unit_slots` (built once per env, shared by all its states)
    maps an agent to its position there, for `State.unit`, audits and
    tests; the observation, mask and step paths read units by position and
    hash no agent.
An environment supplies its unit type and its dynamics (`reset`,
`_resolve`, `_terminal`, the scripted third-party action, the tick-start
occupied cells), its mask rows (`_mask_rows`) and the two observation hooks
(`_own_features`, `_sees`). It may also override `stacked_views`.

Policies and learners read a state only through `observe_party` and
`masks_party`: each walks one party once, by unit position, and returns one
(n, obs_dim) or (n, n_actions) array; a party with no agents gives (0, ...)
arrays. The per-agent `observe` and `available_actions` are an agent's row
of these. `stacked_views` gives the views of K states in one call, (K, n,
...) per party, row k bit for bit the per-state arrays; lockstep evaluation
reads it once per tick. This class stacks the per-state arrays (corridor
uses that); skirmish computes all K rows together on unit columns. The
per-state methods stay the reference that run_episode, the audits and the
tests read. There is no global-state view: bystanders have none, and each
party's mixer reads its own agents' observations. `positions` and
`step_events` exist for audits.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..core import (
    AgentId,
    ConfigError,
    ContractViolation,
    EpisodeTrajectory,
    LifecycleError,
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
    is finite and >= 0 and at least one is > 0."""
    if len(weights) != n_paths:
        raise ConfigError(f"{env_name} has exactly {n_paths} failure paths")
    if not (all(0 <= w < np.inf for w in weights) and any(w > 0 for w in weights)):
        raise ConfigError(f"failure_weights {weights} must be finite and >= 0 with at least one > 0")


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


@dataclass(frozen=True)
class StepEvents:
    """Audit channel for one resolved step."""

    attacks: tuple[tuple[AgentId, AgentId, int], ...]  # attacker, target, damage
    collisions: tuple[tuple[AgentId, AgentId], ...]  # mover, obstacle


@dataclass(frozen=True)
class State:
    """Units in sorted agent order; `slots` is the env's `unit_slots`."""

    units: tuple
    step_count: int
    seed: int
    slots: Mapping[AgentId, int] = field(compare=False, repr=False)

    def unit(self, agent: AgentId):
        try:
            return self.units[self.slots[agent]]
        except KeyError:
            raise KeyError(f"unknown agent {agent.key}") from None


# slot blocks follow the observer's own features in this party order
SLOT_ORDER = (Party.VICTIM, Party.THIRD, Party.ADVERSARY)


class Environment(ABC):
    """Functional multi-party environment over `config`, which carries
    victim_count, adversary_count, adversary_slots, horizon and
    failure_weights.

    A subclass names its features in SELF_FEATURES (the observer's own) and
    SLOT_FEATURES (what a slot holds after its present flag), its
    FAILURE_PATHS, and passes its third-party count and action tables here.
    """

    SELF_FEATURES: tuple[str, ...]
    SLOT_FEATURES: tuple[str, ...]
    FAILURE_PATHS: tuple[FailurePathDescriptor, ...]

    def __init__(self, name: str, config, third_count: int, action_labels: Mapping[Party, tuple[str, ...]]):
        self.config = config
        counts = {
            Party.VICTIM: config.victim_count,
            Party.ADVERSARY: config.adversary_count,
            Party.THIRD: third_count,
        }
        self._agents = {p: tuple(AgentId(p, i) for i in range(n)) for p, n in counts.items()}
        # Party order, then index: sorted agent order
        self.unit_slots = {a: k for k, a in enumerate(a for p in Party for a in self._agents[p])}
        # each party's run of unit positions, as a slice of the state's units
        starts = {p: sum(counts[q] for q in Party if q < p) for p in Party}
        self._span = {p: slice(starts[p], starts[p] + counts[p]) for p in Party}
        slots = {**counts, Party.ADVERSARY: config.adversary_slots}
        width = 1 + len(self.SLOT_FEATURES)
        obs_labels = {}
        # party -> ((observer's unit position, ((offset of a slot block, the
        # unit position it shows), ...)), ...) in agent-index order
        self._views: dict[Party, tuple[tuple[int, tuple[tuple[int, int], ...]], ...]] = {}
        for party in Party:
            labels = list(self.SELF_FEATURES)
            table: dict[AgentId, list[tuple[int, int]]] = {a: [] for a in self._agents[party]}
            for slot_party in SLOT_ORDER:
                # the block of the observer's own party leaves itself out
                n = max(slots[slot_party] - (slot_party is party), 0)
                for agent, rows in table.items():
                    others = [a for a in self._agents[slot_party] if a != agent][:n]
                    rows += [(len(labels) + width * k, self.unit_slots[other]) for k, other in enumerate(others)]
                for k in range(n):
                    base = f"{slot_party.label}_slot{k}"
                    labels += [f"{base}_present"] + [f"{base}_{f}" for f in self.SLOT_FEATURES]
            obs_labels[party] = tuple(labels)
            self._views[party] = tuple((self.unit_slots[a], tuple(rows)) for a, rows in table.items())
        self._obs_dim = {p: len(labels) for p, labels in obs_labels.items()}
        self._n_actions = {p: len(labels) for p, labels in action_labels.items()}
        self._descriptor = EnvDescriptor(
            name=name,
            horizon=config.horizon,
            party_counts=counts,
            action_labels=action_labels,
            obs_labels=obs_labels,
            failure_paths=self.FAILURE_PATHS,
            default_weights=config.failure_weights,
        )

    @property
    def descriptor(self) -> EnvDescriptor:
        return self._descriptor

    def agents(self, party: Party) -> tuple[AgentId, ...]:
        return self._agents[party]

    @abstractmethod
    def reset(self, seed: int): ...

    # --- step -------------------------------------------------------------

    def step_events(
        self,
        state,
        actions: Mapping[Party, np.ndarray],
        masks: Mapping[Party, np.ndarray] | None = None,
    ):
        """(next state, StepOutcome, StepEvents) of one checked step of the
        per-party `actions`. `masks` may hold a party's `masks_party(state,
        party)`, which the check then reads instead of computing them again."""
        if self._terminal(state):
            raise LifecycleError("cannot step a terminal state")
        if not set(actions) <= {Party.VICTIM, Party.ADVERSARY}:
            raise ContractViolation(f"joint action keys {list(actions)} are not all victim or adversary parties")
        masks = masks or {}
        occupied = self._occupied(state)
        unit_actions: list[int] = []  # in unit order: party order, then index
        for party in Party:
            agents = self._agents[party]
            if party is Party.THIRD:
                span = self._span[party]
                unit_actions += [self._scripted_action(state, k, occupied) for k in range(span.start, span.stop)]
                continue
            chosen = np.asarray(actions.get(party, [0] * len(agents)))
            if chosen.shape != (len(agents),):
                raise ContractViolation(f"{party.label} actions have shape {chosen.shape}, not ({len(agents)},)")
            if not agents:
                continue
            held = masks.get(party)
            if held is None:
                held = self.masks_party(state, party)
            for agent, a, mask in zip(agents, chosen.tolist(), held.tolist()):
                a = int(a)
                if not (0 <= a < len(mask)) or not mask[a]:
                    raise ContractViolation(f"agent {agent.key} chose unavailable action {a}")
                unit_actions.append(a)
        return self._resolve(state, unit_actions, occupied)

    def step(self, state, actions: Mapping[Party, np.ndarray], masks: Mapping[Party, np.ndarray] | None = None):
        nxt, outcome, _ = self.step_events(state, actions, masks)
        return nxt, outcome

    @abstractmethod
    def _terminal(self, state) -> bool: ...

    @abstractmethod
    def _occupied(self, state) -> set:
        """The cells of the units in play, which block moves this tick."""

    @abstractmethod
    def _scripted_action(self, state, k: int, occupied: set) -> int:
        """The action of the third-party unit at position `k` this step."""

    @abstractmethod
    def _resolve(self, state, actions: list[int], occupied: set):
        """Apply a checked action of every unit, given in the state's unit
        order, to the state whose `_occupied` cells are `occupied`; returns
        what step_events does."""

    @abstractmethod
    def victim_task_reward(self, prev, nxt, outcome: StepOutcome) -> float: ...

    # --- observation / masks ------------------------------------------------

    def observe_party(self, state, party: Party) -> np.ndarray:
        """The party's (n, obs_dim) observations in agent-index order: each
        agent's own features, then its slot blocks; all zero for an agent
        out of play."""
        units = state.units
        views = self._views[party]
        dim = self._obs_dim[party]
        n_own, n_seen = len(self.SELF_FEATURES), len(self.SLOT_FEATURES)
        own_features, sees = self._own_features, self._sees
        # one flat list converted once is cheaper than item writes into an array
        obs = [0.0] * (len(views) * dim)
        for row, (k, slots) in enumerate(views):
            me = units[k]
            own = own_features(me)
            if own is None:
                continue
            start = row * dim
            obs[start : start + n_own] = own
            for i, j in slots:
                seen = sees(me, units[j])
                if seen is not None:
                    i += start
                    obs[i] = 1.0
                    obs[i + 1 : i + 1 + n_seen] = seen
        return np.array(obs).reshape(len(views), dim)

    def masks_party(self, state, party: Party) -> np.ndarray:
        """The party's (n, n_actions) action masks in agent-index order."""
        rows = self._mask_rows(state, party)
        return np.array(rows, dtype=bool).reshape(len(self._agents[party]), self._n_actions[party])

    def stacked_views(self, states: Sequence, parties: Sequence[Party]) -> dict[Party, tuple[np.ndarray, np.ndarray]]:
        """Each party's views of a non-empty run of K states: {party: (obs
        (K, n, obs_dim), masks (K, n, n_actions))}, row k bit for bit
        `observe_party(states[k], party)` and `masks_party(states[k],
        party)`. This version stacks those per-state arrays; an env may
        compute all K rows at once instead."""
        return {
            p: (np.stack([self.observe_party(s, p) for s in states]), np.stack([self.masks_party(s, p) for s in states]))
            for p in parties
        }

    def observe(self, state, agent: AgentId) -> np.ndarray:
        """The agent's row of `observe_party`; KeyError for an unknown agent."""
        return self.observe_party(state, agent.party)[self._row(agent)]

    def available_actions(self, state, agent: AgentId) -> np.ndarray:
        """The agent's row of `masks_party`; KeyError for an unknown agent."""
        return self.masks_party(state, agent.party)[self._row(agent)]

    def _row(self, agent: AgentId) -> int:
        if agent not in self.unit_slots:
            raise KeyError(f"unknown agent {agent.key}")
        return agent.index

    @abstractmethod
    def _own_features(self, me) -> tuple[float, ...] | None:
        """SELF_FEATURES of an observer, None when it is out of play."""

    @abstractmethod
    def _sees(self, me, other) -> tuple[float, ...] | None:
        """SLOT_FEATURES of `other` as `me` sees it, None when out of sight."""

    @abstractmethod
    def _mask_rows(self, state, party: Party) -> list[bool]:
        """The party's masks, one row of n_actions per agent in index order,
        as one flat list."""

    # --- audits ---------------------------------------------------------------

    @abstractmethod
    def positions(self, state) -> dict[AgentId, tuple]:
        """On-grid coordinates of every live unit/vehicle."""
        ...


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
