"""Grid-combat environment: victim units fight scripted opponent units while
neutral bystander units share the grid.

Resolution order per step (documented so episodes can be hand-simulated):
  1. movement — a move succeeds only into an in-bounds cell that was empty at
     tick start; multiple claimants on one cell are resolved to the lowest
     AgentId, the rest stay put. Swaps are impossible (origin cells count as
     occupied).
  2. attacks — simultaneous; an attack lands iff the target is alive and
     within Chebyshev attack range after movement.
  3. deaths — units at zero health are removed; they still blocked movement
     and could attack this tick.

Bystanders can never target victims (those mask entries are always false)
and may target opponents only when explicitly enabled; their influence is
positional: standing in cells victims or opponents want.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from ..core import (
    AgentId,
    ConfigError,
    ContractViolation,
    LifecycleError,
    Party,
    StepOutcome,
)
from .base import EnvDescriptor, Environment, FailurePathDescriptor, StepEvents, check_failure_weights

MOVE_DELTAS = {
    "north": (0, -1),
    "south": (0, 1),
    "east": (1, 0),
    "west": (-1, 0),
}


@dataclass(frozen=True)
class SkirmishConfig:
    grid_size: tuple[int, int] = (8, 5)
    victim_count: int = 3
    opponent_count: int = 2
    adversary_count: int = 2
    unit_health: int = 6
    attack_range: int = 1
    attack_damage: int = 2
    horizon: int = 60
    sensing_radius: int = 3
    adversary_slots: int = 3
    adversaries_may_attack_opponents: bool = False
    failure_weights: tuple[float, ...] = (0.7, 0.3)

    def __post_init__(self) -> None:
        w, h = self.grid_size
        if w < 6 or h < 1:
            raise ConfigError(f"grid {w}x{h} too small; need width >= 6")
        if self.victim_count < 1:
            raise ConfigError("victim_count must be >= 1")
        if self.opponent_count < 1:
            raise ConfigError("opponent_count must be >= 1")
        if self.adversary_count < 0:
            raise ConfigError("adversary_count must be >= 0")
        if self.adversary_count > self.adversary_slots:
            raise ConfigError(
                f"adversary_count {self.adversary_count} exceeds "
                f"adversary_slots {self.adversary_slots}"
            )
        for name in ("unit_health", "attack_range", "attack_damage", "horizon"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        zone = 2 * h
        if self.victim_count > zone or self.opponent_count > zone or self.adversary_count > zone:
            raise ConfigError("spawn zone (two columns) cannot fit a party")
        check_failure_weights(self.failure_weights, 2, "skirmish")


@dataclass(frozen=True)
class Unit:
    agent: AgentId
    x: int
    y: int
    health: int

    @property
    def alive(self) -> bool:
        return self.health > 0


@dataclass(frozen=True)
class SkirmishState:
    units: tuple[Unit, ...]
    step_count: int
    seed: int

    def unit(self, agent: AgentId) -> Unit:
        for u in self.units:
            if u.agent == agent:
                return u
        raise KeyError(f"unknown agent {agent.key}")

    def party_health(self, party: Party) -> int:
        return sum(u.health for u in self.units if u.agent.party is party)

    def alive_units(self, party: Party) -> list[Unit]:
        return [u for u in self.units if u.agent.party is party and u.alive]


def _chebyshev(a: Unit, b: Unit) -> int:
    return max(abs(a.x - b.x), abs(a.y - b.y))


class SkirmishEnv(Environment):
    """Configured skirmish instance; all episode state lives in
    SkirmishState values."""

    FAILURE_PATHS = (
        FailurePathDescriptor(0, "victim_damage", "health lost by the victim party this step, as a fraction of its total starting health"),
        FailurePathDescriptor(1, "task_delay", "1/horizon for every step any opponent is still standing"),
    )

    def __init__(self, config: SkirmishConfig):
        self.config = config
        c = config
        self._agents = {
            Party.VICTIM: tuple(AgentId(Party.VICTIM, i) for i in range(c.victim_count)),
            Party.ADVERSARY: tuple(AgentId(Party.ADVERSARY, i) for i in range(c.adversary_count)),
            Party.THIRD: tuple(AgentId(Party.THIRD, i) for i in range(c.opponent_count)),
        }
        self._action_labels = {p: self._build_action_labels(p) for p in Party}
        self._descriptor = EnvDescriptor(
            name="skirmish",
            horizon=c.horizon,
            party_counts={p: len(a) for p, a in self._agents.items()},
            action_labels=self._action_labels,
            obs_labels={p: self._build_obs_labels(p) for p in Party},
            failure_paths=self.FAILURE_PATHS,
            default_weights=c.failure_weights,
        )

    # --- layout -----------------------------------------------------------

    def _build_action_labels(self, party: Party) -> tuple[str, ...]:
        c = self.config
        labels = ["noop", "north", "south", "east", "west"]
        if party is Party.VICTIM:
            labels += [f"attack_opponent_{j}" for j in range(c.opponent_count)]
        elif party is Party.ADVERSARY:
            labels += [f"attack_victim_{j}" for j in range(c.victim_count)]
            labels += [f"attack_opponent_{j}" for j in range(c.opponent_count)]
        else:
            labels += [f"attack_victim_{j}" for j in range(c.victim_count)]
        return tuple(labels)

    def _slot_parties(self, party: Party) -> list[tuple[Party, int, bool]]:
        """(slot party, slot count, skip_self) triples in observation order."""
        c = self.config
        if party is Party.VICTIM:
            return [
                (Party.VICTIM, c.victim_count - 1, True),
                (Party.THIRD, c.opponent_count, False),
                (Party.ADVERSARY, c.adversary_slots, False),
            ]
        if party is Party.ADVERSARY:
            return [
                (Party.VICTIM, c.victim_count, False),
                (Party.THIRD, c.opponent_count, False),
                (Party.ADVERSARY, max(c.adversary_slots - 1, 0), True),
            ]
        return [
            (Party.VICTIM, c.victim_count, False),
            (Party.THIRD, c.opponent_count - 1, True),
            (Party.ADVERSARY, c.adversary_slots, False),
        ]

    def _build_obs_labels(self, party: Party) -> tuple[str, ...]:
        labels = ["self_x", "self_y", "self_health"]
        for slot_party, count, _ in self._slot_parties(party):
            for k in range(count):
                base = f"{slot_party.label}_slot{k}"
                labels += [f"{base}_present", f"{base}_dx", f"{base}_dy", f"{base}_health"]
        return tuple(labels)

    @property
    def descriptor(self) -> EnvDescriptor:
        return self._descriptor

    def agents(self, party: Party) -> tuple[AgentId, ...]:
        return self._agents[party]

    def action_index(self, party: Party, label: str) -> int:
        return self._action_labels[party].index(label)

    # --- lifecycle ----------------------------------------------------------

    def reset(self, seed: int) -> SkirmishState:
        c = self.config
        w, h = c.grid_size
        rng = np.random.default_rng(seed)
        zones = {
            Party.VICTIM: [(x, y) for x in (0, 1) for y in range(h)],
            Party.THIRD: [(x, y) for x in (w - 2, w - 1) for y in range(h)],
            Party.ADVERSARY: [(x, y) for x in (w // 2 - 1, w // 2) for y in range(h)],
        }
        units = []
        for party in (Party.ADVERSARY, Party.VICTIM, Party.THIRD):
            agents = self._agents[party]
            if not agents:
                continue
            cells = zones[party]
            picks = rng.choice(len(cells), size=len(agents), replace=False)
            for agent, pick in zip(agents, picks):
                x, y = cells[int(pick)]
                units.append(Unit(agent, x, y, c.unit_health))
        return SkirmishState(units=tuple(units), step_count=0, seed=seed)

    def positions(self, state: SkirmishState) -> dict[AgentId, tuple]:
        return {u.agent: (u.x, u.y) for u in state.units if u.alive}

    # --- observation / masks ------------------------------------------------

    def observe(self, state: SkirmishState, agent: AgentId) -> np.ndarray:
        c = self.config
        w, h = c.grid_size
        me = state.unit(agent)  # KeyError for unknown agents
        obs = np.zeros(len(self._descriptor.obs_labels[agent.party]))
        if not me.alive:
            return obs
        obs[0] = me.x / max(w - 1, 1)
        obs[1] = me.y / max(h - 1, 1)
        obs[2] = me.health / c.unit_health
        i = 3
        for slot_party, count, skip_self in self._slot_parties(agent.party):
            others = [a for a in self._agents[slot_party] if not (skip_self and a == agent)]
            for k in range(count):
                if k < len(others):
                    try:
                        other = state.unit(others[k])
                    except KeyError:
                        other = None
                    if other is not None and other.alive and _chebyshev(me, other) <= c.sensing_radius:
                        obs[i] = 1.0
                        obs[i + 1] = (other.x - me.x) / c.sensing_radius
                        obs[i + 2] = (other.y - me.y) / c.sensing_radius
                        obs[i + 3] = other.health / c.unit_health
                i += 4
        return obs

    def available_actions(self, state: SkirmishState, agent: AgentId) -> np.ndarray:
        c = self.config
        w, h = c.grid_size
        labels = self._action_labels[agent.party]
        mask = np.zeros(len(labels), dtype=bool)
        mask[0] = True  # noop is always legal
        me = state.unit(agent)
        if not me.alive:
            return mask
        for i, label in enumerate(labels[1:5], start=1):
            dx, dy = MOVE_DELTAS[label]
            mask[i] = 0 <= me.x + dx < w and 0 <= me.y + dy < h
        for i, label in enumerate(labels):
            if not label.startswith("attack_"):
                continue
            target_party = Party.VICTIM if "victim" in label else Party.THIRD
            if agent.party is Party.ADVERSARY:
                if target_party is Party.VICTIM:
                    continue  # neutrality: never attackable
                if not c.adversaries_may_attack_opponents:
                    continue
            idx = int(label.rsplit("_", 1)[1])
            target = state.unit(AgentId(target_party, idx))
            mask[i] = target.alive and _chebyshev(me, target) <= c.attack_range
        return mask

    # --- scripted opponents ---------------------------------------------------

    def _opponent_action(self, state: SkirmishState, me: Unit) -> int:
        """Attack the nearest victim when in range, otherwise advance toward
        it (larger-gap axis first, other axis if blocked)."""
        c = self.config
        victims = state.alive_units(Party.VICTIM)
        if not victims:
            return 0
        target = min(victims, key=lambda v: (_chebyshev(me, v), v.agent.index))
        if _chebyshev(me, target) <= c.attack_range:
            return self.action_index(Party.THIRD, f"attack_victim_{target.agent.index}")
        occupied = {(u.x, u.y) for u in state.units if u.alive}
        dx, dy = target.x - me.x, target.y - me.y
        prefs = []
        step_x = "east" if dx > 0 else "west"
        step_y = "south" if dy > 0 else "north"
        if abs(dx) >= abs(dy):
            prefs = ([step_x] if dx else []) + ([step_y] if dy else [])
        else:
            prefs = ([step_y] if dy else []) + ([step_x] if dx else [])
        w, h = c.grid_size
        for label in prefs:
            mx, my = MOVE_DELTAS[label]
            nx, ny = me.x + mx, me.y + my
            if 0 <= nx < w and 0 <= ny < h and (nx, ny) not in occupied:
                return self.action_index(Party.THIRD, label)
        return 0

    # --- step ----------------------------------------------------------------

    def step_events(
        self, state: SkirmishState, joint_action: Mapping[AgentId, int]
    ) -> tuple[SkirmishState, StepOutcome, StepEvents]:
        c = self.config
        w, h = c.grid_size
        if self._terminal(state):
            raise LifecycleError("cannot step a terminal state")
        actions: dict[AgentId, int] = {}
        for agent in self.controllable_agents:
            a = int(joint_action.get(agent, 0))
            mask = self.available_actions(state, agent)
            if not (0 <= a < mask.size) or not mask[a]:
                raise ContractViolation(
                    f"agent {agent.key} chose unavailable action {a}"
                )
            actions[agent] = a
        for agent in self._agents[Party.THIRD]:
            u = state.unit(agent)
            actions[agent] = self._opponent_action(state, u) if u.alive else 0

        units = {u.agent: u for u in state.units}
        occupied_at_start = {(u.x, u.y) for u in state.units if u.alive}

        # 1. movement
        claims: dict[tuple[int, int], list[AgentId]] = {}
        for agent, a in actions.items():
            u = units[agent]
            if not u.alive:
                continue
            label = self._action_labels[agent.party][a]
            if label in MOVE_DELTAS:
                dx, dy = MOVE_DELTAS[label]
                tgt = (u.x + dx, u.y + dy)
                if 0 <= tgt[0] < w and 0 <= tgt[1] < h and tgt not in occupied_at_start:
                    claims.setdefault(tgt, []).append(agent)
        moves = []
        for tgt, claimants in claims.items():
            winner = min(claimants)
            u = units[winner]
            moves.append((winner, (u.x, u.y), tgt))
            units[winner] = replace(u, x=tgt[0], y=tgt[1])

        # 2. attacks (post-movement range check)
        damage: dict[AgentId, int] = {}
        attacks = []
        for agent, a in actions.items():
            u = units[agent]
            if not u.alive:
                continue
            label = self._action_labels[agent.party][a]
            if not label.startswith("attack_"):
                continue
            target_party = Party.VICTIM if "victim" in label else Party.THIRD
            target_id = AgentId(target_party, int(label.rsplit("_", 1)[1]))
            target = units[target_id]
            if target.alive and _chebyshev(u, target) <= c.attack_range:
                damage[target_id] = damage.get(target_id, 0) + c.attack_damage
                attacks.append((agent, target_id, c.attack_damage))

        # 3. deaths
        for agent, dmg in damage.items():
            u = units[agent]
            units[agent] = replace(u, health=max(u.health - dmg, 0))

        new_units = tuple(units[u.agent] for u in state.units)
        nxt = SkirmishState(units=new_units, step_count=state.step_count + 1, seed=state.seed)
        outcome = self._outcome(state, nxt)
        events = StepEvents(
            attacks=tuple(attacks), moves=tuple(moves), collisions=(), canceled=()
        )
        return nxt, outcome, events

    def _terminal(self, state: SkirmishState) -> bool:
        return (
            state.step_count >= self.config.horizon
            or not state.alive_units(Party.THIRD)
            or not state.alive_units(Party.VICTIM)
        )

    def _outcome(self, prev: SkirmishState, nxt: SkirmishState) -> StepOutcome:
        c = self.config
        victims_alive = bool(nxt.alive_units(Party.VICTIM))
        opponents_alive = bool(nxt.alive_units(Party.THIRD))
        terminal = nxt.step_count >= c.horizon or not victims_alive or not opponents_alive
        success = terminal and not opponents_alive and victims_alive
        failed = terminal and not success
        damage_frac = (
            prev.party_health(Party.VICTIM) - nxt.party_health(Party.VICTIM)
        ) / (c.victim_count * c.unit_health)
        delay = 1.0 / c.horizon if opponents_alive else 0.0
        return StepOutcome(
            terminal=terminal,
            victim_success=success,
            victim_failed=failed,
            failure_signals=np.array([damage_frac, delay]),
        )

    def victim_task_reward(
        self, prev: SkirmishState, joint_action, nxt: SkirmishState, outcome: StepOutcome
    ) -> float:
        c = self.config
        dealt = prev.party_health(Party.THIRD) - nxt.party_health(Party.THIRD)
        reward = dealt / (c.opponent_count * c.unit_health)
        if outcome.victim_success:
            reward += 1.0
        return reward

    # --- test/audit helpers ----------------------------------------------------

    def state_from_positions(
        self,
        positions: Mapping[AgentId, tuple[int, int]],
        healths: Mapping[AgentId, int] | None = None,
        step_count: int = 0,
    ) -> SkirmishState:
        """Build an arbitrary mid-episode state; agents omitted from
        `positions` are treated as already dead."""
        c = self.config
        units = []
        for party in Party:
            for agent in self._agents[party]:
                if agent in positions:
                    x, y = positions[agent]
                    hp = (healths or {}).get(agent, c.unit_health)
                else:
                    x, y, hp = 0, 0, 0
                units.append(Unit(agent, x, y, hp))
        return SkirmishState(units=tuple(units), step_count=step_count, seed=-1)
