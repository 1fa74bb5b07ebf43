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

Each party's action table is built once from the config and holds only what
the party may do: noop, the four moves, then one attack per target. Victims
attack opponents and opponents attack victims. Bystanders are neutral by
construction: their table has no victim target at all, and opponent targets
only when `adversaries_may_attack_opponents` is set, so their influence is
positional: standing in cells victims or opponents want.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, NamedTuple

import numpy as np

from ..core import AgentId, ConfigError, Party, StepOutcome
from .base import Environment, FailurePathDescriptor, StepEvents, check_failure_weights

MOVE_DELTAS = {
    "north": (0, -1),
    "south": (0, 1),
    "east": (1, 0),
    "west": (-1, 0),
}


class Action(NamedTuple):
    """One decoded action-table entry; noop has neither a move nor a target."""

    label: str
    move: tuple[int, int] | None
    target: AgentId | None


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


def _action_table(c: SkirmishConfig, party: Party) -> tuple[Action, ...]:
    """noop, the four moves, then one attack per unit the party may target."""
    if party is Party.THIRD:
        targets = [("victim", AgentId(Party.VICTIM, j)) for j in range(c.victim_count)]
    elif party is Party.VICTIM or c.adversaries_may_attack_opponents:
        targets = [("opponent", AgentId(Party.THIRD, j)) for j in range(c.opponent_count)]
    else:
        targets = []  # bystanders without the flag: noop and moves only
    moves = [Action(k, d, None) for k, d in MOVE_DELTAS.items()]
    attacks = [Action(f"attack_{name}_{t.index}", None, t) for name, t in targets]
    return (Action("noop", None, None), *moves, *attacks)


class SkirmishEnv(Environment):
    """Configured skirmish instance; all episode state lives in
    SkirmishState values. Positions and health in observations are scaled
    to [0, 1]; a slot sees a live unit within `sensing_radius` (Chebyshev).
    Masks, the step and the scripted opponents all read the per-party action
    tables, whose labels are the descriptor's `action_labels`."""

    SELF_FEATURES = ("self_x", "self_y", "self_health")
    SLOT_FEATURES = ("dx", "dy", "health")
    FAILURE_PATHS = (
        FailurePathDescriptor(0, "victim_damage", "health lost by the victim party this step, as a fraction of its total starting health"),
        FailurePathDescriptor(1, "task_delay", "1/horizon for every step any opponent is still standing"),
    )

    def __init__(self, config: SkirmishConfig):
        self._actions = {p: _action_table(config, p) for p in Party}
        # the scripted opponents pick their action by move delta or target
        self._opponent_action = {a.move or a.target: i for i, a in enumerate(self._actions[Party.THIRD])}
        labels = {p: tuple(a.label for a in table) for p, table in self._actions.items()}
        super().__init__("skirmish", config, config.opponent_count, labels)

    def action_index(self, party: Party, label: str) -> int:
        return self.descriptor.action_labels[party].index(label)

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

    def _lookup(self, state: SkirmishState):
        return state.unit

    def _own_features(self, me: Unit) -> tuple[float, ...] | None:
        if not me.alive:
            return None
        c = self.config
        w, h = c.grid_size
        return (me.x / max(w - 1, 1), me.y / max(h - 1, 1), me.health / c.unit_health)

    def _sees(self, me: Unit, other: Unit) -> tuple[float, ...] | None:
        r = self.config.sensing_radius
        if not other.alive or _chebyshev(me, other) > r:
            return None
        return ((other.x - me.x) / r, (other.y - me.y) / r, other.health / self.config.unit_health)

    def available_actions(self, state: SkirmishState, agent: AgentId) -> np.ndarray:
        c = self.config
        w, h = c.grid_size
        table = self._actions[agent.party]
        me = state.unit(agent)
        if not me.alive:
            return np.arange(len(table)) == 0  # noop only
        mask = []
        for _, move, target in table:
            if move is not None:
                mask.append(0 <= me.x + move[0] < w and 0 <= me.y + move[1] < h)
            elif target is not None:
                other = state.unit(target)
                mask.append(other.alive and _chebyshev(me, other) <= c.attack_range)
            else:
                mask.append(True)  # noop is always legal
        return np.array(mask)

    # --- scripted opponents ---------------------------------------------------

    def _scripted_action(self, state: SkirmishState, agent: AgentId) -> int:
        """Attack the nearest victim when in range, otherwise advance toward
        it (larger-gap axis first, other axis if blocked)."""
        c = self.config
        me = state.unit(agent)
        if not me.alive:
            return 0
        victims = state.alive_units(Party.VICTIM)
        if not victims:
            return 0
        target = min(victims, key=lambda v: (_chebyshev(me, v), v.agent.index))
        if _chebyshev(me, target) <= c.attack_range:
            return self._opponent_action[target.agent]
        occupied = {(u.x, u.y) for u in state.units if u.alive}
        dx, dy = target.x - me.x, target.y - me.y
        step_x = [(1 if dx > 0 else -1, 0)] if dx else []
        step_y = [(0, 1 if dy > 0 else -1)] if dy else []
        prefs = step_x + step_y if abs(dx) >= abs(dy) else step_y + step_x
        w, h = c.grid_size
        for mx, my in prefs:
            nx, ny = me.x + mx, me.y + my
            if 0 <= nx < w and 0 <= ny < h and (nx, ny) not in occupied:
                return self._opponent_action[mx, my]
        return 0

    # --- step ----------------------------------------------------------------

    def _resolve(
        self, state: SkirmishState, actions: Mapping[AgentId, int]
    ) -> tuple[SkirmishState, StepOutcome, StepEvents]:
        c = self.config
        w, h = c.grid_size
        units = {u.agent: u for u in state.units}
        occupied_at_start = {(u.x, u.y) for u in state.units if u.alive}

        # 1. movement
        claims: dict[tuple[int, int], list[AgentId]] = {}
        for agent, a in actions.items():
            u = units[agent]
            if not u.alive:
                continue
            move = self._actions[agent.party][a].move
            if move is not None:
                tgt = (u.x + move[0], u.y + move[1])
                if 0 <= tgt[0] < w and 0 <= tgt[1] < h and tgt not in occupied_at_start:
                    claims.setdefault(tgt, []).append(agent)
        for tgt, claimants in claims.items():
            winner = min(claimants)
            units[winner] = replace(units[winner], x=tgt[0], y=tgt[1])

        # 2. attacks (post-movement range check)
        damage: dict[AgentId, int] = {}
        attacks = []
        for agent, a in actions.items():
            u = units[agent]
            if not u.alive:
                continue
            target_id = self._actions[agent.party][a].target
            if target_id is None:
                continue
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
        return nxt, self._outcome(state, nxt), StepEvents(attacks=tuple(attacks), collisions=())

    def _terminal(self, state: SkirmishState) -> bool:
        return (
            state.step_count >= self.config.horizon
            or not state.alive_units(Party.THIRD)
            or not state.alive_units(Party.VICTIM)
        )

    def _outcome(self, prev: SkirmishState, nxt: SkirmishState) -> StepOutcome:
        c = self.config
        opponents_alive = bool(nxt.alive_units(Party.THIRD))
        terminal = self._terminal(nxt)
        success = terminal and not opponents_alive and bool(nxt.alive_units(Party.VICTIM))
        damage_frac = (
            prev.party_health(Party.VICTIM) - nxt.party_health(Party.VICTIM)
        ) / (c.victim_count * c.unit_health)
        delay = 1.0 / c.horizon if opponents_alive else 0.0
        return StepOutcome(
            terminal=terminal,
            victim_success=success,
            victim_failed=terminal and not success,
            failure_signals=np.array([damage_frac, delay]),
        )

    def victim_task_reward(self, prev: SkirmishState, nxt: SkirmishState, outcome: StepOutcome) -> float:
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
