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

`stacked_views` computes the views of K states on numpy unit columns, from
index tables built once per env out of the base slot layout and the decoded
action tables; `observe_party` and `masks_party` stay its per-state
reference. A step stays per state: it resolves one state's moves and
attacks in Python, and the step each caller makes is one `Environment.step`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..core import AgentId, ConfigError, Party, StepOutcome
from .base import Environment, FailurePathDescriptor, State, StepEvents, check_failure_weights

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
        if len(self.grid_size) != 2 or not all(isinstance(n, int) for n in self.grid_size):
            raise ConfigError(f"grid_size {self.grid_size!r} is not two ints, width x height")
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
        # a sensing radius below 1 would see no unit
        for name in ("unit_health", "attack_range", "attack_damage", "horizon", "sensing_radius"):
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


class SkirmishState(State):
    """A skirmish state; its units are `Unit`s."""


class _ColumnTable(NamedTuple):
    """One party's index arrays for stacked_views, built once per env."""

    observers: np.ndarray  # (n,) unit position of each agent
    slot_observers: np.ndarray  # (S,) per slot block: its observer's unit position
    slot_units: np.ndarray  # (S,) the unit position it shows
    slot_cells: np.ndarray  # (S, 1 + slot features) its cells in the flattened (n * obs_dim) row
    moves: np.ndarray  # action ids of the moves
    move_deltas: np.ndarray  # (moves, 2) their (dx, dy)
    targets: np.ndarray  # action ids of the attacks
    target_units: np.ndarray  # the unit position each attack targets


def _chebyshev(a: Unit, b: Unit) -> int:
    return max(abs(a.x - b.x), abs(a.y - b.y))


def _any_alive(units: tuple[Unit, ...]) -> bool:
    # a loop that stops at the first live unit beats any() over a generator
    for u in units:
        if u.health > 0:
            return True
    return False


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
        labels = {p: tuple(a.label for a in table) for p, table in self._actions.items()}
        super().__init__("skirmish", config, config.opponent_count, labels)
        # each party's table decoded once: (move delta, target unit position)
        self._decoded = {
            p: tuple((a.move, None if a.target is None else self.unit_slots[a.target]) for a in table)
            for p, table in self._actions.items()
        }
        self._unit_tables = [self._decoded[agent.party] for agent in self.unit_slots]
        # the scripted opponents pick their action by move delta or target position
        self._opponent_action = {move or target: i for i, (move, target) in enumerate(self._decoded[Party.THIRD])}
        self._noop_rows = {p: [True] + [False] * (len(table) - 1) for p, table in self._actions.items()}
        w, h = config.grid_size
        self._scale = (max(w - 1, 1), max(h - 1, 1))
        self._columns = {p: self._column_table(p) for p in Party}

    def _column_table(self, party: Party) -> _ColumnTable:
        """The index arrays stacked_views reads for `party`, from the base
        slot layout `_views` and the decoded action table."""
        views = self._views[party]
        dim = self._obs_dim[party]
        n_seen = 1 + len(self.SLOT_FEATURES)
        # one entry per slot block: observer row, the block's offset in the
        # party's flattened (n * dim) observations, the unit it shows
        entries = np.array(
            [(row, row * dim + i, j) for row, (_, slots) in enumerate(views) for i, j in slots], dtype=np.intp
        ).reshape(-1, 3)
        observers = np.array([k for k, _ in views], dtype=np.intp)
        table = self._decoded[party]
        moves = [(a, move) for a, (move, _) in enumerate(table) if move is not None]
        targets = [(a, target) for a, (_, target) in enumerate(table) if target is not None]
        return _ColumnTable(
            observers=observers,
            slot_observers=observers[entries[:, 0]],
            slot_units=entries[:, 2],
            slot_cells=entries[:, 1, None] + np.arange(n_seen),
            moves=np.array([a for a, _ in moves], dtype=np.intp),
            move_deltas=np.array([move for _, move in moves], dtype=np.int64).reshape(-1, 2),
            targets=np.array([a for a, _ in targets], dtype=np.intp),
            target_units=np.array([t for _, t in targets], dtype=np.intp),
        )

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
        return SkirmishState(units=tuple(units), step_count=0, seed=seed, slots=self.unit_slots)

    def positions(self, state: SkirmishState) -> dict[AgentId, tuple]:
        return {u.agent: (u.x, u.y) for u in state.units if u.alive}

    # --- observation / masks ------------------------------------------------

    def _own_features(self, me: Unit) -> tuple[float, ...] | None:
        if me.health <= 0:
            return None
        sx, sy = self._scale
        return (me.x / sx, me.y / sy, me.health / self.config.unit_health)

    def _sees(self, me: Unit, other: Unit) -> tuple[float, ...] | None:
        r = self.config.sensing_radius
        dx, dy = other.x - me.x, other.y - me.y
        if other.health <= 0 or dx > r or -dx > r or dy > r or -dy > r:
            return None
        return (dx / r, dy / r, other.health / self.config.unit_health)

    def _mask_rows(self, state: SkirmishState, party: Party) -> list[bool]:
        c = self.config
        w, h = c.grid_size
        reach = c.attack_range
        units = state.units
        table = self._decoded[party]
        rows: list[bool] = []
        for me in units[self._span[party]]:
            if me.health <= 0:
                rows += self._noop_rows[party]
                continue
            x, y = me.x, me.y
            for move, target in table:
                if move is not None:
                    rows.append(0 <= x + move[0] < w and 0 <= y + move[1] < h)
                elif target is not None:
                    other = units[target]
                    rows.append(other.health > 0 and max(abs(other.x - x), abs(other.y - y)) <= reach)
                else:
                    rows.append(True)  # noop is always legal
        return rows

    def stacked_views(self, states, parties):
        """The base contract, computed on unit columns: x, y and health of
        every unit of every state, gathered once as (K, U) int arrays, then
        each party's features and masks from its index table. numpy's int
        true division rounds as Python's does, so the floats are the
        per-state ones bit for bit."""
        c = self.config
        w, h = c.grid_size
        sx, sy = self._scale
        r, hp, reach = c.sensing_radius, c.unit_health, c.attack_range
        cols = np.array([(u.x, u.y, u.health) for s in states for u in s.units]).reshape(len(states), -1, 3)
        x, y, health = cols[..., 0], cols[..., 1], cols[..., 2]
        alive = health > 0
        views = {}
        for party in parties:
            t = self._columns[party]
            n, dim = len(t.observers), self._obs_dim[party]
            me_x, me_y, me_alive = x[:, t.observers], y[:, t.observers], alive[:, t.observers]

            obs = np.zeros((len(states), n, dim))
            own = np.stack([me_x / sx, me_y / sy, health[:, t.observers] / hp], axis=-1)
            obs[..., : len(self.SELF_FEATURES)] = np.where(me_alive[..., None], own, 0.0)
            dx = x[:, t.slot_units] - x[:, t.slot_observers]
            dy = y[:, t.slot_units] - y[:, t.slot_observers]
            seen = alive[:, t.slot_observers] & alive[:, t.slot_units] & (np.abs(dx) <= r) & (np.abs(dy) <= r)
            blocks = np.stack([np.ones(dx.shape), dx / r, dy / r, health[:, t.slot_units] / hp], axis=-1)
            obs.reshape(len(states), n * dim)[:, t.slot_cells] = np.where(seen[..., None], blocks, 0.0)

            masks = np.zeros((len(states), n, self._n_actions[party]), dtype=bool)
            masks[..., 0] = True  # noop, first in every table, is always legal
            to_x = me_x[..., None] + t.move_deltas[:, 0]
            to_y = me_y[..., None] + t.move_deltas[:, 1]
            masks[..., t.moves] = me_alive[..., None] & (0 <= to_x) & (to_x < w) & (0 <= to_y) & (to_y < h)
            gap = np.maximum(
                np.abs(x[:, None, t.target_units] - me_x[..., None]), np.abs(y[:, None, t.target_units] - me_y[..., None])
            )
            masks[..., t.targets] = me_alive[..., None] & alive[:, None, t.target_units] & (gap <= reach)
            views[party] = (obs, masks)
        return views

    # --- scripted opponents ---------------------------------------------------

    def _occupied(self, state: SkirmishState) -> set[tuple[int, int]]:
        return {(u.x, u.y) for u in state.units if u.health > 0}

    def _scripted_action(self, state: SkirmishState, k: int, occupied: set[tuple[int, int]]) -> int:
        """Attack the nearest victim when in range, otherwise advance toward
        it (larger-gap axis first, other axis if blocked)."""
        c = self.config
        units = state.units
        me = units[k]
        if me.health <= 0:
            return 0
        span = self._span[Party.VICTIM]
        victims = [j for j in range(span.start, span.stop) if units[j].health > 0]
        if not victims:
            return 0
        # min keeps the first, so the lowest index among the nearest
        target = min(victims, key=lambda j: _chebyshev(me, units[j]))
        if _chebyshev(me, units[target]) <= c.attack_range:
            return self._opponent_action[target]
        dx, dy = units[target].x - me.x, units[target].y - me.y
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
        self, state: SkirmishState, actions: list[int], occupied_at_start: set[tuple[int, int]]
    ) -> tuple[SkirmishState, StepOutcome, StepEvents]:
        c = self.config
        w, h = c.grid_size
        units = list(state.units)
        chosen = [table[a] for table, a in zip(self._unit_tables, actions)]

        # 1. movement; claimants are unit positions, so the lowest is the
        # lowest AgentId
        claims: dict[tuple[int, int], list[int]] = {}
        for k, (u, (move, _)) in enumerate(zip(units, chosen)):
            if move is not None and u.health > 0:
                tgt = (u.x + move[0], u.y + move[1])
                if 0 <= tgt[0] < w and 0 <= tgt[1] < h and tgt not in occupied_at_start:
                    claims.setdefault(tgt, []).append(k)
        for (x, y), claimants in claims.items():
            k = min(claimants)
            u = units[k]
            units[k] = Unit(u.agent, x, y, u.health)

        # 2. attacks (post-movement range check)
        damage: dict[int, int] = {}
        attacks = []
        for u, (_, k) in zip(units, chosen):
            if k is None or u.health <= 0:
                continue
            if units[k].health > 0 and _chebyshev(u, units[k]) <= c.attack_range:
                damage[k] = damage.get(k, 0) + c.attack_damage
                attacks.append((u.agent, units[k].agent, c.attack_damage))

        # 3. deaths; the victims' health lost is the damage signal
        victims = self._span[Party.VICTIM]
        victim_loss = 0
        for k, dmg in damage.items():
            u = units[k]
            health = max(u.health - dmg, 0)
            if victims.start <= k < victims.stop:
                victim_loss += u.health - health
            units[k] = Unit(u.agent, u.x, u.y, health)

        nxt = SkirmishState(units=tuple(units), step_count=state.step_count + 1, seed=state.seed, slots=self.unit_slots)
        return nxt, self._outcome(nxt, victim_loss), StepEvents(attacks=tuple(attacks), collisions=())

    def _survivors(self, state: SkirmishState) -> tuple[bool, bool]:
        """Whether any victim and whether any opponent is alive."""
        units = state.units
        return _any_alive(units[self._span[Party.VICTIM]]), _any_alive(units[self._span[Party.THIRD]])

    def _terminal(self, state: SkirmishState) -> bool:
        victims_alive, opponents_alive = self._survivors(state)
        return state.step_count >= self.config.horizon or not opponents_alive or not victims_alive

    def _outcome(self, nxt: SkirmishState, victim_loss: int) -> StepOutcome:
        """victim_loss: the victims' health lost this step."""
        c = self.config
        victims_alive, opponents_alive = self._survivors(nxt)
        terminal = nxt.step_count >= c.horizon or not opponents_alive or not victims_alive
        success = terminal and not opponents_alive and victims_alive
        damage_frac = victim_loss / (c.victim_count * c.unit_health)
        delay = 1.0 / c.horizon if opponents_alive else 0.0
        return StepOutcome(
            terminal=terminal,
            victim_success=success,
            failure_signals=np.array([damage_frac, delay]),
        )

    def victim_task_reward(self, prev: SkirmishState, nxt: SkirmishState, outcome: StepOutcome) -> float:
        c = self.config
        opponents = self._span[Party.THIRD]
        dealt = sum(u.health for u in prev.units[opponents]) - sum(u.health for u in nxt.units[opponents])
        reward = dealt / (c.opponent_count * c.unit_health)
        if outcome.victim_success:
            reward += 1.0
        return reward
