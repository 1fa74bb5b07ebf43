"""Lane-driving environment: victim vehicles must exit the far end of a
multi-lane corridor among scripted constant-speed traffic and neutral
bystander vehicles.

Resolution order per step:
  1. maneuvers — speed changes apply immediately; a lane change needs the
     target cell empty at tick start, conflicts go to the lowest AgentId and
     losers are canceled (canceled victim maneuvers count as rule
     violations).
  2. forward movement — per lane, front vehicle first; a vehicle sweeps one
     cell at a time up to its speed. A victim entering an occupied cell
     collides (episode failure); scripted traffic collides only with victims
     and stops behind anything else; bystanders always stop short (they can
     never initiate contact). Reaching the final column exits the road.
  3. outcome — any victim collision fails the episode; all victims exited is
     success; otherwise the horizon ends the episode as a failure.

Bystanders attack only through traffic: slowing down in front of victims,
walling lanes, forcing stops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ..core import AgentId, ConfigError, Party, StepOutcome
from .base import Environment, FailurePathDescriptor, StepEvents, check_failure_weights

# every party's action table: (label, speed delta, lane delta)
ACTIONS = (("keep", 0, 0), ("faster", 1, 0), ("slower", -1, 0), ("lane_up", 0, 1), ("lane_down", 0, -1))


@dataclass(frozen=True)
class CorridorConfig:
    lanes: int = 2
    length: int = 10
    victim_count: int = 1
    adversary_count: int = 2
    other_vehicle_count: int = 2
    horizon: int = 40
    speed_levels: int = 3
    sensing_cols: int = 2
    adversary_slots: int = 3
    failure_weights: tuple[float, ...] = (0.5, 0.3, 0.2)

    def __post_init__(self) -> None:
        if self.lanes < 1 or self.length < 6:
            raise ConfigError("corridor needs lanes >= 1 and length >= 6")
        if self.victim_count < 1:
            raise ConfigError("victim_count must be >= 1")
        if self.victim_count > self.lanes:
            raise ConfigError("victims all start at column 0: victim_count <= lanes")
        if self.adversary_count < 0 or self.other_vehicle_count < 0:
            raise ConfigError("vehicle counts must be >= 0")
        if self.adversary_count > self.adversary_slots:
            raise ConfigError("adversary_count exceeds adversary_slots")
        total = self.victim_count + self.adversary_count + self.other_vehicle_count
        if total > self.lanes * self.length:
            raise ConfigError("total vehicles exceed road capacity")
        if self.horizon < 1 or self.speed_levels < 2:
            raise ConfigError("horizon >= 1 and speed_levels >= 2 required")
        if self.sensing_cols < 1:
            raise ConfigError("sensing_cols must be >= 1")
        if self.adversary_count + self.other_vehicle_count > self.lanes * (self.length - 4):
            raise ConfigError("mid-road spawn zone cannot fit adversaries plus traffic")
        check_failure_weights(self.failure_weights, 3, "corridor")

    @property
    def goal_col(self) -> int:
        return self.length - 1


@dataclass(frozen=True)
class Vehicle:
    agent: AgentId
    lane: int
    col: int
    speed: int
    crashed: bool = False
    exited: bool = False

    @property
    def on_road(self) -> bool:
        return not self.crashed and not self.exited


@dataclass(frozen=True)
class CorridorState:
    """Vehicles in sorted agent order; `slots` is the env's `unit_slots`."""

    vehicles: tuple[Vehicle, ...]
    step_count: int
    seed: int
    slots: Mapping[AgentId, int] = field(compare=False, repr=False)

    def vehicle(self, agent: AgentId) -> Vehicle:
        try:
            return self.vehicles[self.slots[agent]]
        except KeyError:
            raise KeyError(f"unknown agent {agent.key}") from None


class CorridorEnv(Environment):
    """Configured corridor instance; all episode state lives in
    CorridorState values. Observations scale lane, column and speed to
    [0, 1]; a slot sees a vehicle on the road within `sensing_cols`
    columns."""

    SELF_FEATURES = ("self_lane", "self_col", "self_speed", "self_on_road")
    SLOT_FEATURES = ("dlane", "dcol", "speed")
    FAILURE_PATHS = (
        FailurePathDescriptor(0, "collision", "1 when a victim vehicle collided this step"),
        FailurePathDescriptor(1, "timeout", "1/horizon per step, scaled by the fraction of victims not yet at the goal"),
        FailurePathDescriptor(2, "rule_violation", "1 per victim stopped on the road or forced to abort a maneuver this step"),
    )

    def __init__(self, config: CorridorConfig):
        labels = tuple(label for label, _, _ in ACTIONS)
        super().__init__("corridor", config, config.other_vehicle_count, {p: labels for p in Party})
        self._keep_row = [True] + [False] * (len(ACTIONS) - 1)

    def reset(self, seed: int) -> CorridorState:
        c = self.config
        rng = np.random.default_rng(seed)
        vehicles = []
        lanes = rng.permutation(c.lanes)
        for i, agent in enumerate(self._agents[Party.VICTIM]):
            vehicles.append(Vehicle(agent, int(lanes[i]), 0, 1))
        mid = [
            (lane, col)
            for lane in range(c.lanes)
            for col in range(2, c.length - 2)
        ]
        n_mid = c.adversary_count + c.other_vehicle_count
        if n_mid:
            picks = rng.choice(len(mid), size=n_mid, replace=False)
            order = list(self._agents[Party.ADVERSARY]) + list(self._agents[Party.THIRD])
            for agent, pick in zip(order, picks):
                lane, col = mid[int(pick)]
                vehicles.append(Vehicle(agent, lane, col, 1))
        vehicles.sort(key=lambda v: v.agent)
        return CorridorState(vehicles=tuple(vehicles), step_count=0, seed=seed, slots=self.unit_slots)

    def positions(self, state: CorridorState) -> dict[AgentId, tuple]:
        return {v.agent: (v.lane, v.col) for v in state.vehicles if v.on_road}

    def _units(self, state: CorridorState) -> tuple[Vehicle, ...]:
        return state.vehicles

    def _own_features(self, me: Vehicle) -> tuple[float, ...] | None:
        if not me.on_road:
            return None
        c = self.config
        return (me.lane / max(c.lanes - 1, 1), me.col / c.goal_col, me.speed / (c.speed_levels - 1), 1.0)

    def _sees(self, me: Vehicle, other: Vehicle) -> tuple[float, ...] | None:
        c = self.config
        if not other.on_road or abs(other.col - me.col) > c.sensing_cols:
            return None
        return (
            (other.lane - me.lane) / max(c.lanes - 1, 1),
            (other.col - me.col) / c.sensing_cols,
            other.speed / (c.speed_levels - 1),
        )

    def _mask_rows(self, state: CorridorState, party: Party) -> list[bool]:
        c = self.config
        # a lane change never targets the mover's own cell
        occupied = self._occupied(state)
        rows: list[bool] = []
        for me in state.vehicles[self._span[party]]:
            if not me.on_road:
                rows += self._keep_row
                continue
            for _, speed, lane in ACTIONS:
                if speed:
                    rows.append(0 <= me.speed + speed < c.speed_levels)
                elif lane:
                    rows.append(0 <= me.lane + lane < c.lanes and (me.lane + lane, me.col) not in occupied)
                else:
                    rows.append(True)  # keep is always legal
        return rows

    # --- step ------------------------------------------------------------

    def _occupied(self, state: CorridorState) -> set[tuple[int, int]]:
        return {(v.lane, v.col) for v in state.vehicles if v.on_road}

    def _scripted_action(self, state: CorridorState, k: int, occupied: set[tuple[int, int]]) -> int:
        return 0  # scripted traffic keeps lane and speed

    def _resolve(
        self, state: CorridorState, actions: list[int], occupied_at_start: set[tuple[int, int]]
    ) -> tuple[CorridorState, StepOutcome, StepEvents]:
        goal = self.config.goal_col
        vehicles = list(state.vehicles)
        # no maneuver takes a vehicle off the road
        on_road = [k for k, v in enumerate(vehicles) if v.on_road]
        canceled_victims = 0

        # 1. maneuvers; claimants are unit positions, appended in unit order,
        # so the first is the lowest AgentId
        lane_claims: dict[tuple[int, int], list[int]] = {}
        for k in on_road:
            v = vehicles[k]
            _, speed, lane = ACTIONS[actions[k]]
            if speed:
                vehicles[k] = Vehicle(v.agent, v.lane, v.col, v.speed + speed)
            elif lane:
                lane_claims.setdefault((v.lane + lane, v.col), []).append(k)
        for tgt, claimants in lane_claims.items():
            winner = claimants[0] if tgt not in occupied_at_start else None
            for k in claimants:
                if k == winner:
                    v = vehicles[k]
                    vehicles[k] = Vehicle(v.agent, tgt[0], v.col, v.speed)
                elif vehicles[k].agent.party is Party.VICTIM:
                    canceled_victims += 1

        # 2. forward movement, front vehicle first
        collisions: list[tuple[AgentId, AgentId]] = []
        occupancy = {(vehicles[k].lane, vehicles[k].col): k for k in on_road}
        order = sorted(on_road, key=lambda k: (-vehicles[k].col, k))
        for k in order:
            v = vehicles[k]
            party = v.agent.party
            del occupancy[(v.lane, v.col)]
            col = v.col
            hit: int | None = None
            for _ in range(v.speed):
                blocker = occupancy.get((v.lane, col + 1))
                if blocker is None:
                    col += 1
                    if col >= goal:
                        break
                    continue
                obstacle = vehicles[blocker].agent
                if party is Party.VICTIM or (party is Party.THIRD and obstacle.party is Party.VICTIM):
                    # a real collision: the victim is involved either way
                    collisions.append((v.agent, obstacle))
                    hit = blocker
                    col += 1
                # bystanders and blocked traffic stop short of the obstacle
                break
            if hit is not None:
                vehicles[k] = Vehicle(v.agent, v.lane, col, v.speed, crashed=True)
                j = k if party is Party.VICTIM else hit
                victim = vehicles[j]
                if not victim.crashed:
                    vehicles[j] = Vehicle(victim.agent, victim.lane, victim.col, victim.speed, crashed=True)
            elif col >= goal:
                vehicles[k] = Vehicle(v.agent, v.lane, goal, v.speed, exited=True)
            else:
                if col != v.col:
                    vehicles[k] = Vehicle(v.agent, v.lane, col, v.speed)
                occupancy[(v.lane, col)] = k

        nxt = CorridorState(
            vehicles=tuple(vehicles), step_count=state.step_count + 1, seed=state.seed, slots=self.unit_slots
        )
        return nxt, self._outcome(nxt, canceled_victims), StepEvents(attacks=(), collisions=tuple(collisions))

    def _terminal(self, state: CorridorState) -> bool:
        victims = state.vehicles[self._span[Party.VICTIM]]
        return (
            state.step_count >= self.config.horizon
            or any(v.crashed for v in victims)
            or all(v.exited for v in victims)
        )

    def _outcome(self, nxt: CorridorState, canceled_victims: int) -> StepOutcome:
        """canceled_victims: how many victims' lane changes were canceled
        this step."""
        c = self.config
        crashed = exited = stalled = 0
        for v in nxt.vehicles[self._span[Party.VICTIM]]:
            crashed += v.crashed
            exited += v.exited
            stalled += v.on_road and v.speed == 0
        terminal = nxt.step_count >= c.horizon or crashed > 0 or exited == c.victim_count
        success = terminal and not crashed and exited == c.victim_count
        collision = 1.0 if crashed else 0.0
        not_done = c.victim_count - exited
        timeout = (1.0 / c.horizon) * not_done / c.victim_count
        stalls = float(stalled) + canceled_victims
        return StepOutcome(
            terminal=terminal,
            victim_success=success,
            failure_signals=np.array([collision, timeout, stalls]),
        )

    def victim_task_reward(self, prev: CorridorState, nxt: CorridorState, outcome: StepOutcome) -> float:
        c = self.config
        victims = self._span[Party.VICTIM]
        progress = 0.0
        for a, b in zip(prev.vehicles[victims], nxt.vehicles[victims]):
            progress += (b.col - a.col) / c.goal_col
        reward = progress / c.victim_count
        if outcome.victim_success:
            reward += 1.0
        if any(v.crashed for v in nxt.vehicles[victims]):
            reward -= 1.0
        return reward
