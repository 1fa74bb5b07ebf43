"""Accessors that only the tests read, kept out of the package."""

from bystander.core import Party
from bystander.envs import CorridorState, SkirmishState, Unit, Vehicle


def action_index(env, party: Party, label: str) -> int:
    """The id of the action named `label` in `party`'s action table."""
    return env.descriptor.action_labels[party].index(label)


def controllable_agents(env) -> tuple:
    """Every agent a controller drives: the victims, then the bystanders."""
    return env.agents(Party.VICTIM) + env.agents(Party.ADVERSARY)


def party_health(state, party: Party) -> int:
    """The summed health of `party`'s units in a skirmish state."""
    return sum(u.health for u in state.units if u.agent.party is party)


def state_from_positions(env, positions, healths=None, step_count=0) -> SkirmishState:
    """An arbitrary mid-episode skirmish state from {agent: (x, y)}; agents
    omitted from `positions` are treated as already dead."""
    units = []
    for party in Party:
        for agent in env.agents(party):
            if agent in positions:
                x, y = positions[agent]
                hp = (healths or {}).get(agent, env.config.unit_health)
            else:
                x, y, hp = 0, 0, 0
            units.append(Unit(agent, x, y, hp))
    return SkirmishState(units=tuple(units), step_count=step_count, seed=-1, slots=env.unit_slots)


def state_from_vehicles(env, spec, step_count=0) -> CorridorState:
    """A corridor state from {agent: (lane, col, speed)}; agents omitted from
    `spec` are treated as already exited."""
    vehicles = []
    for party in Party:
        for agent in env.agents(party):
            if agent in spec:
                lane, col, speed = spec[agent]
                vehicles.append(Vehicle(agent, lane, col, speed))
            else:
                vehicles.append(Vehicle(agent, 0, env.config.goal_col, 0, exited=True))
    return CorridorState(units=tuple(vehicles), step_count=step_count, seed=-1, slots=env.unit_slots)
