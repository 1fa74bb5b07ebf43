"""Accessors that only the tests read, kept out of the package."""

from bystander.core import Party


def action_index(env, party: Party, label: str) -> int:
    """The id of the action named `label` in `party`'s action table."""
    return env.descriptor.action_labels[party].index(label)


def controllable_agents(env) -> tuple:
    """Every agent a controller drives: the victims, then the bystanders."""
    return env.agents(Party.VICTIM) + env.agents(Party.ADVERSARY)


def party_health(state, party: Party) -> int:
    """The summed health of `party`'s units in a skirmish state."""
    return sum(u.health for u in state.units if u.agent.party is party)
