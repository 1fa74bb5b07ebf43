"""The environment contract, checked once over both built-in environments,
and a digest of seeded random play that pins their outputs bit for bit."""

import hashlib

import numpy as np
import pytest

from bystander.core import AgentId, ContractViolation, LifecycleError, Party
from bystander.envs import PRESETS, CorridorConfig, SkirmishConfig, make_env
from bystander.rollout import RandomController, run_episode
from bystander.training import victim_task_reward

PARTIES = (Party.VICTIM, Party.ADVERSARY)
ENV_NAMES = ("skirmish-small", "corridor-med")


def random_controllers(seed):
    rng = np.random.default_rng(seed)
    return {p: RandomController(rng) for p in PARTIES}


@pytest.fixture(params=ENV_NAMES)
def env(request):
    return make_env(PRESETS[request.param])


def terminal_state(env):
    """A state no step may follow: one victim alone, already beaten."""
    if isinstance(env.config, SkirmishConfig):
        one = make_env(SkirmishConfig(victim_count=1, opponent_count=1, adversary_count=0))
        return one, one.state_from_positions({AgentId(Party.THIRD, 0): (4, 2)})
    one = make_env(CorridorConfig(victim_count=1, adversary_count=0, other_vehicle_count=0))
    return one, one.state_from_vehicles({})  # the victim has exited


def test_unavailable_action_is_refused(env):
    state = env.reset(0)
    for party in PARTIES:
        agent = env.agents(party)[0]
        mask = env.available_actions(state, agent)
        for bad in (*np.flatnonzero(~mask).tolist(), mask.size, -1):
            actions = np.zeros(len(env.agents(party)), dtype=int)
            actions[0] = bad
            with pytest.raises(ContractViolation, match=f"agent {agent.key} chose unavailable action {bad}"):
                env.step(state, {party: actions})


def test_stepping_a_terminal_state_is_refused(env):
    one, state = terminal_state(env)
    with pytest.raises(LifecycleError):
        one.step(state, {})


def test_missing_party_plays_noop(env):
    state = env.reset(1)
    rng = np.random.default_rng(1)
    moves = [int(rng.choice(np.flatnonzero(m[1:]))) + 1 for m in env.masks_party(state, Party.VICTIM)]
    partial = {Party.VICTIM: np.array(moves)}
    nxt, outcome = env.step(state, partial)
    noops = np.zeros(len(env.agents(Party.ADVERSARY)), dtype=int)
    noop_nxt, noop_outcome = env.step(state, {**partial, Party.ADVERSARY: noops})
    assert nxt == noop_nxt
    np.testing.assert_array_equal(outcome.failure_signals, noop_outcome.failure_signals)
    # the victims' non-noop actions were read: all-noop play differs
    assert nxt != env.step(state, {})[0]


def test_a_joint_action_of_another_form_is_refused(env):
    state = env.reset(0)
    n = len(env.agents(Party.VICTIM))
    for joint in (
        {env.agents(Party.VICTIM)[0]: 0},  # keyed by agent
        {Party.THIRD: np.zeros(len(env.agents(Party.THIRD)), dtype=int)},
        {Party.VICTIM: np.zeros(n - 1, dtype=int)},
        {Party.VICTIM: np.zeros(n + 1, dtype=int)},
    ):
        with pytest.raises(ContractViolation):
            env.step(state, joint)


def test_observation_width_matches_labels(env):
    d = env.descriptor
    for seed in range(3):
        state = env.reset(seed)
        for party in Party:
            assert len(d.obs_labels[party]) == d.obs_dim(party)
            for agent in env.agents(party):
                assert env.observe(state, agent).shape == (d.obs_dim(party),)
            assert env.observe_party(state, party).shape == (len(env.agents(party)), d.obs_dim(party))


def test_unknown_agent_raises_key_error(env):
    state = env.reset(0)
    stranger = AgentId(Party.VICTIM, 9)
    with pytest.raises(KeyError):
        env.observe(state, stranger)
    with pytest.raises(KeyError):
        env.available_actions(state, stranger)


def random_play_digest(episodes: int) -> str:
    h = hashlib.sha256()
    for name in sorted(PRESETS):
        env = make_env(PRESETS[name])
        for seed in range(episodes):
            traj = run_episode(env, random_controllers(seed), seed, victim_task_reward).trajectory
            for p in sorted(traj.obs, key=lambda p: p.label):
                for arrays in (traj.obs, traj.avail, traj.actions):
                    h.update(np.ascontiguousarray(arrays[p], dtype=np.float64).tobytes())
            h.update(traj.rewards.tobytes())
            for out in traj.outcomes:
                h.update(bytes([out.terminal, out.victim_success, out.victim_failed]))
                h.update(out.failure_signals.tobytes())
    return h.hexdigest()


def test_random_play_digest_is_pinned():
    assert random_play_digest(20) == "231b16cabd5b9a83aa61ec44c9ffd5871c926bc1f80d70358073e8ee369a9041"
