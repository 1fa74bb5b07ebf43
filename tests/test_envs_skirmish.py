from dataclasses import replace

import numpy as np
import pytest

from bystander.core import AgentId, ConfigError, Party
from bystander.envs import PRESETS, SkirmishConfig, SkirmishEnv, audit_neutrality, make_env
from bystander.rollout import RandomController, run_episode
from helpers import action_index, controllable_agents, party_health, state_from_positions

V0, V1, V2 = (AgentId(Party.VICTIM, i) for i in range(3))
A0, A1 = (AgentId(Party.ADVERSARY, i) for i in range(2))
T0, T1 = (AgentId(Party.THIRD, i) for i in range(2))


@pytest.fixture()
def env():
    return SkirmishEnv(SkirmishConfig())


def test_reset_determinism(env):
    assert env.reset(0) == env.reset(0)
    assert env.reset(0) != env.reset(1)


def test_config_validation():
    with pytest.raises(ConfigError):
        SkirmishConfig(victim_count=0)
    with pytest.raises(ConfigError):
        SkirmishConfig(grid_size=(4, 4))
    with pytest.raises(ConfigError):
        SkirmishConfig(adversary_count=5, adversary_slots=3)
    with pytest.raises(ConfigError):
        SkirmishConfig(victim_count=11, grid_size=(8, 5))


def test_spawn_cells_distinct(env):
    for seed in range(20):
        state = env.reset(seed)
        cells = [(u.x, u.y) for u in state.units]
        assert len(set(cells)) == len(cells)


def test_noop_step_keeps_victim_positions(env):
    # opponents advance on their script, but victims and bystanders hold
    state = env.reset(3)
    ja = {p: np.zeros(len(env.agents(p)), dtype=int) for p in (Party.VICTIM, Party.ADVERSARY)}
    nxt, outcome = env.step(state, ja)
    assert nxt.step_count == 1
    assert not outcome.terminal
    for agent in controllable_agents(env):
        assert (nxt.unit(agent).x, nxt.unit(agent).y) == (state.unit(agent).x, state.unit(agent).y)


def test_duel_hand_simulation():
    """1v1 adjacent duel, equal health/damage, both attacking: the written
    resolution order (simultaneous attacks, deaths afterwards) kills both on
    step ceil(health/damage); no victim survives, so the episode fails."""
    cfg = SkirmishConfig(
        victim_count=1, opponent_count=1, adversary_count=0, unit_health=6, attack_damage=2
    )
    env = SkirmishEnv(cfg)
    v, t = AgentId(Party.VICTIM, 0), AgentId(Party.THIRD, 0)
    state = state_from_positions(env, {v: (3, 2), t: (4, 2)})
    attack = action_index(env, Party.VICTIM, "attack_opponent_0")
    for step in range(1, 4):
        state, outcome = env.step(state, {Party.VICTIM: [attack]})
        assert state.unit(v).health == 6 - 2 * step
        assert state.unit(t).health == 6 - 2 * step
    assert outcome.terminal
    assert not outcome.victim_success  # mutual destruction leaves no victim alive


def test_observe_empty_radius_zero_block():
    cfg = SkirmishConfig(grid_size=(12, 9), victim_count=1, opponent_count=1, adversary_count=0)
    env = SkirmishEnv(cfg)
    v, t = AgentId(Party.VICTIM, 0), AgentId(Party.THIRD, 0)
    state = state_from_positions(env, {v: (0, 0), t: (11, 8)})  # far out of radius
    obs = env.observe(state, v)
    assert np.all(obs[3:] == 0.0)  # all slots zeroed
    assert obs[2] == 1.0  # self health


def test_observe_antisymmetric_offsets(env):
    state = state_from_positions(env, {V0: (3, 2), V1: (4, 2), T0: (7, 0), T1: (7, 4)})
    obs0 = env.observe(state, V0)
    obs1 = env.observe(state, V1)
    # first teammate slot: (present, dx, dy, health)
    assert obs0[3] == 1.0 and obs1[3] == 1.0
    assert obs0[4] == -obs1[4] and obs0[5] == -obs1[5]


def test_observe_visibility_boundary(env):
    r = env.config.sensing_radius
    state = state_from_positions(env, {V0: (0, 2), V1: (r, 2), T0: (7, 0), T1: (7, 4)})
    assert env.observe(state, V0)[3] == 1.0  # exactly at radius: visible
    state = state_from_positions(env, {V0: (0, 2), V1: (r + 1, 2), T0: (7, 0), T1: (7, 4)})
    assert np.all(env.observe(state, V0)[3:7] == 0.0)  # one past: zero slot


def test_dead_unit_gets_only_noop(env):
    state = state_from_positions(
        env,
        {V0: (1, 1), V1: (1, 2), T0: (6, 1), T1: (6, 3)},
        healths={V0: 0},
    )
    mask = env.available_actions(state, V0)
    assert mask[0] and not mask[1:].any()


def test_victim_adjacent_opponent_can_attack(env):
    state = state_from_positions(env, {V0: (5, 1), V1: (0, 0), V2: (0, 4), T0: (6, 1), T1: (7, 4)})
    mask = env.available_actions(state, V0)
    assert mask[action_index(env, Party.VICTIM, "attack_opponent_0")]
    assert not mask[action_index(env, Party.VICTIM, "attack_opponent_1")]  # out of range


def test_adversary_never_attacks_victims():
    """Neutral by construction: a bystander's table holds noop and the four
    moves, the opponent attacks only when the flag is set, and no entry that
    names or targets a victim; the other parties' tables keep their layout."""
    moves = ("noop", "north", "south", "east", "west")
    for name in ("skirmish-small", "skirmish-even", "skirmish-hard"):
        for flag in (False, True):
            cfg = replace(PRESETS[name], adversaries_may_attack_opponents=flag)
            env = SkirmishEnv(cfg)
            labels = env.descriptor.action_labels
            opponents = tuple(f"attack_opponent_{j}" for j in range(cfg.opponent_count))
            assert labels[Party.ADVERSARY] == moves + (opponents if flag else ())
            assert not [label for label in labels[Party.ADVERSARY] if "victim" in label]
            assert all(a.target is None or a.target.party is Party.THIRD for a in env._actions[Party.ADVERSARY])
            assert labels[Party.VICTIM] == moves + opponents
            assert labels[Party.THIRD] == moves + tuple(f"attack_victim_{j}" for j in range(cfg.victim_count))


def test_adversary_opponent_attack_flag():
    cfg = SkirmishConfig(adversaries_may_attack_opponents=True)
    env = SkirmishEnv(cfg)
    state = state_from_positions(
        env,
        {A0: (6, 2), T0: (7, 2), A1: (0, 0), V0: (1, 1), V1: (1, 2), V2: (1, 3), T1: (7, 4)}
    )
    mask = env.available_actions(state, A0)
    assert mask[action_index(env, Party.ADVERSARY, "attack_opponent_0")]


def test_failure_signals_definition(env):
    state = env.reset(5)
    ja = {p: np.zeros(len(env.agents(p)), dtype=int) for p in (Party.VICTIM, Party.ADVERSARY)}
    _, outcome = env.step(state, ja)
    assert np.allclose(outcome.failure_signals, [0.0, 1.0 / env.config.horizon])


def test_victim_damage_signal_arithmetic():
    cfg = SkirmishConfig(unit_health=10, attack_damage=2, victim_count=2, opponent_count=1, horizon=60)
    env = SkirmishEnv(cfg)
    v0, v1, t0 = AgentId(Party.VICTIM, 0), AgentId(Party.VICTIM, 1), AgentId(Party.THIRD, 0)
    state = state_from_positions(env, {v0: (3, 2), v1: (0, 0), t0: (4, 2)})
    nxt, outcome = env.step(state, {Party.VICTIM: [0, 0]})
    # opponent deals 2 of the party's 20 total health
    assert np.allclose(outcome.failure_signals, [0.1, 1.0 / 60.0])


def test_move_conflict_lower_agent_wins(env):
    # V0 and V1 both step into (2, 2); the lower AgentId takes the cell
    state = state_from_positions(
        env,
        {V0: (1, 2), V1: (3, 2), V2: (0, 0), T0: (7, 0), T1: (7, 4)}
    )
    east = action_index(env, Party.VICTIM, "east")
    west = action_index(env, Party.VICTIM, "west")
    nxt, _ = env.step(state, {Party.VICTIM: [east, west, 0]})
    assert (nxt.unit(V0).x, nxt.unit(V0).y) == (2, 2)
    assert (nxt.unit(V1).x, nxt.unit(V1).y) == (3, 2)


def test_blocking_is_conservative(env):
    # moving into a cell that was occupied at tick start is canceled, even
    # if the occupant leaves this tick
    state = state_from_positions(
        env,
        {V0: (1, 2), V1: (2, 2), V2: (0, 0), T0: (7, 0), T1: (7, 4)}
    )
    east = action_index(env, Party.VICTIM, "east")
    nxt, _ = env.step(state, {Party.VICTIM: [east, east, 0]})
    assert (nxt.unit(V1).x) == 3  # occupant moved on
    assert (nxt.unit(V0).x) == 1  # follower blocked by the stale cell


def _random_episode(env, seed):
    rng = np.random.default_rng(seed)
    controllers = {
        Party.VICTIM: RandomController(rng),
        Party.ADVERSARY: RandomController(rng),
    }
    return run_episode(env, controllers, seed)


def test_neutrality_audit_over_random_play(env):
    for seed in range(25):
        result = _random_episode(env, seed)
        audit_neutrality(env, result.trajectory)


def test_conservation_and_boundedness(env):
    cfg = env.config
    for seed in range(25):
        result = _random_episode(env, seed)
        assert len(result.trajectory) <= cfg.horizon
        assert result.trajectory.outcomes[-1].terminal
        prev_health = cfg.victim_count * cfg.unit_health
        state = env.reset(seed)
        for t in range(len(result.trajectory)):
            state, outcome = env.step(state, result.trajectory.joint_action(t))
            health = party_health(state, Party.VICTIM)
            assert health <= prev_health  # non-increasing
            lost = prev_health - health
            dealt = outcome.failure_signals[0] * cfg.victim_count * cfg.unit_health
            assert abs(lost - dealt) < 1e-9
            prev_health = health


def test_signal_nonnegativity_random_play(env):
    for seed in range(10):
        result = _random_episode(env, seed)
        for out in result.trajectory.outcomes:
            assert np.all(out.failure_signals >= 0.0)


def test_descriptor_failure_paths(env):
    d = env.descriptor
    assert d.name == "skirmish"
    assert [f.name for f in d.failure_paths] == ["victim_damage", "task_delay"]
    assert d.party_counts == {Party.VICTIM: 3, Party.ADVERSARY: 2, Party.THIRD: 2}
    assert d.default_weights == (0.7, 0.3)


def test_presets_exposed():
    env = make_env(PRESETS["skirmish-hard"])
    assert env.config.victim_count < env.config.opponent_count
