import numpy as np
import pytest

from bystander.core import AgentId, ConfigError, ContractViolation, Party
from bystander.envs import CorridorConfig, CorridorEnv, audit_neutrality
from bystander.rollout import RandomController, run_episode
from helpers import controllable_agents, state_from_vehicles

KEEP, FASTER, SLOWER, LANE_UP, LANE_DOWN = range(5)

V0 = AgentId(Party.VICTIM, 0)
A0, A1 = AgentId(Party.ADVERSARY, 0), AgentId(Party.ADVERSARY, 1)
T0, T1 = AgentId(Party.THIRD, 0), AgentId(Party.THIRD, 1)
KEEP_ALL = {Party.VICTIM: [KEEP], Party.ADVERSARY: [KEEP, KEEP]}


@pytest.fixture()
def env():
    return CorridorEnv(CorridorConfig())


def test_config_validation():
    with pytest.raises(ConfigError):
        CorridorConfig(victim_count=0)
    with pytest.raises(ConfigError):
        CorridorConfig(victim_count=3, lanes=2)
    with pytest.raises(ConfigError):
        CorridorConfig(lanes=1, length=10, adversary_count=3, other_vehicle_count=4)
    with pytest.raises(ConfigError):
        CorridorConfig(speed_levels=1)


def test_reset_victims_at_column_zero(env):
    state = env.reset(7)
    for v in state.vehicles:
        if v.agent.party is Party.VICTIM:
            assert v.col == 0
    cells = [(v.lane, v.col) for v in state.vehicles]
    assert len(set(cells)) == len(cells)
    assert env.reset(7) == env.reset(7)


def test_goal_reach_is_success_with_zero_signals(env):
    state = state_from_vehicles(env, {V0: (0, 7, 2), A0: (1, 3, 0), A1: (1, 4, 0), T0: (1, 5, 1), T1: (1, 6, 1)})
    nxt, outcome = env.step(state, KEEP_ALL)
    assert outcome.terminal and outcome.victim_success
    assert np.allclose(outcome.failure_signals, [0.0, 0.0, 0.0])
    assert nxt.vehicle(V0).exited


def test_victim_rear_end_collision_fails(env):
    # stopped bystander directly ahead; the victim drives into it
    state = state_from_vehicles(env, {V0: (0, 3, 2), A0: (0, 4, 0), A1: (1, 0, 0), T0: (1, 5, 1), T1: (1, 6, 1)})
    nxt, outcome = env.step(state, KEEP_ALL)
    assert outcome.terminal and not outcome.victim_success
    assert outcome.failure_signals[0] == 1.0
    assert nxt.vehicle(V0).crashed


def test_victim_can_brake_to_avoid(env):
    state = state_from_vehicles(env, {V0: (0, 3, 1), A0: (0, 4, 0), A1: (1, 0, 0), T0: (1, 5, 1), T1: (1, 6, 1)})
    nxt, outcome = env.step(state, {Party.VICTIM: [SLOWER], Party.ADVERSARY: [KEEP, KEEP]})
    assert not outcome.terminal
    assert nxt.vehicle(V0).col == 3 and nxt.vehicle(V0).speed == 0
    # stopped on the road counts as a rule-violation signal
    assert outcome.failure_signals[2] == 1.0


def test_adversary_movement_truncates_before_victims(env):
    # bystander at speed 2 behind a stopped victim never initiates contact
    state = state_from_vehicles(env, {A0: (0, 2, 2), V0: (0, 4, 0), A1: (1, 0, 0), T0: (1, 5, 1), T1: (1, 6, 1)})
    nxt, outcome = env.step(state, KEEP_ALL)
    assert nxt.vehicle(A0).col == 3  # stopped short
    assert not nxt.vehicle(V0).crashed
    assert not outcome.terminal or not outcome.failure_signals[0]


def test_scripted_traffic_rear_ends_stopped_victim(env):
    # constant-speed traffic cannot brake: a victim stopped in its path is hit
    state = state_from_vehicles(env, {T0: (0, 2, 1), V0: (0, 3, 0), A0: (1, 0, 0), A1: (1, 1, 0), T1: (1, 6, 1)})
    nxt, outcome = env.step(state, KEEP_ALL)
    assert outcome.terminal and not outcome.victim_success
    assert outcome.failure_signals[0] == 1.0
    assert nxt.vehicle(V0).crashed


def test_lane_change_conflict_counts_violation(env):
    cfg = CorridorConfig(lanes=3, victim_count=2, adversary_count=0, other_vehicle_count=0)
    env3 = CorridorEnv(cfg)
    v0, v1 = AgentId(Party.VICTIM, 0), AgentId(Party.VICTIM, 1)
    state = state_from_vehicles(env3, {v0: (0, 3, 0), v1: (2, 3, 0)})
    nxt, outcome = env3.step(state, {Party.VICTIM: [LANE_UP, LANE_DOWN]})
    # both claim (1, 3): lower id wins, the other is canceled
    assert nxt.vehicle(v0).lane == 1
    assert nxt.vehicle(v1).lane == 2
    # canceled victim maneuver + two stopped victims
    assert outcome.failure_signals[2] == 3.0


def test_lane_change_into_occupied_cell_masked(env):
    state = state_from_vehicles(env, {V0: (0, 4, 1), A0: (1, 4, 1), A1: (1, 0, 0), T0: (1, 6, 1), T1: (0, 8, 1)})
    mask = env.available_actions(state, V0)
    assert not mask[LANE_UP]
    assert not mask[LANE_DOWN]  # edge of road


def test_speed_masks(env):
    state = state_from_vehicles(env, {V0: (0, 2, 0), A0: (1, 3, 2), A1: (1, 0, 0), T0: (1, 6, 1), T1: (0, 8, 1)})
    vmask = env.available_actions(state, V0)
    assert vmask[FASTER] and not vmask[SLOWER]
    amask = env.available_actions(state, A0)
    assert not amask[FASTER] and amask[SLOWER]


def test_timeout_fails(env):
    state = state_from_vehicles(env, {V0: (0, 0, 0), A0: (1, 3, 0), A1: (1, 4, 0), T0: (1, 5, 1), T1: (1, 6, 1)})
    outcome = None
    for _ in range(env.config.horizon):
        state, outcome = env.step(state, KEEP_ALL)
        if outcome.terminal:
            break
    assert outcome.terminal and not outcome.victim_success
    assert state.step_count == env.config.horizon


def test_timeout_signal_scaling(env):
    state = env.reset(0)
    nxt, outcome = env.step(state, KEEP_ALL)
    assert outcome.failure_signals[1] == pytest.approx(1.0 / env.config.horizon)


def test_neutrality_audit_random_play(env):
    for seed in range(25):
        rng = np.random.default_rng(seed)
        controllers = {
            Party.VICTIM: RandomController(rng),
            Party.ADVERSARY: RandomController(rng),
        }
        result = run_episode(env, controllers, seed)
        audit_neutrality(env, result.trajectory)
        assert len(result.trajectory) <= env.config.horizon
        for out in result.trajectory.outcomes:
            assert np.all(out.failure_signals >= 0.0)


def test_observation_bounds_and_sentinels(env):
    state = env.reset(3)
    for agent in controllable_agents(env):
        obs = env.observe(state, agent)
        assert np.all(np.abs(obs) <= 1.0)
    # exited vehicle observes zeros
    state = state_from_vehicles(env, {A0: (1, 3, 0), A1: (1, 4, 0), T0: (1, 5, 1), T1: (1, 6, 1)})
    assert np.all(env.observe(state, V0) == 0.0)


def test_descriptor_failure_paths(env):
    names = [f.name for f in env.descriptor.failure_paths]
    assert names == ["collision", "timeout", "rule_violation"]
    assert env.descriptor.default_weights == (0.5, 0.3, 0.2)
