"""The environment contract, checked once over both built-in environments,
and a digest of seeded random play that pins their outputs bit for bit."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from bystander.core import AgentId, ContractViolation, LifecycleError, Party
from bystander.envs import PRESETS, CorridorConfig, SkirmishConfig, make_env
from bystander.rollout import RandomController, run_episode
from bystander.training import victim_task_rewards
from helpers import state_from_positions, state_from_vehicles

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
        return one, state_from_positions(one, {AgentId(Party.THIRD, 0): (4, 2)})
    one = make_env(CorridorConfig(victim_count=1, adversary_count=0, other_vehicle_count=0))
    return one, state_from_vehicles(one, {})  # the victim has exited


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
        {Party.VICTIM: np.full(n, 0.9)},  # not truncated to noops
        {Party.VICTIM: np.zeros(n, dtype=bool)},
    ):
        with pytest.raises(ContractViolation):
            env.step(state, joint)


def test_a_held_mask_of_another_shape_is_refused(env):
    """A held mask a row short or a column wide is refused: read as it is,
    it would pair each agent with another agent's mask and action."""
    state = env.reset(0)
    for party in PARTIES:
        n = len(env.agents(party))
        masks = env.masks_party(state, party)
        for held in (masks[:-1], np.hstack([masks, np.ones((n, 1), dtype=bool)])):
            with pytest.raises(ContractViolation, match=f"{party.label} masks have shape"):
                env.step(state, {party: np.zeros(n, dtype=int)}, {party: held})


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


# --- a per-slot reference, written from the env docstrings ---------------------

SKIRMISH_MOVES = {"north": (0, -1), "south": (0, 1), "east": (1, 0), "west": (-1, 0)}
CORRIDOR_MANEUVERS = {"faster": (1, 0), "slower": (-1, 0), "lane_up": (0, 1), "lane_down": (0, -1)}


def reference_features(env, me, other):
    """(own features, other's slot features or None when out of sight), or
    None when `me` is out of play."""
    c = env.config
    if isinstance(c, SkirmishConfig):
        if me.health <= 0:
            return None
        w, h = c.grid_size
        own = (me.x / max(w - 1, 1), me.y / max(h - 1, 1), me.health / c.unit_health)
        r = c.sensing_radius
        if other is None or other.health <= 0 or max(abs(other.x - me.x), abs(other.y - me.y)) > r:
            return own, None
        return own, ((other.x - me.x) / r, (other.y - me.y) / r, other.health / c.unit_health)
    if me.crashed or me.exited:
        return None
    lanes = max(c.lanes - 1, 1)
    own = (me.lane / lanes, me.col / c.goal_col, me.speed / (c.speed_levels - 1), 1.0)
    if other is None or other.crashed or other.exited or abs(other.col - me.col) > c.sensing_cols:
        return own, None
    seen = ((other.lane - me.lane) / lanes, (other.col - me.col) / c.sensing_cols, other.speed / (c.speed_levels - 1))
    return own, seen


def reference_observation(env, state, agent):
    """Own features, then one (present, feature...) block per slot label: the
    block `<party>_slot<k>` shows the k-th agent of that party other than
    the observer, and stays zero when there is none or it is out of sight."""
    labels = env.descriptor.obs_labels[agent.party]
    obs = np.zeros(len(labels))
    me = state.unit(agent)
    if reference_features(env, me, None) is None:
        return obs
    own, _ = reference_features(env, me, None)
    obs[: len(own)] = own
    for i, label in enumerate(labels):
        if not label.endswith("_present"):
            continue
        party_label, k = label[: -len("_present")].split("_slot")
        others = [a for a in env.agents(Party.from_label(party_label)) if a != agent]
        if int(k) < len(others):
            _, seen = reference_features(env, me, state.unit(others[int(k)]))
            if seen is not None:
                obs[i] = 1.0
                obs[i + 1 : i + 1 + len(seen)] = seen
    return obs


def reference_mask(env, state, agent):
    """Noop (keep) always; nothing else for a unit out of play. A skirmish
    move needs an in-bounds cell, an attack a live target within
    attack_range (Chebyshev). A corridor speed change stays within the
    speed levels, a lane change needs an existing lane whose cell beside the
    vehicle no vehicle on the road holds."""
    c = env.config
    labels = env.descriptor.action_labels[agent.party]
    mask = np.zeros(len(labels), dtype=bool)
    mask[0] = True
    me = state.unit(agent)
    if isinstance(c, SkirmishConfig):
        if me.health <= 0:
            return mask
        w, h = c.grid_size
        for i, label in enumerate(labels[1:], 1):
            if label in SKIRMISH_MOVES:
                dx, dy = SKIRMISH_MOVES[label]
                mask[i] = 0 <= me.x + dx < w and 0 <= me.y + dy < h
            else:
                _, name, j = label.split("_")
                other = state.unit(AgentId(Party.VICTIM if name == "victim" else Party.THIRD, int(j)))
                mask[i] = other.health > 0 and max(abs(other.x - me.x), abs(other.y - me.y)) <= c.attack_range
        return mask
    if me.crashed or me.exited:
        return mask
    occupied = {(v.lane, v.col) for v in state.units if not (v.crashed or v.exited)}
    for i, label in enumerate(labels[1:], 1):
        speed, lane = CORRIDOR_MANEUVERS[label]
        if speed:
            mask[i] = 0 <= me.speed + speed < c.speed_levels
        else:
            mask[i] = 0 <= me.lane + lane < c.lanes and (me.lane + lane, me.col) not in occupied
    return mask


def random_play_states(config, seeds=range(3)):
    env = make_env(config)
    states = []
    for seed in seeds:
        traj = run_episode(env, random_controllers(seed), seed).trajectory
        state = env.reset(seed)
        states.append(state)
        for t in range(len(traj)):
            state, _ = env.step(state, traj.joint_action(t))
            states.append(state)
    return env, states


V0, V1, V2 = (AgentId(Party.VICTIM, i) for i in range(3))
A0, A1, A2 = (AgentId(Party.ADVERSARY, i) for i in range(3))
T0, T1, T2 = (AgentId(Party.THIRD, i) for i in range(3))


def skirmish_edge_states():
    """skirmish-small (8x5 grid, sensing radius 3, attack range 1), with and
    without bystander attacks on opponents."""
    for cfg in (PRESETS["skirmish-small"], replace(PRESETS["skirmish-small"], adversaries_may_attack_opponents=True)):
        env = make_env(cfg)
        yield env, [
            # corners; V1 exactly at the sensing radius of V0, T0 one past;
            # T1 exactly at attack range of V2 and A1, one past it for A0
            state_from_positions(
                env,
                {V0: (0, 0), V1: (3, 3), V2: (5, 1), A0: (7, 4), A1: (6, 3), T0: (4, 4), T1: (6, 2)}
            ),
            # dead units: V1 at zero health, A1 and T0 omitted
            state_from_positions(
                env,
                {V0: (0, 4), V1: (1, 4), V2: (7, 0), A0: (3, 1), T1: (6, 0)}, healths={V1: 0, V2: 1}
            ),
            # one past the radius diagonally, and a diagonal attack
            state_from_positions(
                env,
                {V0: (2, 2), V1: (6, 2), V2: (5, 0), A0: (2, 3), A1: (3, 2), T0: (3, 3), T1: (4, 1)}
            ),
        ]


def corridor_edge_states():
    """corridor-med (3 lanes of 12 columns, sensing 2 columns, 3 speed
    levels)."""
    env = make_env(PRESETS["corridor-med"])
    # V1 exactly at the sensing columns of V0, A0 one past; V0 in the lowest
    # lane at speed 0, A1 in the top lane at top speed; T0 blocks V0's lane_up
    base = state_from_vehicles(
        env,
        {
            V0: (0, 2, 0), V1: (2, 4, 1), V2: (1, 7, 2), A0: (1, 5, 1),
            A1: (2, 6, 2), A2: (0, 9, 1), T0: (1, 2, 1), T1: (0, 0, 2),
        }
    )
    crashed = replace(
        base, units=tuple(replace(v, crashed=True) if v.agent in (V1, T0) else v for v in base.units)
    )
    # A0, T1 and V2 omitted: exited
    exited = state_from_vehicles(env, {V0: (1, 3, 1), V1: (1, 5, 2), A1: (0, 3, 0), A2: (2, 1, 1), T0: (2, 3, 1)})
    yield env, [base, crashed, exited]


def reference_cases():
    """Random play on every preset, on skirmish with bystander attacks on
    opponents and on both envs with the bystanders absent, then the edge
    states."""
    small, med = PRESETS["skirmish-small"], PRESETS["corridor-med"]
    for config in (
        *(PRESETS[name] for name in sorted(PRESETS)),
        replace(small, adversaries_may_attack_opponents=True),
        replace(small, adversary_count=0),
        replace(med, adversary_count=0),
    ):
        yield random_play_states(config)
    yield from skirmish_edge_states()
    yield from corridor_edge_states()


def same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_party_arrays_match_a_per_slot_reference():
    """observe_party and masks_party state by state, and stacked_views over
    the case's whole stack of states and over each state alone, byte for
    byte."""
    for env, states in reference_cases():
        stacked = env.stacked_views(states, list(Party))
        alone = [env.stacked_views([state], list(Party)) for state in states]
        for party in Party:
            agents = env.agents(party)
            obs = np.array(
                [[reference_observation(env, s, a) for a in agents] for s in states], dtype=float
            ).reshape(len(states), len(agents), env.descriptor.obs_dim(party))
            masks = np.array(
                [[reference_mask(env, s, a) for a in agents] for s in states], dtype=bool
            ).reshape(len(states), len(agents), env.descriptor.n_actions(party))
            for k, state in enumerate(states):
                assert same_bytes(env.observe_party(state, party), obs[k])
                assert same_bytes(env.masks_party(state, party), masks[k])
                assert same_bytes(alone[k][party][0], obs[k : k + 1])
                assert same_bytes(alone[k][party][1], masks[k : k + 1])
            assert same_bytes(stacked[party][0], obs)
            assert same_bytes(stacked[party][1], masks)


def test_the_edge_states_reach_both_sides_of_each_boundary():
    """The hand-built states hold what they are meant to: a unit seen at the
    sensing edge and not one past it, targets at and one past attack range,
    moves refused at the edges, and units out of play."""

    (env, skirmish), (armed, armed_states) = skirmish_edge_states()
    [(road, corridor)] = corridor_edge_states()
    stacks = {env: skirmish, armed: armed_states, road: corridor}

    def row(env, state, agent):
        """The agent's observation and mask in the stacked views of its
        env's edge states, byte for byte its per-state rows."""
        states = stacks[env]
        k = next(k for k, s in enumerate(states) if s is state)
        obs, masks = (a[k, agent.index] for a in env.stacked_views(states, [agent.party])[agent.party])
        assert same_bytes(obs, env.observe(state, agent))
        assert same_bytes(masks, env.available_actions(state, agent))
        return obs, masks

    def obs(env, state, agent, label):
        return row(env, state, agent)[0][env.descriptor.obs_labels[agent.party].index(label)]

    def allowed(env, state, agent, label):
        return row(env, state, agent)[1][env.descriptor.action_labels[agent.party].index(label)]

    edge, dead, _ = skirmish
    armed_edge = armed_states[0]
    assert obs(env, edge, V0, "victim_slot0_present") == 1.0  # V1 at the radius
    assert obs(env, edge, V0, "third_slot0_present") == 0.0  # T0 one past
    assert allowed(env, edge, V2, "attack_opponent_1") and not allowed(env, edge, V2, "attack_opponent_0")
    assert allowed(armed, armed_edge, A1, "attack_opponent_1")
    assert not allowed(armed, armed_edge, A0, "attack_opponent_1")
    assert [allowed(env, edge, V0, m) for m in ("north", "south", "east", "west")] == [False, True, True, False]
    assert [allowed(env, edge, A0, m) for m in ("north", "south", "east", "west")] == [True, False, False, True]
    assert not row(env, dead, V1)[0].any() and row(env, dead, V1)[1].tolist() == [True] + [False] * 6
    assert obs(env, dead, V0, "victim_slot0_present") == 0.0  # V1 dead beside V0

    base, crashed, exited = corridor
    assert obs(road, base, V0, "victim_slot0_present") == 1.0  # V1 at the sensing columns
    assert obs(road, base, V0, "adversary_slot0_present") == 0.0  # A0 one past
    maneuvers = ("faster", "slower", "lane_up", "lane_down")
    assert [allowed(road, base, V0, m) for m in maneuvers] == [True, False, False, False]
    assert [allowed(road, base, A1, m) for m in maneuvers] == [False, True, False, True]
    assert allowed(road, crashed, V0, "lane_up")  # the crashed T0 no longer blocks
    assert obs(road, crashed, V0, "victim_slot0_present") == 0.0
    for state, agent in ((crashed, V1), (exited, V2)):
        assert not row(road, state, agent)[0].any()
        assert row(road, state, agent)[1].tolist() == [True] + [False] * 4


@pytest.mark.parametrize(
    "name, overrides",
    [("skirmish-small", dict(adversary_count=0)), ("corridor-med", dict(adversary_count=0, other_vehicle_count=0))],
)
def test_a_party_with_no_agents_gives_empty_arrays(name, overrides):
    env = make_env(replace(PRESETS[name], **overrides))
    d = env.descriptor
    state = env.reset(0)
    for party in Party:
        if env.agents(party):
            continue
        obs, masks = env.observe_party(state, party), env.masks_party(state, party)
        assert obs.shape == (0, d.obs_dim(party)) and obs.dtype == np.float64
        assert masks.shape == (0, d.n_actions(party)) and masks.dtype == bool
    # the empty party's (0,) action array is part of a valid joint action
    noops = np.zeros(len(env.agents(Party.VICTIM)), dtype=int)
    nxt, _ = env.step(state, {Party.VICTIM: noops, Party.ADVERSARY: np.zeros(0, dtype=int)})
    assert nxt.step_count == 1
    # and so is leaving it out
    assert env.step(state, {Party.VICTIM: noops})[0] == nxt


def random_play_digest(episodes: int) -> str:
    h = hashlib.sha256()
    for name in sorted(PRESETS):
        env = make_env(PRESETS[name])
        for seed in range(episodes):
            traj = run_episode(env, random_controllers(seed), seed).trajectory
            for p in sorted(traj.obs, key=lambda p: p.label):
                for arrays in (traj.obs, traj.avail, traj.actions):
                    h.update(np.ascontiguousarray(arrays[p], dtype=np.float64).tobytes())
            h.update(victim_task_rewards(env, traj).tobytes())
            for out in traj.outcomes:
                # the third byte is the former victim_failed flag, which keeps the pin
                h.update(bytes([out.terminal, out.victim_success, out.terminal and not out.victim_success]))
                h.update(out.failure_signals.tobytes())
    return h.hexdigest()


def test_random_play_digest_is_pinned():
    assert random_play_digest(20) == "231b16cabd5b9a83aa61ec44c9ffd5871c926bc1f80d70358073e8ee369a9041"
