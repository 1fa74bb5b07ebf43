from dataclasses import replace

import numpy as np
import pytest

from bystander import rewards, training
from bystander.core import ContractViolation, Party
from bystander.envs import PRESETS, make_env
from bystander.neural import MLP
from bystander.qmix import MASK_SENTINEL, masked_q
from bystander.rewards import RewardModel
from bystander.rollout import Controller, EpsilonGreedyController, RandomController, run_episode
from bystander.training import EstimationProvider, RewardMode, TrainingConfig

PARTIES = (Party.VICTIM, Party.ADVERSARY)


def random_controllers(seed):
    rng = np.random.default_rng(seed)
    return {p: RandomController(rng) for p in PARTIES}


def fixed_q_controller(q, epsilon=0.0, seed=0):
    """An EpsilonGreedyController whose agent i's Q values are q[i],
    whatever it observes (one input feature)."""
    q = np.asarray(q, dtype=float)
    net = MLP([f"a{i}" for i in range(len(q))], [1, q.shape[1]], None)
    net.b[0][...] = q
    controller = EpsilonGreedyController(net, np.random.default_rng(seed))
    controller.epsilon = epsilon
    return controller


def test_epsilon_greedy_greedy_and_ties():
    greedy = fixed_q_controller([[1.0, 3.0, 2.0], [2.0, 2.0, 0.0]])
    obs = np.zeros((2, 1))
    assert greedy.act(obs, np.ones((2, 3), dtype=bool)).tolist() == [1, 0]  # a tie goes to the lowest id
    assert greedy.act(obs, np.array([[True, False, True], [False, True, True]])).tolist() == [2, 1]


def test_epsilon_greedy_explores_uniformly():
    explorer = fixed_q_controller(np.tile([0.0, 1.0, 2.0, 3.0], (4, 1)), epsilon=1.0, seed=123)
    obs, masks = np.zeros((4, 1)), np.ones((4, 4), dtype=bool)
    picks = np.concatenate([explorer.act(obs, masks) for _ in range(25_000)])
    n = picks.size
    counts = np.bincount(picks, minlength=4)
    # binomial 3-sigma bound around p = 1/4
    sigma = np.sqrt(n * 0.25 * 0.75)
    assert np.all(np.abs(counts - n * 0.25) < 3 * sigma)


def test_epsilon_greedy_respects_mask_when_exploring():
    explorer = fixed_q_controller([[0.0, 1.0, 2.0, 0.0]], epsilon=1.0, seed=7)
    mask = np.array([[False, True, False, True]])
    picks = {int(explorer.act(np.zeros((1, 1)), mask)[0]) for _ in range(200)}
    assert picks == {1, 3}


def per_row_epsilon_greedy(q, epsilon, rng):
    """The per-agent rule: each masked Q row draws once when epsilon > 0 and
    explores with rng.choice over its available actions."""
    actions = []
    for row in q:
        if epsilon > 0.0 and rng.random() < epsilon:
            actions.append(int(rng.choice(np.flatnonzero(row > MASK_SENTINEL / 2))))
        else:
            actions.append(int(np.argmax(row)))
    return actions


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_epsilon_greedy_is_the_per_row_rule_draw_for_draw(seed):
    rng = np.random.default_rng(seed)
    net = MLP([f"a{i}" for i in range(3)], [5, 8, 6], rng)
    for epsilon in (0.0, 0.05, 0.5, 0.9, 1.0):
        controller = EpsilonGreedyController(net, np.random.default_rng(seed + 10))
        controller.epsilon = epsilon
        reference = np.random.default_rng(seed + 10)
        for _ in range(300):
            obs = rng.normal(size=(3, 5))
            masks = rng.random((3, 6)) < 0.5
            masks[:, 0] = True
            expected = per_row_epsilon_greedy(masked_q(net, obs, masks), epsilon, reference)
            assert controller.act(obs, masks).tolist() == expected
        assert controller.rng.bit_generator.state == reference.bit_generator.state


def replay_states(env, traj):
    state = env.reset(traj.seed)
    states = [state]
    for t in range(len(traj)):
        state, _ = env.step(state, traj.joint_action(t))
        states.append(state)
    return states


@pytest.mark.parametrize("name", ["skirmish-small", "corridor-med"])
def test_party_arrays_cover_states_and_steps(name):
    env = make_env(PRESETS[name])
    d = env.descriptor
    for seed in range(3):
        traj = run_episode(env, random_controllers(seed), seed).trajectory
        steps = len(traj)
        assert steps == len(traj.outcomes) >= 1 and traj.seed == seed
        assert list(traj.obs) == list(traj.avail) == list(traj.actions) == list(PARTIES)
        for p in PARTIES:
            n = len(env.agents(p))
            assert traj.obs[p].shape == (steps + 1, n, d.obs_dim(p))
            assert traj.avail[p].shape == (steps + 1, n, d.n_actions(p))
            assert traj.actions[p].shape == (steps, n)
        states = replay_states(env, traj)
        assert traj.states == tuple(states)
        for t, state in enumerate(states):
            for p in PARTIES:
                np.testing.assert_array_equal(traj.obs[p][t], env.observe_party(state, p))
                np.testing.assert_array_equal(traj.avail[p][t], env.masks_party(state, p))
        assert traj.outcomes[-1].terminal


def test_absent_party_has_no_arrays():
    env = make_env(replace(PRESETS["skirmish-small"], adversary_count=0))
    traj = run_episode(env, random_controllers(0), 0).trajectory
    assert list(traj.obs) == [Party.VICTIM]
    assert all(set(a) <= {Party.VICTIM} for a in (traj.avail, traj.actions))


def test_a_rollout_computes_no_reward_and_estimation_reads_the_post_step_bystander_view(monkeypatch):
    env = make_env(PRESETS["skirmish-small"])

    def refuse(*args):
        raise AssertionError("victim_task_reward computed by a rollout")

    monkeypatch.setattr(env, "victim_task_reward", refuse)
    trajs = [run_episode(env, random_controllers(seed), seed).trajectory for seed in range(4)]

    # the estimation reward hands its provider one row per step, the
    # bystanders' concatenated view of the state that step led to, and the
    # terminal ground truth: nothing else of the episode
    calls = []

    def provider(rows, truth):
        calls.append((rows, truth))
        return np.zeros(len(rows))

    monkeypatch.setattr(training, "EstimationProvider", lambda model, cfg, rng: provider)
    reward, _ = training.REWARDS[RewardMode.ESTIMATION][1](env, TrainingConfig(r_fail=20.0))
    for traj in trajs:
        reward(traj)
        rows, truth = calls[-1]
        bystanders = traj.obs[Party.ADVERSARY]
        assert rows.shape == (len(traj), bystanders[0].size)
        for t in range(len(traj)):
            np.testing.assert_array_equal(rows[t], bystanders[t + 1].reshape(-1))
        assert truth == (0.0 if traj.outcomes[-1].victim_success else 20.0)


def test_estimation_reward_updates_once_per_episode_from_a_fresh_estimator(monkeypatch):
    env = make_env(PRESETS["skirmish-small"])
    input_dim = env.descriptor.obs_dim(Party.ADVERSARY) * len(env.agents(Party.ADVERSARY))
    model = RewardModel(input_dim, 8, np.random.default_rng(0))
    cfg = TrainingConfig(r_fail=20.0, estimate_clip=5.0, warmup_episodes=1, model_batch=2, model_learning_rate=1e-3)
    provider = EstimationProvider(model, cfg, np.random.default_rng(1))
    updates, updated_from, steps_seen, returned = [], [], [], []
    update = training.reward_model_update

    def counting_update(model, episodes, ground_truths, optimizer):
        updates.append(len(episodes))
        updated_from.append(model.cell.flat.values.copy())
        return update(model, episodes, ground_truths, optimizer)

    monkeypatch.setattr(training, "reward_model_update", counting_update)
    estimator_step = rewards.EpisodeEstimator.step

    def recording_step(self, concat_obs):
        steps_seen.append((self, concat_obs, self.hidden.copy(), self.cell.copy(), self.model.cell.flat.values.copy()))
        returned.append(estimator_step(self, concat_obs))
        return returned[-1]

    monkeypatch.setattr(rewards.EpisodeEstimator, "step", recording_step)
    episodes, scored = [], []
    for k in range(3):
        traj = run_episode(env, random_controllers(k), k).trajectory
        rows = traj.obs[Party.ADVERSARY][1:].reshape(len(traj), -1)
        episodes.append((traj, rows))
        scored.append(provider(rows, rewards.terminal_reward(traj.outcomes[-1], 20.0)))
        assert scored[-1].shape == (len(traj),)
        assert len(updates) == k + 1 and provider.episode_count == k + 1
        if k == 0:
            # warm-up episode 0 pays no estimate, so none is streamed
            assert steps_seen == []
    assert updates == [1, 2, 2]
    # after warm-up, one estimator step per row, in step order
    streamed = episodes[1:]
    np.testing.assert_array_equal([s[1] for s in steps_seen], np.concatenate([rows for _, rows in streamed]))
    lengths = [len(traj) for traj, _ in streamed]
    firsts = np.cumsum([0, *lengths[:-1]])
    estimators = [steps_seen[i][0] for i in firsts]
    assert len({id(e) for e in estimators}) == 2
    for i in firsts:
        _, _, hidden, cell, _ = steps_seen[i]
        assert not hidden.any() and not cell.any()
    # an episode is streamed through the model its own update starts from
    for k, (start, length) in enumerate(zip(firsts, lengths), start=1):
        for seen in steps_seen[start : start + length]:
            np.testing.assert_array_equal(seen[4], updated_from[k])
    # warm-up: only the terminal rule reward; afterwards the clipped estimates
    warm = episodes[0][0]
    assert not scored[0][:-1].any()
    assert scored[0][-1] == (0.0 if warm.outcomes[-1].victim_success else 20.0)
    np.testing.assert_array_equal(scored[1], returned[: firsts[1]])
    np.testing.assert_array_equal(scored[2], returned[firsts[1] :])


class FirstMaskedOut(Controller):
    """Picks each agent's first unavailable action (noop when all are
    available)."""

    def act(self, obs_mat, mask_mat):
        return np.argmin(mask_mat, axis=1)


def test_a_masked_out_action_is_refused_through_the_rollout():
    env = make_env(PRESETS["skirmish-small"])
    controllers = {Party.VICTIM: FirstMaskedOut(), Party.ADVERSARY: RandomController(np.random.default_rng(0))}
    with pytest.raises(ContractViolation, match="unavailable action"):
        run_episode(env, controllers, 0)


@pytest.mark.parametrize("name", ["skirmish-small", "corridor-med"])
def test_the_rollouts_masks_are_read_by_one_checked_step_per_tick(name, monkeypatch):
    env = make_env(PRESETS[name])
    calls = {"step": 0, "masks": 0}
    step, masks_party = env.step, env.masks_party

    def counted_step(*args):
        calls["step"] += 1
        return step(*args)

    def counted_masks(*args):
        calls["masks"] += 1
        return masks_party(*args)

    monkeypatch.setattr(env, "masks_party", counted_masks)
    for seed in range(4):
        # the rollout steps once per tick and computes one mask array per
        # playing party per state, for its controllers; the step check reads
        # those and computes none
        calls.update(step=0, masks=0)
        monkeypatch.setattr(env, "step", counted_step)
        traj = run_episode(env, random_controllers(seed), seed).trajectory
        monkeypatch.setattr(env, "step", step)
        assert calls == {"step": len(traj), "masks": (len(traj) + 1) * len(PARTIES)}
        state = env.reset(seed)
        for t in range(len(traj)):
            joint = traj.joint_action(t)
            calls["masks"] = 0
            with_masks = env.step(state, joint, {p: traj.avail[p][t] for p in PARTIES})
            assert calls["masks"] == 0
            without = env.step(state, joint)
            assert calls["masks"] == len(PARTIES)  # one per party, computed by the check
            assert with_masks[0] == without[0]
            (a, b) = with_masks[1], without[1]
            assert (a.terminal, a.victim_success) == (b.terminal, b.victim_success)
            assert np.array_equal(a.failure_signals, b.failure_signals)
            state = with_masks[0]
