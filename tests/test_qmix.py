import numpy as np
import pytest

from bystander.core import ContractViolation, StructuralError
from bystander.neural import MLP, Adam
from bystander.qmix import (
    MASK_SENTINEL,
    MixingNet,
    PreparedEpisode,
    ReplayBuffer,
    TargetNetworkPair,
    greedy_joint_q,
    learner_step,
    masked_q,
    stack_batch,
    td_targets,
)
from bystander.rollout import EpsilonGreedyController


def test_agent_q_matches_independent_forward():
    rng = np.random.default_rng(2)
    net = MLP(["a"], [5, 8, 8, 4], rng)
    obs = rng.normal(size=5)
    ws = [net.w[l][0] for l in range(3)]
    bs = [net.b[l][0] for l in range(3)]
    h1 = np.maximum(obs @ ws[0].T + bs[0], 0)
    h2 = np.maximum(h1 @ ws[1].T + bs[1], 0)
    expected = h2 @ ws[2].T + bs[2]
    q, _ = net.forward(obs[None, None])
    assert np.max(np.abs(q[0, 0] - expected)) < 1e-12


def test_masked_q_is_each_agents_forward_with_the_sentinel():
    rng = np.random.default_rng(5)
    net = MLP([f"a{i}" for i in range(3)], [5, 8, 4], rng)
    obs = rng.normal(size=(6, 3, 5))
    avail = rng.random((6, 3, 4)) < 0.5
    rows = masked_q(net, obs, avail)
    assert rows.shape == (6, 3, 4)
    for r in range(6):
        one = masked_q(net, obs[r], avail[r])
        expected = [
            np.where(avail[r, i], np.maximum(obs[r, i] @ net.w[0][i].T + net.b[0][i], 0) @ net.w[1][i].T + net.b[1][i], MASK_SENTINEL)
            for i in range(3)
        ]
        assert np.array_equal(one, np.stack(expected))
        np.testing.assert_allclose(rows[r], one, rtol=1e-12)


def test_mixer_single_agent_identity_like():
    rng = np.random.default_rng(3)
    mixer = MixingNet("m", 1, 2, 4, rng)
    # force w1 = e0 (abs), elu pass-through for positive inputs, w2 = e0
    for lin in (mixer.hyper_w1, mixer.hyper_b1, mixer.hyper_w2, mixer.hyper_v):
        lin.w.values[:] = 0.0
        lin.b.values[:] = 0.0
    mixer.hyper_w1.b.array[0] = 1.0
    mixer.hyper_w2.b.array[0] = 1.0
    mixer.hyper_v.b.array[0] = 0.25
    q_tot, _ = mixer.forward(np.array([[3.0], [5.0]]), np.zeros((2, 2)))
    assert q_tot == pytest.approx([3.25, 5.25])


def test_mixer_positivity_transform():
    rng = np.random.default_rng(4)
    mixer = MixingNet("m", 2, 3, 4, rng)
    cond = rng.normal(size=(1, 3))
    q = rng.normal(size=(1, 2))
    _, cache = mixer.forward(q, cond)
    raw = cache.w1_raw
    assert np.all(cache.w1.reshape(raw.shape) == np.abs(raw))


def test_mixer_monotone_finite_difference():
    rng = np.random.default_rng(5)
    eps = 1e-6
    for _ in range(200):
        n = int(rng.integers(1, 4))
        mixer = MixingNet("m", n, 4, 5, rng)
        q = rng.normal(size=(1, n))
        cond = rng.normal(size=(1, 4))
        for i in range(n):
            hi, lo = q.copy(), q.copy()
            hi[0, i] += eps
            lo[0, i] -= eps
            slope = (mixer.forward(hi, cond)[0][0] - mixer.forward(lo, cond)[0][0]) / (2 * eps)
            assert slope >= -1e-9


def test_mixer_shape_errors():
    mixer = MixingNet("m", 2, 3, 4, np.random.default_rng(0))
    with pytest.raises(StructuralError):
        mixer.forward(np.zeros((1, 3)), np.zeros((1, 3)))
    with pytest.raises(StructuralError):
        mixer.forward(np.zeros((1, 2)), np.zeros((1, 4)))
    # one set of agent values is a one-row batch
    with pytest.raises(StructuralError):
        mixer.forward(np.zeros(2), np.zeros(3))


def _episode(rng, T=4, n=2, D=3, A=3):
    return PreparedEpisode(
        obs=rng.normal(size=(T + 1, n, D)),
        avail=np.ones((T + 1, n, A), dtype=bool),
        actions=rng.integers(0, A, size=(T, n)),
        rewards=rng.normal(size=T),
    )


def test_replay_buffer_capacity_and_sampling():
    rng = np.random.default_rng(6)
    buf = ReplayBuffer(5)
    for _ in range(8):
        buf.add(_episode(rng))
    assert len(buf) == 5
    batch = buf.sample(5, rng)
    ids = [id(e) for e in batch]
    assert len(set(ids)) == 5  # without replacement
    with pytest.raises(ContractViolation):
        buf.sample(6, rng)


def test_prepared_episode_alignment_error():
    rng = np.random.default_rng(0)
    arrays = dict(
        obs=rng.normal(size=(4, 2, 3)),
        avail=np.ones((4, 2, 3), dtype=bool),
        actions=np.zeros((3, 2), dtype=int),
        rewards=np.zeros(3),
    )
    assert len(PreparedEpisode(**arrays)) == 3
    for field in ("obs", "avail", "actions"):
        # states must number T+1, per-transition arrays T
        short = {**arrays, field: arrays[field][:-1]}
        with pytest.raises(StructuralError, match=field):
            PreparedEpisode(**short)


def _pair(rng, n=2, D=3, A=3, hidden=8, embed=4, sync=50):
    net = MLP([f"a{i}" for i in range(n)], [D, hidden, hidden, A], rng)
    mixer = MixingNet("mx", n, n * D, embed, rng)
    return TargetNetworkPair(net, mixer, sync)


def test_stack_batch_packs_the_real_transitions_in_episode_order():
    rng = np.random.default_rng(13)
    episodes = [_episode(rng, T=T) for T in (3, 1, 5)]
    batch = stack_batch(episodes)
    assert batch.obs.shape == batch.next_obs.shape == (9, 2, 3)
    assert batch.next_avail.shape == (9, 2, 3) and batch.actions.shape == (9, 2)
    # the rows are the True entries, row by row, of the padded (B, T_max) layout
    assert batch.mask.shape == (3, 5) and batch.mask.sum() == 9
    padded_obs = np.zeros((3, 6, 2, 3))
    padded_rewards = np.zeros((3, 5))
    for b, e in enumerate(episodes):
        padded_obs[b, : len(e) + 1] = e.obs
        padded_rewards[b, : len(e)] = e.rewards
    assert np.array_equal(batch.obs, padded_obs[:, :5][batch.mask])
    assert np.array_equal(batch.next_obs, padded_obs[:, 1:][batch.mask])
    assert np.array_equal(batch.rewards, padded_rewards[batch.mask])
    # each episode's last transition, and no other, is terminal
    assert np.array_equal(np.flatnonzero(batch.terminal), [2, 3, 8])


def test_td_targets_terminal_and_gamma():
    rng = np.random.default_rng(7)
    pair = _pair(rng)
    ep = _episode(rng)
    batch = stack_batch([ep])
    # terminal step: y = r exactly
    y = td_targets(batch, pair, gamma=0.9)
    assert y[-1] == pytest.approx(ep.rewards[-1])
    # gamma = 0: y = r everywhere
    y0 = td_targets(batch, pair, gamma=0.0)
    assert np.allclose(y0, ep.rewards)
    # hand substitution: y = r + gamma * greedy Q_tot
    qn = greedy_joint_q(pair.target_net, pair.target_mixer, ep.obs[1:], ep.avail[1:])
    y9 = td_targets(batch, pair, gamma=0.9)
    expect = ep.rewards + 0.9 * np.where(np.arange(len(ep)) == len(ep) - 1, 0.0, qn)
    assert np.allclose(y9, expect)
    # a batch's targets are its episodes' targets, one after the other
    other = _episode(rng, T=2)
    both = td_targets(stack_batch([ep, other]), pair, gamma=0.9)
    assert np.allclose(both, np.concatenate([y9, td_targets(stack_batch([other]), pair, gamma=0.9)]))


def test_learner_step_fixed_point_and_nonnegativity():
    rng = np.random.default_rng(8)
    pair = _pair(rng)
    opt = Adam(pair.online_params(), learning_rate=1e-3)
    buf = ReplayBuffer(10)
    for _ in range(6):
        buf.add(_episode(rng))
    loss = learner_step(buf, pair, opt, 4, 0.99, rng)
    assert loss >= 0.0


def test_learner_step_single_transition_hand_loss():
    rng = np.random.default_rng(9)
    pair = _pair(rng, n=1, D=2, A=2)
    ep = PreparedEpisode(
        obs=rng.normal(size=(2, 1, 2)),
        avail=np.ones((2, 1, 2), dtype=bool),
        actions=np.array([[1]]),
        rewards=np.array([5.0]),
    )
    # hand computation: terminal -> y = 5; loss = (q_tot - 5)^2, the mixer
    # reading the first state's observations
    q = pair.net.forward(ep.obs[0][:, None, :])[0][0]  # the one agent's (1, A)
    chosen = q[:, 1]
    q_tot, _ = pair.mixer.forward(chosen[None, :], ep.obs[0].reshape(1, -1))
    expected_loss = float((q_tot[0] - 5.0) ** 2)
    buf = ReplayBuffer(2)
    buf.add(ep)
    opt = Adam(pair.online_params(), learning_rate=0.0)
    loss = learner_step(buf, pair, opt, 1, 0.99, rng)
    assert loss == pytest.approx(expected_loss, rel=1e-10)


def test_learner_step_zero_error_leaves_params_fixed():
    rng = np.random.default_rng(10)
    pair = _pair(rng, n=1, D=2, A=2)
    # set rewards so targets equal current predictions exactly
    ep = PreparedEpisode(
        obs=rng.normal(size=(2, 1, 2)),
        avail=np.ones((2, 1, 2), dtype=bool),
        actions=np.array([[0]]),
        rewards=np.zeros(1),
    )
    q = pair.net.forward(ep.obs[0][:, None, :])[0][0]  # the one agent's (1, A)
    q_tot, _ = pair.mixer.forward(q[:, 0][None, :], ep.obs[0].reshape(1, -1))
    ep.rewards[0] = q_tot[0]  # terminal target == prediction
    buf = ReplayBuffer(2)
    buf.add(ep)
    opt = Adam(pair.online_params(), learning_rate=0.1)
    before = [p.values.copy() for p in pair.online_params()]
    loss = learner_step(buf, pair, opt, 1, 0.99, rng)
    assert loss == pytest.approx(0.0, abs=1e-20)
    for p, b in zip(pair.online_params(), before):
        assert np.array_equal(p.values, b)


def test_a_new_target_pair_is_an_equal_copy_of_the_online_nets():
    pair = _pair(np.random.default_rng(14))
    target = [pair.target_net.flat, pair.target_mixer.flat]
    for p, q in zip(pair.online_params(), target, strict=True):
        assert np.array_equal(p.values, q.values), q.name
        assert not np.shares_memory(p.values, q.values), q.name
    for online_stack, target_stack in zip(pair.net.w + pair.net.b, pair.target_net.w + pair.target_net.b):
        assert not np.shares_memory(online_stack, target_stack)


def test_learner_step_leaves_every_grad_zero():
    """The backward passes accumulate into the grads; the optimizer's step is
    the one place that resets them, so the next step starts from zero."""
    rng = np.random.default_rng(15)
    pair = _pair(rng)
    opt = Adam(pair.online_params(), learning_rate=1e-3)
    buf = ReplayBuffer(8)
    for _ in range(6):
        buf.add(_episode(rng))
    for _ in range(3):
        learner_step(buf, pair, opt, 4, 0.99, rng)
        for p in pair.online_params() + pair.target_net.params() + pair.target_mixer.params():
            assert not p.grad.any(), p.name


def test_target_sync_schedule():
    rng = np.random.default_rng(11)
    pair = _pair(rng, sync=2)
    opt = Adam(pair.online_params(), learning_rate=1e-3)
    buf = ReplayBuffer(8)
    for _ in range(4):
        buf.add(_episode(rng))
    syncs0 = pair.syncs
    learner_step(buf, pair, opt, 2, 0.99, rng)
    assert pair.syncs == syncs0
    learner_step(buf, pair, opt, 2, 0.99, rng)
    assert pair.syncs == syncs0 + 1
    for p, q in zip(pair.net.params(), pair.target_net.params()):
        assert np.array_equal(p.values, q.values)


def test_greedy_invariance_under_positive_scaling():
    rng = np.random.default_rng(12)
    net = MLP(["a"], [3, 8, 8, 4], rng)
    greedy = EpsilonGreedyController(net, rng)
    obs, mask = rng.normal(size=(1, 3)), np.ones((1, 4), dtype=bool)
    a1 = greedy.act(obs, mask)
    # scaling the output layer scales every Q value by the same positive factor
    net.w[-1] *= 7.5
    net.b[-1] *= 7.5
    assert np.array_equal(greedy.act(obs, mask), a1)


def test_tabular_chain_convergence_to_value_iteration():
    """Two-state chain with known optimal Q: the full learner (agent net +
    mixer + targets) regresses its mixed value to within 0.05 of value
    iteration on its buffer's transitions in under 5000 steps."""
    rng = np.random.default_rng(42)
    P = {0: {0: 0, 1: 1}, 1: {0: 1, 1: 0}}
    R = {(0, 0): 0.0, (0, 1): 0.0, (1, 0): 1.0, (1, 1): 0.0}
    gamma = 0.9

    def onehot(s):
        v = np.zeros(2)
        v[s] = 1.0
        return v

    def episode(rng, L=8):
        states = [int(rng.integers(2))]
        actions, rewards = [], []
        for _ in range(L):
            s, a = states[-1], int(rng.integers(2))
            actions.append([a])
            rewards.append(R[(s, a)])
            states.append(P[s][a])
        return PreparedEpisode(
            obs=np.stack([onehot(s)[None, :] for s in states]),
            avail=np.ones((L + 1, 1, 2), dtype=bool),
            actions=np.array(actions),
            rewards=np.array(rewards),
        )

    net = MLP(["a0"], [2, 32, 32, 2], rng)
    mixer = MixingNet("mx", 1, 2, 8, rng)
    pair = TargetNetworkPair(net, mixer, 50)
    opt = Adam(pair.online_params(), learning_rate=1e-3)
    # every batch is the whole buffer, so each step descends the one loss
    # over all its transitions
    buf = ReplayBuffer(32)
    for _ in range(32):
        buf.add(episode(rng))
    # an episode's last transition does not bootstrap: from (s, a), the share
    # `ends` of the buffer's transitions that end an episode cut the
    # discounted next value
    taken, ends = np.zeros((2, 2)), np.zeros((2, 2))
    for e in buf.episodes:
        s, a = e.obs[:-1, 0].argmax(axis=1), e.actions[:, 0]
        np.add.at(taken, (s, a), 1)
        ends[s[-1], a[-1]] += 1
    ends /= taken
    q_star = np.zeros((2, 2))
    for _ in range(3000):
        v = q_star.max(axis=1)
        q_new = np.array([[R[(s, a)] + gamma * (1 - ends[s, a]) * v[P[s][a]] for a in range(2)] for s in range(2)])
        if np.abs(q_new - q_star).max() < 1e-13:
            break
        q_star = q_new
    for _ in range(4500):
        learner_step(buf, pair, opt, 32, gamma, rng)
    learned = np.zeros((2, 2))
    for s in range(2):
        q = net.forward(onehot(s)[None, None])[0][0, 0]
        for a in range(2):
            learned[s, a] = mixer.forward(np.array([[q[a]]]), onehot(s)[None])[0][0]
    assert np.max(np.abs(learned - q_star)) < 0.05
