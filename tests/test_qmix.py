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
    select_action,
    stack_batch,
    td_targets,
)


def test_agent_q_matches_independent_forward():
    rng = np.random.default_rng(2)
    net = MLP("a", [5, 8, 8, 4], rng)
    obs = rng.normal(size=5)
    ws = [l.w.array for l in net.layers]
    bs = [l.b.array for l in net.layers]
    h1 = np.maximum(obs @ ws[0].T + bs[0], 0)
    h2 = np.maximum(h1 @ ws[1].T + bs[1], 0)
    expected = h2 @ ws[2].T + bs[2]
    q, _ = net.forward(obs)
    assert np.max(np.abs(q - expected)) < 1e-12


def test_masked_q_is_each_agents_forward_with_the_sentinel():
    rng = np.random.default_rng(5)
    nets = [MLP(f"a{i}", [5, 8, 4], rng) for i in range(3)]
    obs = rng.normal(size=(6, 3, 5))
    avail = rng.random((6, 3, 4)) < 0.5
    rows = masked_q(nets, obs, avail)
    assert rows.shape == (6, 3, 4)
    for r in range(6):
        one = masked_q(nets, obs[r], avail[r])
        expected = [np.where(avail[r, i], net.forward(obs[r, i])[0], MASK_SENTINEL) for i, net in enumerate(nets)]
        assert np.array_equal(one, np.stack(expected))
        np.testing.assert_allclose(rows[r], one, rtol=1e-12)


def test_select_action_greedy_and_ties():
    rng = np.random.default_rng(0)
    assert select_action(np.array([1.0, 3.0, 2.0]), 0.0, rng) == 1
    assert select_action(np.array([2.0, 2.0]), 0.0, rng) == 0  # tie -> lowest id
    with pytest.raises(ContractViolation):
        select_action(np.full(3, MASK_SENTINEL), 0.0, rng)


def test_select_action_uniform_exploration():
    rng = np.random.default_rng(123)
    q = np.array([0.0, 1.0, 2.0, 3.0])
    n = 100_000
    counts = np.bincount([select_action(q, 1.0, rng) for _ in range(n)], minlength=4)
    # binomial 3-sigma bound around p = 1/4
    sigma = np.sqrt(n * 0.25 * 0.75)
    assert np.all(np.abs(counts - n * 0.25) < 3 * sigma)


def test_select_action_respects_mask_when_exploring():
    rng = np.random.default_rng(7)
    q = np.array([MASK_SENTINEL, 1.0, MASK_SENTINEL, 0.0])
    picks = {select_action(q, 1.0, rng) for _ in range(200)}
    assert picks <= {1, 3}


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
    cond = np.zeros(2)
    assert mixer.forward(np.array([3.0]), cond)[0] == pytest.approx(3.25)
    assert mixer.forward(np.array([5.0]), cond)[0] == pytest.approx(5.25)


def test_mixer_positivity_transform():
    rng = np.random.default_rng(4)
    mixer = MixingNet("m", 2, 3, 4, rng)
    cond = rng.normal(size=3)
    q = rng.normal(size=2)
    _, cache = mixer.forward(q, cond)
    raw = cache.w1_raw
    assert np.all(cache.w1.reshape(raw.shape) == np.abs(raw))


def test_mixer_monotone_finite_difference():
    rng = np.random.default_rng(5)
    eps = 1e-6
    for _ in range(200):
        n = int(rng.integers(1, 4))
        mixer = MixingNet("m", n, 4, 5, rng)
        q = rng.normal(size=n)
        cond = rng.normal(size=4)
        for i in range(n):
            hi, lo = q.copy(), q.copy()
            hi[i] += eps
            lo[i] -= eps
            slope = (mixer.forward(hi, cond)[0] - mixer.forward(lo, cond)[0]) / (2 * eps)
            assert slope >= -1e-9


def test_mixer_shape_errors():
    mixer = MixingNet("m", 2, 3, 4, np.random.default_rng(0))
    with pytest.raises(StructuralError):
        mixer.forward(np.zeros(3), np.zeros(3))
    with pytest.raises(StructuralError):
        mixer.forward(np.zeros(2), np.zeros(4))


def _episode(rng, T=4, n=2, D=3, A=3):
    return PreparedEpisode(
        obs=rng.normal(size=(T + 1, n, D)),
        avail=np.ones((T + 1, n, A), dtype=bool),
        actions=rng.integers(0, A, size=(T, n)),
        rewards=rng.normal(size=T),
        terminal=np.array([False] * (T - 1) + [True]),
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
        terminal=np.zeros(3, dtype=bool),
    )
    assert len(PreparedEpisode(**arrays)) == 3
    for field in ("obs", "avail", "actions", "terminal"):
        # states must number T+1, per-transition arrays T
        short = {**arrays, field: arrays[field][:-1]}
        with pytest.raises(StructuralError, match=field):
            PreparedEpisode(**short)


def _pair(rng, n=2, D=3, A=3, hidden=8, embed=4, sync=50):
    nets = [MLP(f"a{i}", [D, hidden, hidden, A], rng) for i in range(n)]
    mixer = MixingNet("mx", n, n * D, embed, rng)
    return TargetNetworkPair(nets, mixer, sync, rng)


def test_td_targets_terminal_and_gamma():
    rng = np.random.default_rng(7)
    pair = _pair(rng)
    ep = _episode(rng)
    batch = stack_batch([ep])
    # terminal step: y = r exactly
    y = td_targets(batch, pair, batch.rewards, gamma=0.9)
    assert y[0, -1] == pytest.approx(ep.rewards[-1])
    # gamma = 0: y = r everywhere
    y0 = td_targets(batch, pair, batch.rewards, gamma=0.0)
    assert np.allclose(y0[0], ep.rewards)
    # hand substitution: y = r + gamma * greedy Q_tot
    qn = greedy_joint_q(pair.target_nets, pair.target_mixer, ep.obs[1:], ep.avail[1:])
    y9 = td_targets(batch, pair, batch.rewards, gamma=0.9)
    expect = ep.rewards + 0.9 * np.where(ep.terminal, 0.0, qn)
    assert np.allclose(y9[0], expect)
    with pytest.raises(StructuralError):
        td_targets(batch, pair, np.zeros((2, 99)), gamma=0.9)


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
        terminal=np.array([True]),
    )
    # hand computation: terminal -> y = 5; loss = (q_tot - 5)^2, the mixer
    # reading the first state's observations
    q, _ = pair.nets[0].forward(ep.obs[0])
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
        terminal=np.array([True]),
    )
    q, _ = pair.nets[0].forward(ep.obs[0])
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
    for p, q in zip(pair.nets[0].params(), pair.target_nets[0].params()):
        assert np.array_equal(p.values, q.values)


def test_greedy_invariance_under_positive_scaling():
    rng = np.random.default_rng(12)
    net = MLP("a", [3, 8, 8, 4], rng)
    obs = rng.normal(size=3)
    mask = np.ones(4, dtype=bool)
    q = np.where(mask, net.forward(obs)[0], MASK_SENTINEL)
    a1 = select_action(q, 0.0, rng)
    scaled = np.where(mask, q * 7.5, MASK_SENTINEL)
    assert select_action(scaled, 0.0, rng) == a1


def test_tabular_chain_convergence_to_value_iteration():
    """Two-state chain with known optimal Q: the full learner (agent net +
    mixer + targets) regresses its mixed value to within 0.05 of value
    iteration in under 5000 steps."""
    rng = np.random.default_rng(42)
    P = {0: {0: 0, 1: 1}, 1: {0: 1, 1: 0}}
    R = {(0, 0): 0.0, (0, 1): 0.0, (1, 0): 1.0, (1, 1): 0.0}
    gamma = 0.9
    q_star = np.zeros((2, 2))
    for _ in range(3000):
        v = q_star.max(axis=1)
        q_new = np.array([[R[(s, a)] + gamma * v[P[s][a]] for a in range(2)] for s in range(2)])
        if np.abs(q_new - q_star).max() < 1e-13:
            break
        q_star = q_new

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
            terminal=np.zeros(L, dtype=bool),  # continuing task: bootstrap everywhere
        )

    nets = [MLP("a0", [2, 32, 32, 2], rng)]
    mixer = MixingNet("mx", 1, 2, 8, rng)
    pair = TargetNetworkPair(nets, mixer, 50, rng)
    opt = Adam(pair.online_params(), learning_rate=1e-3)
    buf = ReplayBuffer(300)
    for _ in range(300):
        buf.add(episode(rng))
    for _ in range(4500):
        learner_step(buf, pair, opt, 32, gamma, rng)
    learned = np.zeros((2, 2))
    for s in range(2):
        q, _ = nets[0].forward(onehot(s))
        for a in range(2):
            learned[s, a] = mixer.forward(np.array([q[a]]), onehot(s))[0]
    assert np.max(np.abs(learned - q_star)) < 0.05
