from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bystander.checks import episode_sum_gradient_residual
from bystander.core import ContractViolation, StepOutcome, StructuralError
from bystander.neural import Adam
from bystander.rewards import EpisodeEstimator, RewardModel, reward_model_update, terminal_reward
from bystander.training import rule_immediate_rewards


def out(terminal, success=False, signals=(0.0, 0.0)):
    return StepOutcome(terminal, success, np.asarray(signals, dtype=float))


def rule_scores(weights, *outcomes):
    """rule_immediate_rewards, at r_fail 20, of an episode of these step
    outcomes; the rule reads nothing else of the trajectory."""
    return rule_immediate_rewards(np.asarray(weights), 20.0, SimpleNamespace(outcomes=outcomes))


def test_weighted_reward_examples():
    # on a non-terminal step the rule-based reward is the weighted signal sum
    def scored(weights, signals):
        return rule_scores(weights, out(False, signals=signals), out(True, success=True, signals=signals))[0]

    assert scored([1.0, 0.0], [0.5, 9.0]) == 0.5
    assert scored([0.5, 0.5, 0.0], [2.0, 4.0, 8.0]) == 3.0
    assert scored([0.7, 0.3], [0.0, 0.0]) == 0.0


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.floats(min_value=0.0, max_value=10.0),
    st.floats(min_value=0.0, max_value=10.0),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_weighted_reward_linear_in_signals(n, a, b, seed):
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.1, 1.0, size=n)
    r1, r2 = rng.uniform(0.0, 5.0, size=n), rng.uniform(0.0, 5.0, size=n)

    def scored(signals):
        return rule_scores(w, out(False, signals=signals), out(True, success=True, signals=signals))[0]

    assert scored(a * r1 + b * r2) == pytest.approx(a * scored(r1) + b * scored(r2), rel=1e-12, abs=1e-12)


def test_terminal_rule_success_is_zero():
    assert terminal_reward(out(True, success=True), r_fail=20.0) == 0.0


def test_terminal_rule_failure_is_r_fail():
    gt = terminal_reward(out(True), r_fail=20)
    assert gt == 20.0 and type(gt) is float


def test_terminal_rule_rejects_nonterminal():
    with pytest.raises(ContractViolation):
        terminal_reward(out(False), r_fail=20.0)


def test_rule_immediate_reward_adds_the_terminal_ground_truth():
    w = np.array([0.7, 0.3])
    signals = [0.0, 1.0 / 60.0]
    step, failed = rule_scores(w, out(False, signals=signals), out(True, signals=signals))
    assert step == pytest.approx(0.3 / 60.0)
    assert failed == step + 20.0
    assert rule_scores(w, out(False, signals=signals), out(True, success=True, signals=signals))[1] == step


def test_zero_model_estimates_zero():
    model = RewardModel(4, 6, np.random.default_rng(0))
    for p in model.params():
        p.values[:] = 0.0
    est = EpisodeEstimator(model, clip=5.0)
    assert est.step(np.ones(4)) == 0.0
    assert not est.hidden.any() and not est.cell.any()


def test_estimate_layout_mismatch():
    model = RewardModel(4, 6, np.random.default_rng(0))
    with pytest.raises(StructuralError):
        EpisodeEstimator(model, clip=5.0).step(np.ones(5))


def test_episode_replay_matches_streaming_sum():
    rng = np.random.default_rng(3)
    model = RewardModel(5, 8, rng)
    episode = rng.normal(size=(10, 5))
    est = EpisodeEstimator(model, clip=100.0)
    streamed = sum(est.step(row) for row in episode)
    replayed = model.episode_sums([episode])[0]
    assert streamed == pytest.approx(replayed, abs=1e-12)
    # deterministic replay
    assert model.episode_sums([episode])[0] == replayed


def test_episode_isolation_state_reset():
    rng = np.random.default_rng(4)
    model = RewardModel(3, 6, rng)
    ep = rng.normal(size=(6, 3))
    first = model.episode_sums([ep])[0]
    model.episode_sums([rng.normal(size=(9, 3))])  # unrelated episode between
    assert model.episode_sums([ep])[0] == first  # no state leaks across episodes


def test_update_loss_zero_at_fixed_point():
    rng = np.random.default_rng(5)
    model = RewardModel(3, 6, rng)
    episodes = [rng.normal(size=(4, 3)) for _ in range(3)]
    gts = [float(model.episode_sums([ep])[0]) for ep in episodes]
    opt = Adam(model.params(), learning_rate=0.0)
    loss = reward_model_update(model, episodes, gts, opt)
    assert loss == pytest.approx(0.0, abs=1e-24)


def test_update_leaves_every_grad_zero():
    """The packed backward accumulates into the grads; the optimizer's step
    is the one place that resets them, so the next update starts from zero."""
    rng = np.random.default_rng(16)
    model = RewardModel(3, 6, rng)
    opt = Adam(model.params(), learning_rate=1e-2)
    for lengths in ([4, 1, 6], [2], [5, 5]):
        reward_model_update(model, [rng.normal(size=(T, 3)) for T in lengths], list(rng.normal(size=len(lengths))), opt)
        for p in model.params():
            assert not p.grad.any(), p.name


def test_update_single_step_episode_hand_computed():
    # one 1-step episode: loss = (gt - y)^2 with y the cell's scalar head
    rng = np.random.default_rng(6)
    model = RewardModel(2, 4, rng)
    ep = rng.normal(size=(1, 2))
    y0 = model.episode_sums([ep])[0]
    gt = 3.0
    opt = Adam(model.params(), learning_rate=0.0)
    loss = reward_model_update(model, [ep], [gt], opt)
    assert loss == pytest.approx((gt - y0) ** 2, rel=1e-10)


def test_update_rejects_misaligned_batch():
    model = RewardModel(2, 4, np.random.default_rng(0))
    with pytest.raises(StructuralError):
        reward_model_update(model, [np.zeros((2, 2))], [1.0, 2.0], Adam(model.params()))
    with pytest.raises(StructuralError):
        reward_model_update(model, [], [], Adam(model.params()))
    with pytest.raises(StructuralError):
        reward_model_update(model, [np.zeros((3, 2)), np.zeros((2, 3))], [1.0, 2.0], Adam(model.params()))


def test_loss_nonnegative_and_decreases_on_synthetic_corpus():
    rng = np.random.default_rng(7)
    model = RewardModel(3, 16, rng)
    w_true = np.array([1.0, -2.0, 0.5])
    episodes = [rng.uniform(-1, 1, size=(8, 3)) for _ in range(64)]
    gts = [float((ep @ w_true).sum()) for ep in episodes]
    opt = Adam(model.params(), learning_rate=3e-3)
    first = reward_model_update(model, episodes, gts, opt)
    losses = [reward_model_update(model, episodes, gts, opt) for _ in range(150)]
    assert first >= 0.0 and all(l >= 0.0 for l in losses)
    assert losses[-1] < 0.25 * first


def test_estimator_clipping():
    rng = np.random.default_rng(8)
    model = RewardModel(2, 4, rng)
    model.cell.b_out.values[:] = 50.0  # force a huge raw estimate
    assert EpisodeEstimator(model, clip=5.0).step(np.zeros(2)) == 5.0
    raw, *_ = model.cell.step(np.zeros((1, 2)), np.zeros((1, 4)), np.zeros((1, 4)))
    assert raw[0] > 5.0  # the cell's raw value, before the clip


def per_episode_update(model, episodes, ground_truths, optimizer):
    """Reference: the same update with every episode unrolled on its own,
    one batch-1 cell step at a time."""
    n = len(episodes)
    loss = 0.0
    for ep, gt in zip(episodes, ground_truths):
        h, c = np.zeros((1, model.hidden)), np.zeros((1, model.hidden))
        caches = []
        total = 0.0
        for t in range(len(ep)):
            y, h, c, cache = model.cell.step(ep[t : t + 1], h, c)
            caches.append(cache)
            total += float(y[0])
        err = total - gt
        loss += err * err / n
        dh = dc = None
        for cache in reversed(caches):
            dh, dc = model.cell.backward_step(cache, np.array([2.0 * err / n]), dh, dc)
    optimizer.step()
    return loss


# ragged batches: a length-1 episode, a single-episode batch, a batch of
# equal lengths and one whose longest episode is not first
RAGGED_BATCHES = [[7, 3, 1, 12], [1], [5, 5], [2, 9, 1, 4, 6, 8, 3], [4]]
# the attack workload's shape: 16 episodes of 1 to 40 steps
WORKLOAD_BATCHES = [[1, 40, *row] for row in np.random.default_rng(24).integers(1, 41, size=(3, 14)).tolist()]


def test_batched_update_matches_per_episode_reference():
    for input_dim, hidden, batches in [(5, 8, RAGGED_BATCHES * 4), (62, 64, WORKLOAD_BATCHES)]:
        rng = np.random.default_rng(21)
        batched, reference = (RewardModel(input_dim, hidden, np.random.default_rng(9)) for _ in range(2))
        opt_b = Adam(batched.params(), learning_rate=1e-2)
        opt_r = Adam(reference.params(), learning_rate=1e-2)
        for lengths in batches:
            episodes = [rng.normal(size=(T, input_dim)) for T in lengths]
            gts = list(rng.uniform(0.0, 20.0, size=len(lengths)))
            loss_b = reward_model_update(batched, episodes, gts, opt_b)
            loss_r = per_episode_update(reference, episodes, gts, opt_r)
            assert loss_b == pytest.approx(loss_r, rel=1e-12, abs=0.0)
        for pb, pr in zip(batched.params(), reference.params()):
            np.testing.assert_allclose(pb.values, pr.values, rtol=0.0, atol=1e-12)


def test_batched_episode_sums_match_one_at_a_time():
    rng = np.random.default_rng(22)
    model = RewardModel(5, 8, rng)
    for lengths in RAGGED_BATCHES:
        episodes = [rng.normal(size=(T, 5)) for T in lengths]
        one_at_a_time = []
        for ep in episodes:
            est = EpisodeEstimator(model, clip=np.inf)
            one_at_a_time.append(sum(est.step(row) for row in ep))
        np.testing.assert_allclose(model.episode_sums(episodes), one_at_a_time, rtol=0.0, atol=1e-12)


def test_shipped_episode_sum_gradient_matches_finite_differences():
    assert episode_sum_gradient_residual(seeds=(0,)) < 1e-4


def test_unroll_steps_only_live_rows():
    rng = np.random.default_rng(23)
    model = RewardModel(5, 8, rng)
    lengths = [2, 9, 1, 4, 6, 8, 3]
    sums, cache, episode = model.unroll([rng.normal(size=(T, 5)) for T in lengths])
    # tick t holds the episodes still running, longest first
    live = [sum(T > t for T in lengths) for t in range(max(lengths))]
    assert cache.live.tolist() == live
    assert [lengths[k] for k in episode[: live[0]]] == sorted(lengths, reverse=True)
    # exactly one packed row per real step
    assert len(cache.x) == len(cache.h) == len(episode) == sum(lengths)
    np.testing.assert_array_equal(np.bincount(episode), lengths)
    assert sums.shape == (len(lengths),)


def test_a_non_finite_recurrent_state_is_refused():
    rng = np.random.default_rng(25)
    model = RewardModel(4, 6, rng)
    episodes = [rng.normal(size=(T, 4)) for T in (5, 3)]
    episodes[1][2, 1] = np.nan
    with pytest.raises(StructuralError, match="finite"):
        model.episode_sums(episodes)
    with pytest.raises(StructuralError, match="finite"):
        reward_model_update(model, episodes, [1.0, 2.0], Adam(model.params()))
    est = EpisodeEstimator(model, clip=5.0)
    est.step(episodes[0][0])
    with pytest.raises(StructuralError, match="finite"):
        est.step(np.full(4, np.nan))
