import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bystander.core import StructuralError, TrainingFault
from bystander.neural import (
    Adam,
    LSTMCell,
    MLP,
    ParamTensor,
    grad_check,
)
from bystander.qmix import (
    MASK_SENTINEL,
    MixingNet,
    PreparedEpisode,
    ReplayBuffer,
    TargetNetworkPair,
    agent_rows,
    greedy_joint_q,
    learner_step,
    masked_q,
    stack_batch,
)


def test_param_tensor_flat_storage_invariant():
    with pytest.raises(StructuralError):
        ParamTensor("p", (2, 3), np.zeros(5), np.zeros(5))
    p = ParamTensor.zeros("p", (2, 3))
    p.array[...] = 1.0
    assert p.values.sum() == 6.0  # shaped view writes through


def test_mlp_zero_weights_give_zero_output():
    rng = np.random.default_rng(0)
    mlp = MLP(["m"], [4, 8, 2], rng)
    for p in mlp.params():
        p.values[:] = 0.0
    y, _ = mlp.forward(rng.normal(size=(1, 1, 4)))
    assert y.shape == (1, 1, 2) and np.all(y == 0.0)


def test_mlp_identity_single_layer():
    rng = np.random.default_rng(0)
    mlp = MLP(["m"], [3, 3], rng)
    mlp.w[0][0] = np.eye(3)
    mlp.b[0][0] = 0.0
    x = rng.normal(size=(1, 1, 3))
    y, _ = mlp.forward(x)
    assert np.allclose(y, x, atol=0)


def test_mlp_matches_independent_forward_oracle():
    # second, independently written forward pass
    rng = np.random.default_rng(3)
    mlp = MLP(["m"], [4, 3, 2], rng)
    x = rng.normal(size=(6, 4))
    params = {p.name: p.array for p in mlp.params()}
    hidden = np.maximum(x @ params["m.l0.w"].T + params["m.l0.b"], 0.0)
    expected = hidden @ params["m.l1.w"].T + params["m.l1.b"]
    y, _ = mlp.forward(x[None])
    assert np.max(np.abs(y[0] - expected)) < 1e-12


def test_mlp_shape_mismatch():
    mlp = MLP(["m"], [4, 2], np.random.default_rng(0))
    for bad in (np.zeros((1, 1, 5)), np.zeros((2, 1, 4)), np.zeros((1, 4))):
        with pytest.raises(StructuralError):
            mlp.forward(bad)


def test_linear_layer_backward_identities():
    rng = np.random.default_rng(1)
    mlp = MLP(["m"], [3, 2], rng)
    x = rng.normal(size=(1, 4, 3))
    y, cache = mlp.forward(x)
    upstream = rng.normal(size=(1, 4, 2))
    mlp.backward(cache, upstream)
    w, b = mlp.params()
    assert np.allclose(w.grad_array, upstream[0].T @ x[0])
    assert np.allclose(b.grad_array, upstream[0].sum(axis=0))
    # zero upstream -> zero grads
    for p in mlp.params():
        p.zero_grad()
    y, cache = mlp.forward(x)
    mlp.backward(cache, np.zeros_like(y))
    assert all(np.all(p.grad == 0.0) for p in mlp.params())


def test_mlp_cache_is_single_use():
    from bystander.core import LifecycleError

    mlp = MLP(["m"], [3, 2], np.random.default_rng(0))
    y, cache = mlp.forward(np.zeros((1, 1, 3)))
    mlp.backward(cache, np.zeros_like(y))
    with pytest.raises(LifecycleError):
        mlp.backward(cache, np.zeros_like(y))


def test_lstm_zero_params_zero_state_zero_output():
    cell = LSTMCell("c", 3, 5, np.random.default_rng(0))
    for p in cell.params():
        p.values[:] = 0.0
    y, h, c, _ = cell.step(np.ones((1, 3)), np.zeros((1, 5)), np.zeros((1, 5)))
    assert np.all(y == 0.0)
    assert np.all(h == 0.0) and np.all(c == 0.0)


def test_lstm_purity():
    rng = np.random.default_rng(5)
    cell = LSTMCell("c", 3, 4, rng)
    x = rng.normal(size=(1, 3))
    h0, c0 = np.zeros((1, 4)), np.zeros((1, 4))
    y1, h1, c1, _ = cell.step(x, h0, c0)
    y2, h2, c2, _ = cell.step(x, h0, c0)
    assert np.array_equal(y1, y2)
    assert np.array_equal(h1, h2) and np.array_equal(c1, c2)


def test_lstm_step_takes_batches_only():
    cell = LSTMCell("c", 3, 4, np.random.default_rng(0))
    with pytest.raises(StructuralError, match="input"):
        cell.step(np.ones(3), np.zeros((1, 4)), np.zeros((1, 4)))
    with pytest.raises(StructuralError, match="state"):
        cell.step(np.ones((2, 3)), np.zeros((1, 4)), np.zeros((1, 4)))


def test_lstm_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    cell = LSTMCell("c", 2, 6, rng)
    xs = rng.normal(size=(5, 1, 2))

    def loss_fn():
        h, c = np.zeros((1, 6)), np.zeros((1, 6))
        total = 0.0
        for t in range(5):
            y, h, c, _ = cell.step(xs[t], h, c)
            total += float(y[0])
        return total

    def backward_fn():
        h, c = np.zeros((1, 6)), np.zeros((1, 6))
        caches = []
        for t in range(5):
            _, h, c, cache = cell.step(xs[t], h, c)
            caches.append(cache)
        dh = dc = None
        for cache in reversed(caches):
            dh, dc = cell.backward_step(cache, np.array([1.0]), dh, dc)

    assert grad_check(loss_fn, cell.flat, backward_fn=backward_fn) < 1e-4


def test_backward_packed_with_per_row_gradients_matches_the_per_tick_reference():
    """Every packed row gets its own upstream gradient. The packed unroll's
    outputs and parameter gradients match each sequence stepped on its own,
    one batch-1 `step` and `backward_step` per tick, to 1e-12."""
    lengths = (7, 4, 4, 2, 1)
    live = np.array([sum(L > t for L in lengths) for t in range(max(lengths))])
    first_row = np.cumsum(live) - live
    for seed in range(5):
        rng = np.random.default_rng(seed)
        packed, reference = (LSTMCell("c", 5, 8, np.random.default_rng(100 + seed)) for _ in range(2))
        x = rng.normal(size=(sum(lengths), 5))
        dy = rng.normal(size=len(x))
        y, cache = packed.forward_packed(x, live)
        packed.backward_packed(cache, dy)
        for j, L in enumerate(lengths):
            rows = first_row[:L] + j  # sequence j's packed row at each of its ticks
            h, c, caches = np.zeros((1, 8)), np.zeros((1, 8)), []
            for r in rows:
                y_r, h, c, step_cache = reference.step(x[r : r + 1], h, c)
                assert abs(y_r[0] - y[r]) < 1e-12
                caches.append(step_cache)
            dh = dc = None
            for r, step_cache in zip(rows[::-1], caches[::-1]):
                dh, dc = reference.backward_step(step_cache, dy[r : r + 1], dh, dc)
        for p, q in zip(packed.params(), reference.params()):
            np.testing.assert_allclose(p.grad, q.grad, rtol=0, atol=1e-12, err_msg=p.name)


def test_adam_zero_gradient_is_fixed_point():
    p = ParamTensor.zeros("p", (3,))
    p.values[:] = [1.0, -2.0, 3.0]
    opt = Adam([p], learning_rate=0.1)
    opt.step()
    assert np.array_equal(p.values, [1.0, -2.0, 3.0])
    assert opt.steps == 1


def test_adam_single_step_matches_hand_formula():
    # frozen from the bias-corrected update: m_hat = g, v_hat = g^2
    p = ParamTensor.zeros("p", (2,))
    p.grad[:] = [0.5, -2.0]
    lr = 0.01
    expected = -lr * np.array([0.5, -2.0]) / (np.array([0.5, 2.0]) + 1e-8)
    opt = Adam([p], learning_rate=lr)
    opt.step()
    assert np.max(np.abs(p.values - expected)) < 1e-15
    assert np.all(p.grad == 0.0)  # grads zeroed after the update


def test_adam_rejects_nan_gradient():
    p = ParamTensor.zeros("p", (2,))
    p.grad[:] = [np.nan, 0.0]
    opt = Adam([p])
    with pytest.raises(TrainingFault, match="p"):
        opt.step()


def test_grad_check_exact_for_linear_model():
    rng = np.random.default_rng(11)
    mlp = MLP(["m"], [4, 1], rng)
    x = rng.normal(size=(1, 3, 4))

    def loss_fn():
        y, _ = mlp.forward(x)
        return float(y.sum())

    def backward_fn():
        y, cache = mlp.forward(x)
        mlp.backward(cache, np.ones_like(y))

    assert grad_check(loss_fn, mlp.flat, backward_fn=backward_fn) < 1e-8


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_forward_determinism_property(seed):
    rng = np.random.default_rng(seed)
    mlp = MLP(["m"], [3, 5, 2], rng)
    x = rng.normal(size=(1, 2, 3))
    y1, _ = mlp.forward(x)
    y2, _ = mlp.forward(x)
    assert np.array_equal(y1, y2)
    assert np.all(np.isfinite(y1))


# --- the agent stack against separate per-agent nets --------------------------
#
# The reference runs each agent's net as its own 2-D products, x @ W_i.T + b_i,
# on the agent's tensors; the stack must give the same bits, row batch by row
# batch, in the forward, the backward and one learner step.


def reference_forward(net, i, x):
    """Agent i's net on rows x (R, d_in), one 2-D product per layer; returns
    the output and each layer's input."""
    inputs = []
    last = len(net.w) - 1
    for l in range(len(net.w)):
        inputs.append(x)
        x = x @ net.w[l][i].T + net.b[l][i]
        if l < last:
            x = np.maximum(x, 0.0)
    return x, inputs


def reference_backward(net, i, inputs, dy):
    """Agent i's (weight grads, bias grads) for upstream dy."""
    dws, dbs = [], []
    for l in reversed(range(len(net.w))):
        if l < len(net.w) - 1:
            dy = dy * (inputs[l + 1] > 0)
        dws.insert(0, dy.T @ inputs[l])
        dbs.insert(0, dy.sum(axis=0))
        dy = dy @ net.w[l][i]
    return dws, dbs


def _stacked(seed=0, n=3, dims=(31, 64, 64, 7)):
    return MLP([f"victim{i}" for i in range(n)], dims, np.random.default_rng(seed))


@pytest.mark.parametrize("rows", [1, 2, 3, 7, 32, 63, 256, 400])
def test_stacked_forward_is_each_agents_forward_bit_for_bit(rows):
    net = _stacked()
    rng = np.random.default_rng(rows)
    x = rng.normal(size=(net.n_agents, rows, net.dims[0]))
    y, _ = net.forward(x)
    assert y.shape == (net.n_agents, rows, net.dims[-1])
    for i in range(net.n_agents):
        assert np.array_equal(y[i], reference_forward(net, i, x[i])[0])
    # the learner's layout: rows of (rows, n, D), each agent's a strided view
    obs = rng.normal(size=(rows, net.n_agents, net.dims[0]))
    avail = rng.random((rows, net.n_agents, net.dims[-1])) < 0.7
    q = masked_q(net, obs, avail)
    for i in range(net.n_agents):
        expected = np.where(avail[:, i], reference_forward(net, i, obs[:, i])[0], MASK_SENTINEL)
        assert np.array_equal(q[:, i], expected)
    # one state, as controllers and frozen policies act on it
    one = masked_q(net, obs[0], avail[0])
    for i in range(net.n_agents):
        expected = np.where(avail[0, i], reference_forward(net, i, obs[0, i : i + 1])[0][0], MASK_SENTINEL)
        assert np.array_equal(one[i], expected)


@pytest.mark.parametrize("rows", [1, 5, 400])
def test_stacked_backward_is_each_agents_backward_bit_for_bit(rows):
    net = _stacked(seed=1)
    rng = np.random.default_rng(rows)
    x = rng.normal(size=(net.n_agents, rows, net.dims[0]))
    dy = rng.normal(size=(net.n_agents, rows, net.dims[-1]))
    _, cache = net.forward(x)
    assert net.backward(cache, dy) is None
    for i in range(net.n_agents):
        _, inputs = reference_forward(net, i, x[i])
        dws, dbs = reference_backward(net, i, inputs, dy[i])
        for l in range(len(net.w)):
            assert np.array_equal(net.w_grad[l][i], dws[l])
            assert np.array_equal(net.b_grad[l][i], dbs[l])


def test_agent_tensors_are_views_into_the_stacks_in_agent_order():
    net = _stacked(n=2, dims=(3, 4, 2))
    names = [p.name for p in net.params()]
    assert names == [f"victim{i}.l{l}.{k}" for i in range(2) for l in range(2) for k in "wb"]
    for p in net.params():
        agent, layer = int(p.name[6]), int(p.name[9])
        stack, grads = (net.w, net.w_grad) if p.name.endswith(".w") else (net.b, net.b_grad)
        assert np.shares_memory(p.values, stack[layer][agent]) and np.shares_memory(p.grad, grads[layer][agent])
    # the seeded draw order of separate nets: agent 0's layers, then agent 1's
    rng = np.random.default_rng(0)
    for i in range(2):
        for l, (d_in, d_out) in enumerate([(3, 4), (4, 2)]):
            w = rng.uniform(-1 / np.sqrt(d_in), 1 / np.sqrt(d_in), size=d_out * d_in)
            assert np.array_equal(net.w[l][i].reshape(-1), w)


def reference_learner_step(buffer, pair, optimizer, batch_size, gamma, rng):
    """learner_step with one forward and one backward per agent net, on the
    same packed rows."""
    batch = stack_batch(buffer.sample(batch_size, rng))
    N, n, D = batch.obs.shape
    nxt, nxt_avail = batch.next_obs, batch.next_avail
    best = np.stack(
        [np.where(nxt_avail[:, i], reference_forward(pair.target_net, i, nxt[:, i])[0], MASK_SENTINEL).max(axis=-1) for i in range(n)],
        axis=-1,
    )
    q_next, _ = pair.target_mixer.forward(best, nxt.reshape(N, n * D))
    targets = batch.rewards + gamma * np.where(batch.terminal, 0.0, q_next)
    outs = [reference_forward(pair.net, i, batch.obs[:, i]) for i in range(n)]
    actions = batch.actions
    chosen = np.stack([np.take_along_axis(q, actions[:, i : i + 1], axis=1)[:, 0] for i, (q, _) in enumerate(outs)], axis=-1)
    q_tot, mix_cache = pair.mixer.forward(chosen, batch.obs.reshape(N, n * D))
    err = q_tot - targets
    dq = pair.mixer.backward(mix_cache, 2.0 * err / N)
    for i, (q, inputs) in enumerate(outs):
        dy = np.zeros_like(q)
        np.put_along_axis(dy, actions[:, i : i + 1], dq[:, i : i + 1], axis=1)
        dws, dbs = reference_backward(pair.net, i, inputs, dy)
        for l in range(len(dws)):
            pair.net.w_grad[l][i] += dws[l]
            pair.net.b_grad[l][i] += dbs[l]
    optimizer.step()
    pair.tick()
    return float((err**2).sum() / N)


def padded_learner_step(buffer, pair, optimizer, batch_size, gamma, rng):
    """learner_step over the zero-padded grid: every sampled episode padded
    to the longest (noop available in padding states), every product over
    all B x T_max rows, and the padding masked out of the loss."""
    episodes = buffer.sample(batch_size, rng)
    B, T = len(episodes), max(len(e) for e in episodes)
    n, D = episodes[0].obs.shape[1:]
    A = episodes[0].avail.shape[2]
    obs, avail = np.zeros((B, T + 1, n, D)), np.zeros((B, T + 1, n, A), dtype=bool)
    avail[..., 0] = True
    actions, rewards = np.zeros((B, T, n), dtype=int), np.zeros((B, T))
    terminal, mask = np.zeros((B, T), dtype=bool), np.zeros((B, T), dtype=bool)
    for b, e in enumerate(episodes):
        L = len(e)
        obs[b, : L + 1], avail[b, : L + 1] = e.obs, e.avail
        actions[b, :L], rewards[b, :L], terminal[b, L - 1], mask[b, :L] = e.actions, e.rewards, True, True
    nxt = obs[:, 1:].reshape(B * T, n, D)
    q_next = greedy_joint_q(pair.target_net, pair.target_mixer, nxt, avail[:, 1:].reshape(B * T, n, A))
    targets = rewards + gamma * np.where(terminal, 0.0, q_next.reshape(B, T))
    flat = obs[:, :T].reshape(B * T, n, D)
    picked = actions.reshape(B * T, n).T[:, :, None]
    q, cache = pair.net.forward(agent_rows(flat))
    chosen = np.take_along_axis(q, picked, axis=2)[:, :, 0].T
    q_tot, mix_cache = pair.mixer.forward(chosen, flat.reshape(B * T, n * D))
    count = mask.sum()
    err = np.where(mask, q_tot.reshape(B, T) - targets, 0.0)
    dq = pair.mixer.backward(mix_cache, (2.0 * err / count).reshape(B * T))
    dq_full = np.zeros_like(q)
    np.put_along_axis(dq_full, picked, dq.T[:, :, None], axis=2)
    pair.net.backward(cache, dq_full)
    optimizer.step()
    pair.tick()
    return float((err**2).sum() / count)


def _learner(seed=5, n=3, D=6, A=4):
    rng = np.random.default_rng(seed)
    net = MLP([f"a{i}" for i in range(n)], [D, 16, 16, A], rng)
    pair = TargetNetworkPair(net, MixingNet("mx", n, n * D, 8, rng), 2)
    return pair, Adam(pair.online_params(), learning_rate=1e-2)


def _ragged_buffer():
    """Six episodes of 1 to 9 steps, some actions masked, each ending terminal."""
    rng = np.random.default_rng(3)
    buffer = ReplayBuffer(16)
    for T in (1, 4, 9, 2, 6, 3):
        avail = rng.random((T + 1, 3, 4)) < 0.7
        avail[..., 0] = True
        buffer.add(
            PreparedEpisode(
                obs=rng.normal(size=(T + 1, 3, 6)),
                avail=avail,
                actions=rng.integers(0, 4, size=(T, 3)),
                rewards=rng.normal(size=T),
            )
        )
    return buffer


def test_learner_step_matches_per_agent_reference_bit_for_bit():
    buffer = _ragged_buffer()
    (stacked, opt_s), (reference, opt_r) = _learner(), _learner()
    rng_s, rng_r = np.random.default_rng(9), np.random.default_rng(9)
    # three steps, so that one runs after a target sync
    for _ in range(3):
        loss_s = learner_step(buffer, stacked, opt_s, 4, 0.99, rng_s)
        loss_r = reference_learner_step(buffer, reference, opt_r, 4, 0.99, rng_r)
        assert loss_s == loss_r
        for p, q in zip(stacked.online_params(), reference.online_params()):
            assert p.name == q.name and np.array_equal(p.values, q.values), p.name
    assert stacked.syncs == reference.syncs == 2


def test_packed_learner_step_matches_the_padded_grid():
    """Dropping the padding rows changes only the order of the sums over
    rows, so the packed step agrees with the padded one to rounding. Over
    20 seeds of this set-up, the three losses agreed to 5.5e-16 relative
    and every parameter after three steps to 2.0e-16 absolute."""
    buffer = _ragged_buffer()
    (packed, opt_p), (padded, opt_g) = _learner(), _learner()
    rng_p, rng_g = np.random.default_rng(9), np.random.default_rng(9)
    for _ in range(3):
        loss_p = learner_step(buffer, packed, opt_p, 4, 0.99, rng_p)
        loss_g = padded_learner_step(buffer, padded, opt_g, 4, 0.99, rng_g)
        assert loss_p == pytest.approx(loss_g, rel=1e-14, abs=0)
        for p, q in zip(packed.online_params(), padded.online_params()):
            np.testing.assert_allclose(p.values, q.values, rtol=0, atol=1e-15, err_msg=p.name)


# --- one parameter store per module -------------------------------------------
#
# Each module keeps one values and one grad array, its `flat` store, and every
# tensor it reads is a view into them: the optimizer, the target sync and the
# gradient check act on the store, checkpoints and checksums on the views.


def _modules():
    rng = np.random.default_rng(21)
    mlp = MLP([f"a{i}" for i in range(3)], [5, 7, 4], rng)
    return [mlp, MixingNet("mx", 3, 6, 4, rng), LSTMCell("c", 3, 5, rng)]


@pytest.mark.parametrize("module", _modules(), ids=["mlp", "mixer", "lstm"])
def test_every_tensor_is_a_view_into_its_modules_store(module):
    store = module.flat
    for p in module.params():
        assert np.shares_memory(p.values, store.values) and np.shares_memory(p.grad, store.grad), p.name
    if isinstance(module, MLP):
        # each layer's stack is one contiguous run of the store
        for stacks, array in ((module.w + module.b, store.values), (module.w_grad + module.b_grad, store.grad)):
            for stack in stacks:
                assert np.shares_memory(stack, array) and stack.flags.c_contiguous


@pytest.mark.parametrize("module", _modules(), ids=["mlp", "mixer", "lstm"])
def test_the_tensors_tile_the_store_exactly(module):
    n = module.flat.values.size
    module.flat.values[:] = np.arange(n)
    module.flat.grad[:] = np.arange(n) + n
    for field, offset in (("values", 0), ("grad", n)):
        tiles = np.sort(np.concatenate([getattr(p, field) for p in module.params()]))
        assert np.array_equal(tiles, np.arange(n) + offset), field


def test_a_write_through_an_agent_tensor_shows_in_its_stack():
    mlp = _modules()[0]
    w = next(p for p in mlp.params() if p.name == "a2.l1.w")
    b = next(p for p in mlp.params() if p.name == "a1.l0.b")
    w.array[3, 2] = 7.5
    w.grad_array[0, 1] = -2.5
    b.values[4] = 1.25
    assert mlp.w[1][2, 3, 2] == 7.5 and mlp.w_grad[1][2, 0, 1] == -2.5 and mlp.b[0][1, 4] == 1.25


def test_adam_on_the_stores_is_adam_on_every_tensor_bit_for_bit():
    """Adam is elementwise, so 20 learner steps updating the net's and the
    mixer's stores leave the same bits as updating each of their tensors."""
    buffer = _ragged_buffer()
    (stores, opt_s), (tensors, _) = _learner(), _learner()
    opt_t = Adam(tensors.net.params() + tensors.mixer.params(), learning_rate=1e-2)
    assert len(opt_s.params) == 2 and len(opt_t.params) > 2
    rng_s, rng_t = np.random.default_rng(9), np.random.default_rng(9)
    for _ in range(20):
        assert learner_step(buffer, stores, opt_s, 4, 0.99, rng_s) == learner_step(buffer, tensors, opt_t, 4, 0.99, rng_t)
    for module in ("net", "mixer", "target_net", "target_mixer"):
        assert np.array_equal(getattr(stores, module).flat.values, getattr(tensors, module).flat.values), module
