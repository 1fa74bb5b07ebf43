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
    load_checkpoint,
    restore_optimizer,
    save_checkpoint,
)


def test_param_tensor_flat_storage_invariant():
    with pytest.raises(StructuralError):
        ParamTensor("p", (2, 3), np.zeros(5), np.zeros(5))
    p = ParamTensor.zeros("p", (2, 3))
    p.array[...] = 1.0
    assert p.values.sum() == 6.0  # shaped view writes through


def test_mlp_zero_weights_give_zero_output():
    rng = np.random.default_rng(0)
    mlp = MLP("m", [4, 8, 2], rng)
    for p in mlp.params():
        p.values[:] = 0.0
    y, _ = mlp.forward(rng.normal(size=4))
    assert np.all(y == 0.0)


def test_mlp_identity_single_layer():
    rng = np.random.default_rng(0)
    mlp = MLP("m", [3, 3], rng)
    mlp.layers[0].w.array[...] = np.eye(3)
    mlp.layers[0].b.values[:] = 0.0
    x = rng.normal(size=3)
    y, _ = mlp.forward(x)
    assert np.allclose(y, x, atol=0)


def test_mlp_matches_independent_forward_oracle():
    # second, independently written forward pass
    rng = np.random.default_rng(3)
    mlp = MLP("m", [4, 3, 2], rng)
    x = rng.normal(size=(6, 4))
    w0, b0 = mlp.layers[0].w.array, mlp.layers[0].b.array
    w1, b1 = mlp.layers[1].w.array, mlp.layers[1].b.array
    hidden = np.maximum(x @ w0.T + b0, 0.0)
    expected = hidden @ w1.T + b1
    y, _ = mlp.forward(x)
    assert np.max(np.abs(y - expected)) < 1e-12


def test_mlp_shape_mismatch():
    mlp = MLP("m", [4, 2], np.random.default_rng(0))
    with pytest.raises(StructuralError):
        mlp.forward(np.zeros(5))


def test_linear_layer_backward_identities():
    rng = np.random.default_rng(1)
    mlp = MLP("m", [3, 2], rng)
    x = rng.normal(size=(4, 3))
    y, cache = mlp.forward(x)
    upstream = rng.normal(size=(4, 2))
    mlp.backward(cache, upstream)
    assert np.allclose(mlp.layers[0].w.grad_array, upstream.T @ x)
    assert np.allclose(mlp.layers[0].b.grad_array, upstream.sum(axis=0))
    # zero upstream -> zero grads
    for p in mlp.params():
        p.zero_grad()
    y, cache = mlp.forward(x)
    mlp.backward(cache, np.zeros_like(y))
    assert all(np.all(p.grad == 0.0) for p in mlp.params())


def test_mlp_cache_is_single_use():
    from bystander.core import LifecycleError

    mlp = MLP("m", [3, 2], np.random.default_rng(0))
    y, cache = mlp.forward(np.zeros((1, 3)))
    mlp.backward(cache, np.zeros_like(y))
    with pytest.raises(LifecycleError):
        mlp.backward(cache, np.zeros_like(y))


def test_lstm_zero_params_zero_state_zero_output():
    cell = LSTMCell("c", 3, 5, np.random.default_rng(0))
    for p in cell.params():
        p.values[:] = 0.0
    y, state, _ = cell.step(np.ones(3), cell.initial_state())
    assert y == 0.0
    assert np.all(state.hidden == 0.0) and np.all(state.cell == 0.0)


def test_lstm_purity():
    rng = np.random.default_rng(5)
    cell = LSTMCell("c", 3, 4, rng)
    x = rng.normal(size=3)
    st0 = cell.initial_state()
    y1, s1, _ = cell.step(x, st0)
    y2, s2, _ = cell.step(x, st0)
    assert y1 == y2
    assert np.array_equal(s1.hidden, s2.hidden) and np.array_equal(s1.cell, s2.cell)


def test_lstm_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    cell = LSTMCell("c", 2, 6, rng)
    xs = rng.normal(size=(5, 1, 2))

    def loss_fn():
        st = cell.initial_state(batch=1)
        total = 0.0
        for t in range(5):
            y, st, _ = cell.step(xs[t], st)
            total += float(y[0])
        return total

    def backward_fn():
        for p in cell.params():
            p.zero_grad()
        st = cell.initial_state(batch=1)
        caches = []
        for t in range(5):
            _, st, cache = cell.step(xs[t], st)
            caches.append(cache)
        dh = dc = None
        for cache in reversed(caches):
            _, dh, dc = cell.backward_step(cache, np.array([1.0]), dh, dc)

    report = grad_check(loss_fn, cell.params(), backward_fn=backward_fn)
    assert report.max_rel_error < 1e-4, report


def test_adam_zero_gradient_is_fixed_point():
    p = ParamTensor.zeros("p", (3,))
    p.values[:] = [1.0, -2.0, 3.0]
    opt = Adam([p], learning_rate=0.1)
    opt.step()
    assert np.array_equal(p.values, [1.0, -2.0, 3.0])
    assert opt.state.step == 1


def test_adam_single_step_matches_hand_formula():
    # frozen from the bias-corrected update: m_hat = g, v_hat = g^2
    p = ParamTensor.zeros("p", (2,))
    p.grad[:] = [0.5, -2.0]
    lr, eps = 0.01, 1e-8
    expected = -lr * np.array([0.5, -2.0]) / (np.array([0.5, 2.0]) + eps)
    opt = Adam([p], learning_rate=lr, epsilon=eps)
    opt.step()
    assert np.max(np.abs(p.values - expected)) < 1e-15
    assert np.all(p.grad == 0.0)  # grads zeroed after the update


def test_adam_rejects_nan_gradient():
    p = ParamTensor.zeros("p", (2,))
    p.grad[:] = [np.nan, 0.0]
    opt = Adam([p])
    with pytest.raises(TrainingFault, match="p"):
        opt.step()


def test_adam_beta_validation():
    with pytest.raises(ValueError):
        Adam([ParamTensor.zeros("p", (1,))], beta1=1.0)


def test_grad_check_exact_for_linear_model():
    rng = np.random.default_rng(11)
    mlp = MLP("m", [4, 1], rng)
    x = rng.normal(size=(3, 4))

    def loss_fn():
        y, _ = mlp.forward(x)
        return float(y.sum())

    def backward_fn():
        for p in mlp.params():
            p.zero_grad()
        y, cache = mlp.forward(x)
        mlp.backward(cache, np.ones_like(y))

    report = grad_check(loss_fn, mlp.params(), backward_fn=backward_fn)
    assert report.max_rel_error < 1e-8


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_forward_determinism_property(seed):
    rng = np.random.default_rng(seed)
    mlp = MLP("m", [3, 5, 2], rng)
    x = rng.normal(size=(2, 3))
    y1, _ = mlp.forward(x)
    y2, _ = mlp.forward(x)
    assert np.array_equal(y1, y2)
    assert np.all(np.isfinite(y1))


def test_checkpoint_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(13)
    mlp = MLP("m", [4, 6, 2], rng)
    opt = Adam(mlp.params(), learning_rate=3e-4)
    x = rng.normal(size=(5, 4))
    for _ in range(3):
        y, cache = mlp.forward(x)
        mlp.backward(cache, y)
        opt.step()
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, mlp.params(), opt)
    params, opt_meta, fields = load_checkpoint(path)
    assert fields == {}
    for p in mlp.params():
        assert np.array_equal(params[p.name].values, p.values)
    mlp2 = MLP("m", [4, 6, 2], np.random.default_rng(99))
    for p in mlp2.params():
        p.values[:] = params[p.name].values
    opt2 = Adam(mlp2.params(), learning_rate=opt_meta["learning_rate"])
    restore_optimizer(opt2, opt_meta)
    assert opt2.state.step == opt.state.step
    # both continue identically
    for _ in range(2):
        for m in (mlp, mlp2):
            y, cache = m.forward(x)
            m.backward(cache, y)
        opt.step()
        opt2.step()
    for p, q in zip(mlp.params(), mlp2.params()):
        assert np.array_equal(p.values, q.values)
