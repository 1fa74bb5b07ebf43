"""Minimal differentiable building blocks with hand-written gradients.

Feed-forward nets, a gated recurrent (LSTM-style) cell with a scalar head,
and an adaptive-moment optimizer. The cell has two paths: one batched tick
(`step`/`backward_step`, which the reward estimator streams through) and a
packed unroll of ragged sequences (`forward_packed`/`backward_packed`, which
the reward model trains through). No autodiff graph: every backward
accumulates into ParamTensor.grad from the cache its forward returned, or,
for `Linear`, which keeps no cache, from the layer's input. A backward
computes only the gradients that are read, so `Linear.backward` and
`MLP.backward` return nothing, and `Adam.step` is the one place that resets
the grads.
Each module (`MLP`, `LSTMCell`, qmix's `MixingNet`) keeps its parameters in
one values and one grad array, its `flat` store from `param_store`, and every
tensor it reads is a view into them: the optimizer, the target sync and the
gradient check act on stores.
All math is float64 so finite-difference checks are reliable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import StructuralError, LifecycleError, TrainingFault


@dataclass
class ParamTensor:
    """A named parameter: flat value/grad storage plus its logical shape."""

    name: str
    shape: tuple[int, ...]
    values: np.ndarray
    grad: np.ndarray

    def __post_init__(self) -> None:
        n = int(np.prod(self.shape))
        if self.values.shape != (n,) or self.grad.shape != (n,):
            raise StructuralError(
                f"{self.name}: flat storage must have length {n}, "
                f"got values {self.values.shape}, grad {self.grad.shape}"
            )

    @classmethod
    def zeros(cls, name: str, shape: Sequence[int]) -> "ParamTensor":
        n = int(np.prod(shape))
        return cls(name, tuple(shape), np.zeros(n), np.zeros(n))

    @property
    def array(self) -> np.ndarray:
        """Shaped view onto the flat values; writes propagate."""
        return self.values.reshape(self.shape)

    @property
    def grad_array(self) -> np.ndarray:
        return self.grad.reshape(self.shape)

    def zero_grad(self) -> None:
        self.grad[:] = 0.0


def param_store(name: str, shapes: Sequence[tuple[str, Sequence[int]]]) -> tuple[ParamTensor, list[ParamTensor]]:
    """A module's one values array and one grad array, zeroed, as the flat
    ParamTensor `name`, and a named view into both for each (name, shape),
    laid end to end in the given order."""
    ends = np.cumsum([int(np.prod(shape)) for _, shape in shapes])
    flat = ParamTensor.zeros(name, (int(ends[-1]),))
    values, grads = np.split(flat.values, ends[:-1]), np.split(flat.grad, ends[:-1])
    return flat, [ParamTensor(view, tuple(shape), v, g) for (view, shape), v, g in zip(shapes, values, grads)]


@dataclass
class Linear:
    """Affine layer y = x W^T + b on (batch, in) matrices; w and b are views into its owner's store."""

    w: ParamTensor
    b: ParamTensor

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x @ self.w.array.T + self.b.array

    def backward(self, x: np.ndarray, dy: np.ndarray) -> None:
        """Accumulate the parameter grads of upstream dy at input x."""
        self.w.grad_array[...] += dy.T @ x
        self.b.grad_array[...] += dy.sum(axis=0)


@dataclass
class MLPCache:
    # the rectifier masks are layer_inputs[l + 1] > 0, so they are not kept
    layer_inputs: list[np.ndarray]
    consumed: bool = False


class MLP:
    """One fully-connected net per agent, all of the same dims and run as a
    stack: affine layers with rectifiers between them and a linear output
    layer.

    Layer l is held as a weight stack `w[l]` of shape (n_agents, d_out,
    d_in) and a bias stack `b[l]` of shape (n_agents, d_out), so a forward
    or backward pass makes one batched product per layer for all agents.
    Each agent's tensors are ParamTensor views into the stacks, named
    `<agent name>.l<l>.w`/`.b` and listed agent by agent, so a policy file
    holds the same per-agent tensors as separate nets would. The
    stacks are views into the store `flat`, laid out layer by layer (weight
    stack, then bias stack), so each stack is one contiguous run.
    """

    def __init__(self, names: Sequence[str], dims: Sequence[int], rng: np.random.Generator | None):
        """Weights uniform in +-1/sqrt(d_in), drawn one agent's layers after
        another; biases zero. With rng None every value starts at zero."""
        if len(dims) < 2:
            raise StructuralError("MLP needs at least input and output dims")
        if not names:
            raise StructuralError("MLP needs at least one agent")
        self.names = tuple(names)
        self.dims = tuple(dims)
        n = len(self.names)
        shapes = list(zip(self.dims[1:], self.dims[:-1]))
        layers = [((f"l{l}.w", (n, d_out, d_in)), (f"l{l}.b", (n, d_out))) for l, (d_out, d_in) in enumerate(shapes)]
        self.flat, stacks = param_store(",".join(self.names), [stack for layer in layers for stack in layer])
        self.w, self.w_grad = [s.array for s in stacks[0::2]], [s.grad_array for s in stacks[0::2]]
        self.b, self.b_grad = [s.array for s in stacks[1::2]], [s.grad_array for s in stacks[1::2]]
        self._params = []
        for i, name in enumerate(self.names):
            for l, (d_out, d_in) in enumerate(shapes):
                if rng is not None:
                    limit = 1.0 / np.sqrt(d_in)
                    self.w[l][i] = rng.uniform(-limit, limit, size=d_out * d_in).reshape(d_out, d_in)
                self._params += [
                    ParamTensor(f"{name}.l{l}.w", (d_out, d_in), self.w[l][i].reshape(-1), self.w_grad[l][i].reshape(-1)),
                    ParamTensor(f"{name}.l{l}.b", (d_out,), self.b[l][i], self.b_grad[l][i]),
                ]

    @property
    def n_agents(self) -> int:
        return len(self.names)

    def params(self) -> list[ParamTensor]:
        return list(self._params)

    def affine(self, l: int, x: np.ndarray) -> np.ndarray:
        """Layer l's pre-activation for a stack of rows x (n_agents, R, d_in).
        The weight stack is multiplied through its transposed view: each
        agent's product is then the same BLAS call as x_i @ W_i.T."""
        return np.matmul(x, self.w[l].transpose(0, 2, 1)) + self.b[l][:, None, :]

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, MLPCache]:
        """x (n_agents, R, d_in), agent i's rows in x[i] -> (n_agents, R,
        d_out)."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 3 or x.shape[0] != self.n_agents or x.shape[2] != self.dims[0]:
            raise StructuralError(
                f"{','.join(self.names)}: input {x.shape} is not (agents {self.n_agents}, rows, width {self.dims[0]})"
            )
        inputs = []
        last = len(self.w) - 1
        for l in range(len(self.w)):
            inputs.append(x)
            x = self.affine(l, x)
            if l < last:
                x = np.maximum(x, 0.0)
        return x, MLPCache(inputs)

    def backward(self, cache: MLPCache, dy: np.ndarray) -> None:
        """Accumulate the parameter grads of upstream dy (n_agents, R,
        d_out). The input gradient is not computed, as no caller reads it."""
        if cache.consumed:
            raise LifecycleError(f"{','.join(self.names)}: cache already consumed")
        cache.consumed = True
        dy = np.asarray(dy, dtype=float)
        for l in reversed(range(len(self.w))):
            self.w_grad[l] += np.matmul(dy.transpose(0, 2, 1), cache.layer_inputs[l])
            self.b_grad[l] += dy.sum(axis=1)
            if l > 0:
                dy = np.matmul(dy, self.w[l]) * (cache.layer_inputs[l] > 0)


@dataclass
class LSTMStepCache:
    """What the backward pass reads of one batched step: its input rows,
    previous hidden and cell, the activated gates i, f, g, o side by side
    (B, 4H), and the new cell's tanh and the new hidden."""

    x: np.ndarray
    h_prev: np.ndarray
    c_prev: np.ndarray
    gates: np.ndarray
    tanh_c: np.ndarray
    h: np.ndarray


@dataclass
class LSTMPackedCache(LSTMStepCache):
    """The same fields for a packed unroll, one row per computed (tick,
    sequence) pair, tick-major, plus the live row count of every tick."""

    live: np.ndarray


class LSTMCell:
    """Standard gated cell (input/forget/output gates, candidate cell) with a
    scalar output head. Gate order in the stacked weights: i, f, g, o.

    Every path computes the pre-activation as (x wx^T + b) + h wh^T and
    shares one copy of the gate equations (`_activate`) and of their
    gradients (`_slopes`, `_gate_grads`). There are two paths:
    - `step`/`backward_step`: one batched tick with its cache. The reward
      estimator streams a played episode through `step`, one (1, d_in)
      row a step; `backward_step` is the per-tick backward the tests hold the
      packed path to.
    - `forward_packed`/`backward_packed`: a whole unroll of ragged
      sequences packed tick-major, the path the reward model trains
      through and `grad-check` checks. The input projection, the head, the
      gates' local derivatives and every weight gradient are one operation
      over all rows; a tick computes only its recurrent product and the
      gate arithmetic that depends on it.
    The five tensors wx, wh, b, w_out and b_out are views into the store `flat`.
    """

    def __init__(self, name: str, d_in: int, hidden: int, rng: np.random.Generator):
        self.name = name
        self.d_in = d_in
        self.hidden = hidden
        H4 = 4 * hidden
        shapes = [("wx", (H4, d_in)), ("wh", (H4, hidden)), ("b", (H4,)), ("w_out", (hidden,)), ("b_out", (1,))]
        self.flat, views = param_store(name, [(f"{name}.{k}", shape) for k, shape in shapes])
        self.wx, self.wh, self.b, self.w_out, self.b_out = views
        limit = 1.0 / np.sqrt(hidden)
        for p in (self.wx, self.wh, self.w_out):
            p.values[:] = rng.uniform(-limit, limit, size=p.values.size)
        # forget-gate bias starts at 1 so early training keeps cell memory
        self.b.array[hidden : 2 * hidden] = 1.0
        # sigmoid(z) = 0.5 * tanh(0.5 * z) + 0.5, so one tanh activates all
        # four gates: scale and shift are 0.5 for i, f, o and 1, 0 for g
        self._gate_scale = np.full(4 * hidden, 0.5)
        self._gate_scale[2 * hidden : 3 * hidden] = 1.0
        self._gate_shift = np.full(4 * hidden, 0.5)
        self._gate_shift[2 * hidden : 3 * hidden] = 0.0

    def params(self) -> list[ParamTensor]:
        return [self.wx, self.wh, self.b, self.w_out, self.b_out]

    def _activate(
        self, gates: np.ndarray, c_prev: np.ndarray, c: np.ndarray, tanh_c: np.ndarray, h: np.ndarray
    ) -> None:
        """The gate equations, in place. gates (..., 4H) holds the
        pre-activations on entry and the gates i, f, g, o on exit; the new
        cell, its tanh and the new hidden are written to c, tanh_c, h."""
        H = self.hidden
        gates *= self._gate_scale
        np.tanh(gates, out=gates)
        gates *= self._gate_scale
        gates += self._gate_shift
        i, f, g, o = gates[..., :H], gates[..., H : 2 * H], gates[..., 2 * H : 3 * H], gates[..., 3 * H :]
        np.multiply(f, c_prev, out=c)
        c += i * g
        np.tanh(c, out=tanh_c)
        np.multiply(o, tanh_c, out=h)

    def _slopes(self, cache: LSTMStepCache) -> tuple[np.ndarray, np.ndarray]:
        """The local derivatives of the gate equations at the cached rows:
        a (B, 4, H) and k (B, H) with dz = a * [dc, dc, dc, dh] (i, f, g,
        o) and dc = dh * k + (the next step's cell gradient)."""
        gates = cache.gates.reshape(len(cache.gates), 4, self.hidden)
        i, g, o = gates[:, 0], gates[:, 2], gates[:, 3]
        a = gates * (1.0 - gates)
        np.subtract(1.0, g * g, out=a[:, 2])
        a[:, 0] *= g
        a[:, 1] *= cache.c_prev
        a[:, 2] *= i
        a[:, 3] *= cache.tanh_c
        return a, o * (1.0 - cache.tanh_c * cache.tanh_c)

    def _gate_grads(
        self, a: np.ndarray, k: np.ndarray, f: np.ndarray, dh: np.ndarray, dc_next: np.ndarray
    ) -> np.ndarray:
        """The chain through one step's gates: turns its slopes a (B, 4, H)
        into the pre-activation gradient dz in place, given the hidden
        gradient dh and the next step's cell gradient, and returns the
        previous cell's gradient (f is the forget gate)."""
        dc = dh * k + dc_next
        a[:, :3] *= dc[:, None, :]
        a[:, 3] *= dh
        return dc * f

    def step(
        self, x: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, LSTMStepCache]:
        """One gated update of a (B, d_in) batch from (B, H) hidden and cell
        rows. Returns the scalar head output (B,), the new hidden and cell,
        and the cache `backward_step` reads. StructuralError if the new
        hidden is not finite (which covers the cell, see `forward_packed`)."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.d_in:
            raise StructuralError(f"{self.name}: input {x.shape} is not (B, {self.d_in})")
        if h_prev.shape != (len(x), self.hidden) or c_prev.shape != h_prev.shape:
            raise StructuralError(f"{self.name}: state {h_prev.shape}/{c_prev.shape} is not ({len(x)}, {self.hidden})")
        gates = x @ self.wx.array.T + self.b.array + h_prev @ self.wh.array.T
        c, tanh_c, h = (np.empty_like(h_prev) for _ in range(3))
        self._activate(gates, c_prev, c, tanh_c, h)
        if not np.isfinite(h).all():
            raise StructuralError(f"{self.name}: recurrent state must be finite")
        y = h @ self.w_out.array + self.b_out.array[0]
        return y, h, c, LSTMStepCache(x, h_prev, c_prev, gates, tanh_c, h)

    def backward_step(
        self,
        cache: LSTMStepCache,
        dy: np.ndarray,
        dh_next: np.ndarray | None = None,
        dc_next: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Backprop one step. dy is the scalar-head upstream gradient (B,);
        dh_next/dc_next come from the following step. Returns (dh_prev,
        dc_prev); the gradient of the input rows is not computed, as no
        caller reads it."""
        dy = np.asarray(dy, dtype=float)
        if dh_next is None:
            dh_next = np.zeros_like(cache.h)
        if dc_next is None:
            dc_next = np.zeros_like(cache.h)
        self.w_out.grad_array[...] += cache.h.T @ dy
        self.b_out.grad_array[...] += dy.sum()
        a, k = self._slopes(cache)
        f = cache.gates[:, self.hidden : 2 * self.hidden]
        dc_prev = self._gate_grads(a, k, f, dy[:, None] * self.w_out.array + dh_next, dc_next)
        dz = a.reshape(len(a), -1)
        self.wx.grad_array[...] += dz.T @ cache.x
        self.wh.grad_array[...] += dz.T @ cache.h_prev
        self.b.grad_array[...] += dz.sum(axis=0)
        return dz @ self.wh.array, dc_prev

    def forward_packed(self, x: np.ndarray, live: np.ndarray) -> tuple[np.ndarray, LSTMPackedCache]:
        """Unroll ragged sequences from the zero state, packed tick-major.

        x (N, d_in) holds tick 0's rows, then tick 1's, and so on; tick t
        has live[t] rows, and row j of tick t + 1 continues row j of tick t
        (so live never grows and sums to N). The input projection is one
        product over all N rows and the head one product after the loop; a
        tick computes only h wh^T and the gate equations. Returns the head
        output of every row (N,) and the cache. StructuralError if a hidden
        state is not finite: the cell starts at zero and moves by at most 1
        a step unless a gate is NaN, and a NaN cell makes the hidden NaN,
        so finite hidden rows mean a finite state.
        """
        x = np.asarray(x, dtype=float)
        live = np.asarray(live, dtype=int)
        if x.ndim != 2 or x.shape[1] != self.d_in or live.sum() != len(x) or np.any(np.diff(live) > 0):
            raise StructuralError(f"{self.name}: packed input {x.shape} is not live {live.tolist()} rows of width {self.d_in}")
        first = live[0] if len(live) else 0
        gates = x @ self.wx.array.T + self.b.array
        c, tanh_c, h = (np.empty((len(x), self.hidden)) for _ in range(3))
        # a contiguous copy: products through the transposed view cost more at a few rows
        wh_t = np.ascontiguousarray(self.wh.array.T)
        h_prev = c_prev = np.zeros((first, self.hidden))
        lo = 0
        for n in live.tolist():
            hi = lo + n
            gates[lo:hi] += h_prev[:n] @ wh_t
            self._activate(gates[lo:hi], c_prev[:n], c[lo:hi], tanh_c[lo:hi], h[lo:hi])
            h_prev, c_prev = h[lo:hi], c[lo:hi]
            lo = hi
        if not np.isfinite(h).all():
            raise StructuralError(f"{self.name}: recurrent state must be finite")
        # row r of tick t > 0 continues row r - live[t - 1]; tick 0's rows start from zero
        prev = np.arange(first, len(x)) - np.repeat(live[:-1], live[1:])
        h_prev, c_prev = np.zeros_like(h), np.zeros_like(c)
        h_prev[first:] = h[prev]
        c_prev[first:] = c[prev]
        cache = LSTMPackedCache(x, h_prev, c_prev, gates, tanh_c, h, live)
        return h @ self.w_out.array + self.b_out.array[0], cache

    def backward_packed(self, cache: LSTMPackedCache, dy: np.ndarray) -> None:
        """Backprop a packed unroll given the head gradient of every row (N,).

        A row's hidden and cell gradients start at zero on its last tick.
        The gates' slopes are one operation over all rows; each tick chains
        them with its gradients and computes dz wh; the gradients of wx, wh,
        b, w_out and b_out are one product each over all rows after the
        loop. The gradient of the input rows is not computed."""
        dy = np.asarray(dy, dtype=float)
        a, k = self._slopes(cache)
        dz = a.reshape(len(a), -1)
        f = cache.gates[:, self.hidden : 2 * self.hidden]
        dh_out = dy[:, None] * self.w_out.array
        wh = self.wh.array
        rows = cache.live[0] if len(cache.live) else 0
        dh, dc = np.zeros((rows, self.hidden)), np.zeros((rows, self.hidden))
        hi = len(dy)
        for n in cache.live[::-1].tolist():
            lo = hi - n
            dc[:n] = self._gate_grads(a[lo:hi], k[lo:hi], f[lo:hi], dh_out[lo:hi] + dh[:n], dc[:n])
            np.matmul(dz[lo:hi], wh, out=dh[:n])
            hi = lo
        self.wx.grad_array[...] += dz.T @ cache.x
        self.wh.grad_array[...] += dz.T @ cache.h_prev
        self.b.grad_array[...] += dz.sum(axis=0)
        self.w_out.grad_array[...] += cache.h.T @ dy
        self.b_out.grad_array[...] += dy.sum()


class Adam:
    """Adaptive-moment optimizer with bias correction; zeroes the grads
    after each update, the one place that resets them. Only the learning
    rate is settable. It is elementwise, so the learners hand it stores. A step
    computes in place, in one work array per tensor and in the grad once read:
    a store's temporaries would cost more than its arithmetic."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPSILON = 1e-8

    def __init__(self, params: Sequence[ParamTensor], learning_rate: float = 1e-3):
        self.params = list(params)
        self.learning_rate = learning_rate
        self.steps = 0
        self.moments = [(np.zeros_like(p.values), np.zeros_like(p.values)) for p in self.params]
        self._work = [np.empty_like(p.values) for p in self.params]

    def step(self) -> None:
        for p in self.params:
            if not np.all(np.isfinite(p.grad)):
                raise TrainingFault(f"non-finite gradient in {p.name}")
        self.steps += 1
        bc1 = 1.0 - self.BETA1**self.steps
        bc2 = 1.0 - self.BETA2**self.steps
        # values -= lr * (m / bc1) / (sqrt(v / bc2) + eps), operation by operation
        for p, (m, v), a in zip(self.params, self.moments, self._work):
            m *= self.BETA1
            m += np.multiply(p.grad, 1.0 - self.BETA1, out=a)
            v *= self.BETA2
            v += np.multiply(np.multiply(p.grad, p.grad, out=a), 1.0 - self.BETA2, out=a)
            # the grad is read: it holds the denominator until it is zeroed
            np.multiply(np.divide(m, bc1, out=a), self.learning_rate, out=a)
            np.sqrt(np.divide(v, bc2, out=p.grad), out=p.grad)
            p.grad += self.EPSILON
            p.values -= np.divide(a, p.grad, out=a)
            p.zero_grad()


def grad_check(loss_fn: Callable[[], float], param: ParamTensor, backward_fn: Callable[[], None]) -> float:
    """The worst relative error of the analytic gradient of `param`, a
    module's store, against central finite differences of step 1e-5.

    param's grad is zeroed, then backward_fn is called; it must accumulate
    the loss's gradient into it. loss_fn recomputes the scalar loss from
    param's current values with no side effects. Relative error uses a 1e-6
    floor so genuinely tiny gradients do not register as spurious failures.
    """
    param.zero_grad()
    backward_fn()
    analytic = param.grad.copy()
    h = 1e-5
    worst = 0.0
    for k in range(param.values.size):
        orig = param.values[k]
        param.values[k] = orig + h
        hi = loss_fn()
        param.values[k] = orig - h
        lo = loss_fn()
        param.values[k] = orig
        fd = (hi - lo) / (2.0 * h)
        a = analytic[k]
        worst = max(worst, abs(a - fd) / max(abs(a), abs(fd), 1e-6))
    return worst
