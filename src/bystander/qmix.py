"""Value-decomposition learner: per-agent Q networks held as one
agent-stacked MLP (each forward or backward is one batched product per layer
for all agents), a monotone mixing network conditioned on the learning
party's own observations (no global state), TD targets with a periodically
synced target copy, and the batched squared-error update.

A learner step packs its sampled episodes' transitions into rows, episode
after episode, with no padding: the target pass, both forwards, the loss and
both backwards each run once over the batch's real transitions. Nothing is
computed that no caller reads: the target pair starts as zeros that its
first sync overwrites, and the mixer's backward returns no gradient of its
conditioning input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import ContractViolation, StructuralError, TrainingFault
from .neural import Adam, Linear, MLP, ParamTensor, param_store

MASK_SENTINEL = -1e9


def agent_rows(obs: np.ndarray) -> np.ndarray:
    """obs (..., n, D) as the stacked net's input (n, rows, D): agent i's
    rows are a view of obs[..., i, :]."""
    return obs.reshape(-1, *obs.shape[-2:]).swapaxes(0, 1)


def masked_q(net: MLP, obs: np.ndarray, avail: np.ndarray) -> np.ndarray:
    """Each agent's Q values, MASK_SENTINEL where its action is unavailable:
    obs (..., n, D), avail (..., n, A) -> (..., n, A), for one state or a
    batch of rows."""
    q, _ = net.forward(agent_rows(obs))
    return np.where(avail, q.swapaxes(0, 1).reshape(avail.shape), MASK_SENTINEL)


def _elu(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0, x, np.expm1(np.minimum(x, 0)))


def _elu_grad(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0, 1.0, np.exp(np.minimum(x, 0)))


@dataclass
class MixCache:
    q: np.ndarray
    w1_raw: np.ndarray
    w1: np.ndarray
    h_pre: np.ndarray
    h: np.ndarray
    w2_raw: np.ndarray
    w2: np.ndarray
    # the input of all four hypernetworks
    cond: np.ndarray


class MixingNet:
    """Monotone mixer: hypernetworks read the conditioning vector (in the
    learner, the party's concatenated observations) and emit absolute-valued
    mixing weights, so dQ_tot/dQ_i >= 0 by construction. The four
    hypernetworks' tensors are views into the mixer's store `flat`."""

    def __init__(self, name: str, n_agents: int, cond_dim: int, embed: int, rng: np.random.Generator | None):
        """Weights uniform in +-1/sqrt(cond_dim), biases zero; all zeros with rng None."""
        self.name = name
        self.n_agents = n_agents
        self.cond_dim = cond_dim
        self.embed = embed
        shapes = []
        for hyper, d_out in (("hw1", n_agents * embed), ("hb1", embed), ("hw2", embed), ("hv", 1)):
            shapes += [(f"{name}.{hyper}.w", (d_out, cond_dim)), (f"{name}.{hyper}.b", (d_out,))]
        self.flat, self._params = param_store(name, shapes)
        weights, biases = self._params[0::2], self._params[1::2]
        if rng is not None:
            limit = 1.0 / np.sqrt(cond_dim)
            for w in weights:
                w.values[:] = rng.uniform(-limit, limit, size=w.values.size)
        self.hyper_w1, self.hyper_b1, self.hyper_w2, self.hyper_v = map(Linear, weights, biases)

    def params(self) -> list[ParamTensor]:
        return list(self._params)

    def forward(self, q: np.ndarray, cond: np.ndarray) -> tuple[np.ndarray, MixCache]:
        """Q_tot (B,) of agent values q (B, n) under conditioning cond (B, cond_dim)."""
        q = np.asarray(q, dtype=float)
        cond = np.asarray(cond, dtype=float)
        if q.ndim != 2 or q.shape[1] != self.n_agents:
            raise StructuralError(f"expected (B, {self.n_agents}) agent values, got {q.shape}")
        if cond.ndim != 2 or cond.shape[1] != self.cond_dim:
            raise StructuralError(f"expected (B, {self.cond_dim}) conditioning, got {cond.shape}")
        w1_raw = self.hyper_w1.forward(cond)
        b1 = self.hyper_b1.forward(cond)
        w2_raw = self.hyper_w2.forward(cond)
        v = self.hyper_v.forward(cond)
        w1 = np.abs(w1_raw).reshape(-1, self.n_agents, self.embed)
        w2 = np.abs(w2_raw)
        h_pre = np.einsum("bn,bne->be", q, w1) + b1
        h = _elu(h_pre)
        q_tot = (h * w2).sum(axis=1) + v[:, 0]
        return q_tot, MixCache(q, w1_raw, w1, h_pre, h, w2_raw, w2, cond)

    def backward(self, cache: MixCache, dq_tot: np.ndarray) -> np.ndarray:
        """Accumulate parameter grads; returns the gradient w.r.t. the
        per-agent Q inputs. The conditioning input's gradient is not
        computed, as no caller reads it."""
        dq_tot = np.asarray(dq_tot, dtype=float)
        cond = cache.cond
        dv = dq_tot[:, None]
        self.hyper_v.backward(cond, dv)
        dw2 = dq_tot[:, None] * cache.h
        dh = dq_tot[:, None] * cache.w2
        self.hyper_w2.backward(cond, dw2 * np.sign(cache.w2_raw))
        dh_pre = dh * _elu_grad(cache.h_pre)
        self.hyper_b1.backward(cond, dh_pre)
        dw1 = np.einsum("bn,be->bne", cache.q, dh_pre)
        dq = np.einsum("bne,be->bn", cache.w1, dh_pre)
        dw1_raw = dw1.reshape(dw1.shape[0], -1) * np.sign(cache.w1_raw)
        self.hyper_w1.backward(cond, dw1_raw)
        return dq


@dataclass
class PreparedEpisode:
    """Episode of T transitions as dense arrays for the learner, each state
    stored once. Shapes: obs (T+1, n, D) and avail (T+1, n, A) over the
    states s_0..s_T, and actions (T, n) and rewards (T,) per transition;
    transition t runs from state t to state t+1, and the last one ends the
    episode."""

    obs: np.ndarray
    avail: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray

    def __post_init__(self) -> None:
        T = self.rewards.shape[0]
        for name, length in (("obs", T + 1), ("avail", T + 1), ("actions", T)):
            if getattr(self, name).shape[0] != length:
                raise StructuralError(f"misaligned episode arrays: {name}")

    def __len__(self) -> int:
        return self.rewards.shape[0]


class ReplayBuffer:
    """Episode ring buffer; batches sample uniformly without replacement."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.episodes: list[PreparedEpisode] = []
        self._next = 0

    def add(self, episode: PreparedEpisode) -> None:
        if len(self.episodes) < self.capacity:
            self.episodes.append(episode)
        else:
            self.episodes[self._next] = episode
            self._next = (self._next + 1) % self.capacity

    def __len__(self) -> int:
        return len(self.episodes)

    def sample(self, batch_size: int, rng: np.random.Generator) -> list[PreparedEpisode]:
        if batch_size > len(self.episodes):
            raise ContractViolation(
                f"buffer holds {len(self.episodes)} episodes; need {batch_size}"
            )
        idx = rng.choice(len(self.episodes), size=batch_size, replace=False)
        return [self.episodes[int(i)] for i in idx]


@dataclass
class Batch:
    """The N real transitions of B episodes as packed rows, episode after
    episode and step after step within each: obs (N, n, D) of each
    transition's state, next_obs (N, n, D) and next_avail (N, n, A) of the
    state it leads to, and actions (N, n), rewards (N,) and terminal (N,),
    True on each episode's last transition. mask (B, T_max) marks the real
    steps of the episodes padded to the longest; its True entries, row by
    row, are the N rows."""

    obs: np.ndarray
    next_obs: np.ndarray
    next_avail: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    terminal: np.ndarray
    mask: np.ndarray


def stack_batch(episodes: Sequence[PreparedEpisode]) -> Batch:
    """The episodes' transitions packed into one Batch, in the given episode
    order; no row is padding."""
    lengths = np.array([len(e) for e in episodes])
    terminal = np.zeros(lengths.sum(), dtype=bool)
    terminal[np.cumsum(lengths) - 1] = True
    return Batch(
        obs=np.concatenate([e.obs[:-1] for e in episodes]),
        next_obs=np.concatenate([e.obs[1:] for e in episodes]),
        next_avail=np.concatenate([e.avail[1:] for e in episodes]),
        actions=np.concatenate([e.actions for e in episodes]),
        rewards=np.concatenate([e.rewards for e in episodes]),
        terminal=terminal,
        mask=np.arange(lengths.max()) < lengths[:, None],
    )


class TargetNetworkPair:
    """Online agent net and mixer plus a frozen copy refreshed every
    sync_interval learner steps; built as zeros, it is filled by the first sync."""

    def __init__(self, net: MLP, mixer: MixingNet, sync_interval: int):
        if sync_interval < 1:
            raise ValueError("sync_interval must be >= 1")
        self.net = net
        self.mixer = mixer
        self.sync_interval = sync_interval
        self.target_net = MLP([f"{name}.target" for name in net.names], net.dims, None)
        self.target_mixer = MixingNet(f"{mixer.name}.target", mixer.n_agents, mixer.cond_dim, mixer.embed, None)
        self.steps_since_sync = 0
        self.syncs = 0
        self.sync()

    def sync(self) -> None:
        """One copy per module: the online stores into the target's."""
        self.target_net.flat.values[:] = self.net.flat.values
        self.target_mixer.flat.values[:] = self.mixer.flat.values
        self.steps_since_sync = 0
        self.syncs += 1

    def tick(self) -> None:
        self.steps_since_sync += 1
        if self.steps_since_sync >= self.sync_interval:
            self.sync()

    def online_params(self) -> list[ParamTensor]:
        """The online net's and mixer's stores, what the optimizer updates."""
        return [self.net.flat, self.mixer.flat]


def greedy_joint_q(
    net: MLP,
    mixer: MixingNet,
    obs: np.ndarray,
    avail: np.ndarray,
) -> np.ndarray:
    """Mixed Q of the decentralized greedy joint action, batched over rows;
    the mixer reads the party's concatenated observations.

    obs (R, n, D), avail (R, n, A) -> (R,).
    """
    R, n, D = obs.shape
    chosen = masked_q(net, obs, avail).max(axis=-1)
    q_tot, _ = mixer.forward(chosen, obs.reshape(R, n * D))
    return q_tot


def td_targets(batch: Batch, pair: TargetNetworkPair, gamma: float) -> np.ndarray:
    """One-step targets y = r + gamma * Q_tot' of the target pair's greedy
    joint action, one per row of the batch; terminal rows cut the
    bootstrap."""
    q_next = greedy_joint_q(pair.target_net, pair.target_mixer, batch.next_obs, batch.next_avail)
    return batch.rewards + gamma * np.where(batch.terminal, 0.0, q_next)


def learner_step(
    buffer: ReplayBuffer,
    pair: TargetNetworkPair,
    optimizer: Adam,
    batch_size: int,
    gamma: float,
    rng: np.random.Generator,
) -> float:
    """One gradient step on the squared TD error over a sampled batch.

    Every product runs over the batch's real transitions only. The loss is
    their mean, so the learning rate is batch-size invariant; returns the
    loss and syncs the target pair on its schedule. The grads start at the
    zeros that `optimizer.step` leaves.
    """
    batch = stack_batch(buffer.sample(batch_size, rng))
    targets = td_targets(batch, pair, gamma)
    N, n, D = batch.obs.shape

    # per agent, the index of its chosen action in each row: (n, N, 1)
    picked = batch.actions.T[:, :, None]
    q, cache = pair.net.forward(agent_rows(batch.obs))
    chosen = np.take_along_axis(q, picked, axis=2)[:, :, 0].T
    q_tot, mix_cache = pair.mixer.forward(chosen, batch.obs.reshape(N, n * D))

    err = q_tot - targets
    loss = float((err**2).sum() / N)
    if not np.isfinite(loss):
        raise TrainingFault("TD loss is not finite")

    dq = pair.mixer.backward(mix_cache, 2.0 * err / N)
    dq_full = np.zeros_like(q)
    np.put_along_axis(dq_full, picked, dq.T[:, :, None], axis=2)
    pair.net.backward(cache, dq_full)
    optimizer.step()
    pair.tick()
    return loss
