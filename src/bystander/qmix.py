"""Value-decomposition learner: per-agent Q networks, a monotone mixing
network conditioned on the learning party's own observations (no global
state), TD targets with a periodically synced target copy, and the batched
squared-error update.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import ContractViolation, StructuralError, TrainingFault
from .neural import Adam, Linear, MLP, ParamTensor

MASK_SENTINEL = -1e9


def select_action(q_values: np.ndarray, epsilon: float, rng: np.random.Generator) -> int:
    """Epsilon-greedy over masked Q values; greedy ties break to the lowest
    action id, exploration is uniform over available actions."""
    q_values = np.asarray(q_values, dtype=float)
    available = q_values > MASK_SENTINEL / 2
    if not available.any():
        raise ContractViolation("no available action to select")
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.choice(np.flatnonzero(available)))
    return int(np.argmax(q_values))


def masked_q(nets: Sequence[MLP], obs: np.ndarray, avail: np.ndarray) -> np.ndarray:
    """Each agent's Q values, MASK_SENTINEL where its action is unavailable:
    obs (..., n, D), avail (..., n, A) -> (..., n, A), for one state or a
    batch of rows."""
    q = np.stack([net.forward(obs[..., i, :])[0] for i, net in enumerate(nets)], axis=-2)
    return np.where(avail, q, MASK_SENTINEL)


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
    hw1_cache: np.ndarray
    hb1_cache: np.ndarray
    hw2_cache: np.ndarray
    hv_cache: np.ndarray
    squeeze: bool


class MixingNet:
    """Monotone mixer: hypernetworks read the conditioning vector (in the
    learner, the party's concatenated observations) and emit absolute-valued
    mixing weights, so dQ_tot/dQ_i >= 0 by construction."""

    def __init__(self, name: str, n_agents: int, cond_dim: int, embed: int, rng):
        self.name = name
        self.n_agents = n_agents
        self.cond_dim = cond_dim
        self.embed = embed
        self.hyper_w1 = Linear(f"{name}.hw1", cond_dim, n_agents * embed, rng)
        self.hyper_b1 = Linear(f"{name}.hb1", cond_dim, embed, rng)
        self.hyper_w2 = Linear(f"{name}.hw2", cond_dim, embed, rng)
        self.hyper_v = Linear(f"{name}.hv", cond_dim, 1, rng)

    def params(self) -> list[ParamTensor]:
        return (
            self.hyper_w1.params()
            + self.hyper_b1.params()
            + self.hyper_w2.params()
            + self.hyper_v.params()
        )

    def forward(self, q: np.ndarray, cond: np.ndarray) -> tuple[np.ndarray, MixCache]:
        q = np.asarray(q, dtype=float)
        cond = np.asarray(cond, dtype=float)
        squeeze = q.ndim == 1
        if squeeze:
            q, cond = q[None, :], cond[None, :]
        if q.shape[1] != self.n_agents:
            raise StructuralError(f"expected {self.n_agents} agent values, got {q.shape[1]}")
        if cond.shape[1] != self.cond_dim:
            raise StructuralError(f"conditioning width {cond.shape[1]} != {self.cond_dim}")
        w1_raw, hw1_cache = self.hyper_w1.forward(cond)
        b1, hb1_cache = self.hyper_b1.forward(cond)
        w2_raw, hw2_cache = self.hyper_w2.forward(cond)
        v, hv_cache = self.hyper_v.forward(cond)
        w1 = np.abs(w1_raw).reshape(-1, self.n_agents, self.embed)
        w2 = np.abs(w2_raw)
        h_pre = np.einsum("bn,bne->be", q, w1) + b1
        h = _elu(h_pre)
        q_tot = (h * w2).sum(axis=1) + v[:, 0]
        cache = MixCache(
            q, w1_raw, w1, h_pre, h, w2_raw, w2,
            hw1_cache, hb1_cache, hw2_cache, hv_cache, squeeze,
        )
        return (float(q_tot[0]) if squeeze else q_tot), cache

    def backward(self, cache: MixCache, dq_tot: np.ndarray) -> np.ndarray:
        """Accumulate parameter grads; returns the gradient w.r.t. the
        per-agent Q inputs."""
        dq_tot = np.atleast_1d(np.asarray(dq_tot, dtype=float))
        dv = dq_tot[:, None]
        self.hyper_v.backward(cache.hv_cache, dv)
        dw2 = dq_tot[:, None] * cache.h
        dh = dq_tot[:, None] * cache.w2
        self.hyper_w2.backward(cache.hw2_cache, dw2 * np.sign(cache.w2_raw))
        dh_pre = dh * _elu_grad(cache.h_pre)
        self.hyper_b1.backward(cache.hb1_cache, dh_pre)
        dw1 = np.einsum("bn,be->bne", cache.q, dh_pre)
        dq = np.einsum("bne,be->bn", cache.w1, dh_pre)
        dw1_raw = dw1.reshape(dw1.shape[0], -1) * np.sign(cache.w1_raw)
        self.hyper_w1.backward(cache.hw1_cache, dw1_raw)
        return dq[0] if cache.squeeze else dq


@dataclass
class PreparedEpisode:
    """Episode of T transitions as dense arrays for the learner, each state
    stored once. Shapes: obs (T+1, n, D) and avail (T+1, n, A) over the
    states s_0..s_T, actions (T, n), rewards (T,) and terminal (T,) per
    transition; transition t runs from state t to state t+1."""

    obs: np.ndarray
    avail: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    terminal: np.ndarray

    def __post_init__(self) -> None:
        T = self.rewards.shape[0]
        for name, length in (("obs", T + 1), ("avail", T + 1), ("actions", T), ("terminal", T)):
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
    """Zero-padded stack of B episodes: obs (B, T+1, n, D), avail
    (B, T+1, n, A) and per-transition actions, rewards and terminal
    (B, T, ...); mask (B, T) flags real (non-padding) transitions."""

    obs: np.ndarray
    avail: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    terminal: np.ndarray
    mask: np.ndarray


def stack_batch(episodes: Sequence[PreparedEpisode]) -> Batch:
    B = len(episodes)
    T = max(len(e) for e in episodes)
    n, D = episodes[0].obs.shape[1:]
    A = episodes[0].avail.shape[2]
    out = Batch(
        obs=np.zeros((B, T + 1, n, D)),
        avail=np.zeros((B, T + 1, n, A), dtype=bool),
        actions=np.zeros((B, T, n), dtype=int),
        rewards=np.zeros((B, T)),
        terminal=np.zeros((B, T), dtype=bool),
        mask=np.zeros((B, T), dtype=bool),
    )
    out.avail[..., 0] = True  # padding rows keep noop available for the argmax
    for b, e in enumerate(episodes):
        L = len(e)
        out.obs[b, : L + 1] = e.obs
        out.avail[b, : L + 1] = e.avail
        out.actions[b, :L] = e.actions
        out.rewards[b, :L] = e.rewards
        out.terminal[b, :L] = e.terminal
        out.mask[b, :L] = True
    return out


class TargetNetworkPair:
    """Online nets plus a frozen copy refreshed every sync_interval learner
    steps."""

    def __init__(self, nets: Sequence[MLP], mixer: MixingNet, sync_interval: int, rng):
        if sync_interval < 1:
            raise ValueError("sync_interval must be >= 1")
        self.nets = list(nets)
        self.mixer = mixer
        self.sync_interval = sync_interval
        self.target_nets = [MLP(f"{n.name}.target", n.dims, rng) for n in self.nets]
        self.target_mixer = MixingNet(
            f"{mixer.name}.target", mixer.n_agents, mixer.cond_dim, mixer.embed, rng
        )
        self.steps_since_sync = 0
        self.syncs = 0
        self.sync()

    def sync(self) -> None:
        for online, target in zip(self.nets, self.target_nets):
            for p, q in zip(online.params(), target.params()):
                q.values[:] = p.values
        for p, q in zip(self.mixer.params(), self.target_mixer.params()):
            q.values[:] = p.values
        self.steps_since_sync = 0
        self.syncs += 1

    def tick(self) -> None:
        self.steps_since_sync += 1
        if self.steps_since_sync >= self.sync_interval:
            self.sync()

    def online_params(self) -> list[ParamTensor]:
        params = [p for n in self.nets for p in n.params()]
        return params + self.mixer.params()


def greedy_joint_q(
    nets: Sequence[MLP],
    mixer: MixingNet,
    obs: np.ndarray,
    avail: np.ndarray,
) -> np.ndarray:
    """Mixed Q of the decentralized greedy joint action, batched over rows;
    the mixer reads the party's concatenated observations.

    obs (R, n, D), avail (R, n, A) -> (R,).
    """
    R, n, D = obs.shape
    chosen = masked_q(nets, obs, avail).max(axis=-1)
    q_tot, _ = mixer.forward(chosen, obs.reshape(R, n * D))
    return q_tot


def td_targets(
    batch: Batch,
    pair: TargetNetworkPair,
    rewards: np.ndarray,
    gamma: float,
) -> np.ndarray:
    """One-step targets y = r + gamma * Q_tot' of the target pair's greedy
    joint action; terminal steps cut the bootstrap."""
    B, T = batch.mask.shape
    rewards = np.asarray(rewards, dtype=float)
    if rewards.shape != (B, T):
        raise StructuralError(f"rewards {rewards.shape} misaligned with batch {(B, T)}")
    flat_next = batch.obs[:, 1:].reshape(B * T, *batch.obs.shape[2:])
    flat_avail = batch.avail[:, 1:].reshape(B * T, *batch.avail.shape[2:])
    q_next = greedy_joint_q(pair.target_nets, pair.target_mixer, flat_next, flat_avail)
    q_next = q_next.reshape(B, T)
    return rewards + gamma * np.where(batch.terminal, 0.0, q_next)


def learner_step(
    buffer: ReplayBuffer,
    pair: TargetNetworkPair,
    optimizer: Adam,
    batch_size: int,
    gamma: float,
    rng: np.random.Generator,
) -> float:
    """One gradient step on the squared TD error over a sampled batch.

    Loss is the mean over real (unpadded) transitions so the learning rate
    is batch-size invariant; returns the loss and syncs the target pair on
    its schedule.
    """
    episodes = buffer.sample(batch_size, rng)
    batch = stack_batch(episodes)
    B, T = batch.mask.shape
    n, D = batch.obs.shape[2:]
    targets = td_targets(batch, pair, batch.rewards, gamma)

    flat_obs = batch.obs[:, :T].reshape(B * T, n, D)
    flat_actions = batch.actions.reshape(B * T, n)
    chosen = np.zeros((B * T, n))
    caches = []
    for i, net in enumerate(pair.nets):
        q, cache = net.forward(flat_obs[:, i])
        caches.append(cache)
        chosen[:, i] = np.take_along_axis(q, flat_actions[:, i : i + 1], axis=1)[:, 0]
    q_tot, mix_cache = pair.mixer.forward(chosen, flat_obs.reshape(B * T, n * D))
    q_tot = q_tot.reshape(B, T)

    mask = batch.mask
    count = mask.sum()
    err = np.where(mask, q_tot - targets, 0.0)
    loss = float((err**2).sum() / count)
    if not np.isfinite(loss):
        raise TrainingFault("TD loss is not finite")

    optimizer.zero_grad()
    d_qtot = (2.0 * err / count).reshape(B * T)
    dq = pair.mixer.backward(mix_cache, d_qtot)
    for i, net in enumerate(pair.nets):
        dq_full = np.zeros((B * T, net.dims[-1]))
        np.put_along_axis(dq_full, flat_actions[:, i : i + 1], dq[:, i : i + 1], axis=1)
        net.backward(caches[i], dq_full)
    optimizer.step()
    pair.tick()
    return loss
