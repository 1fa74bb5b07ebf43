"""Bystander reward machinery: the terminal ground truth of an episode and
the recurrent reward estimator that spreads it over steps without ever
seeing global state.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import ContractViolation, StepOutcome, StructuralError, TrainingFault
from .neural import Adam, LSTMCell, LSTMStepCache, RecurrentState


def terminal_reward(outcome: StepOutcome, r_fail: float) -> float:
    """Episode-end ground truth: 0 when the victims completed their task,
    r_fail when they did not. Only defined on terminal outcomes."""
    if not outcome.terminal:
        raise ContractViolation("terminal reward requested on a non-terminal step")
    return 0.0 if outcome.victim_success else float(r_fail)


class RewardModel:
    """Recurrent estimator of the bystander party's per-step reward.

    Input is the concatenation of all bystander observations in fixed agent
    order; the scalar outputs over an episode are trained so their sum
    matches the terminal ground truth. Recurrent state lives for exactly
    one episode.
    """

    def __init__(self, input_dim: int, hidden: int, rng: np.random.Generator):
        self.input_dim = input_dim
        self.hidden = hidden
        self.cell = LSTMCell("reward_model", input_dim, hidden, rng)

    def params(self):
        return self.cell.params()

    def initial_state(self) -> RecurrentState:
        return self.cell.initial_state()

    def estimate_step(
        self, concat_obs: np.ndarray, state: RecurrentState
    ) -> tuple[float, RecurrentState]:
        concat_obs = np.asarray(concat_obs, dtype=float)
        if concat_obs.shape != (self.input_dim,):
            raise StructuralError(
                f"observation layout {concat_obs.shape} != ({self.input_dim},)"
            )
        y, nxt, _ = self.cell.step(concat_obs, state)
        return float(y), nxt

    def unroll(
        self, episodes: Sequence[np.ndarray]
    ) -> tuple[np.ndarray, list[LSTMStepCache], np.ndarray]:
        """Run B episodes of (T_i, input_dim) through the cell together.

        The episodes are ordered longest first (ties keep their input
        order) and zero-padded to (T_max, B, input_dim); every row starts
        from the zero state. At tick t the rows still inside their episode
        are a prefix of that order, and only they go through the batched
        cell step, so padding is never computed and the work of an unroll
        follows the real steps, not B * T_max. Returns the per-episode
        output sums (B,) in input order, the per-tick caches (the cache of
        tick t holds its live rows) and the order: row j of the unroll is
        episode order[j].
        """
        eps = [np.asarray(ep, dtype=float) for ep in episodes]
        for ep in eps:
            if ep.ndim != 2 or ep.shape[1] != self.input_dim:
                raise StructuralError(f"episode layout {ep.shape} incompatible")
        lengths = np.array([len(ep) for ep in eps], dtype=int)
        order = np.argsort(-lengths, kind="stable")
        x = np.zeros((int(lengths.max(initial=0)), len(eps), self.input_dim))
        for j, k in enumerate(order):
            x[: lengths[k], j] = eps[k]
        live = (lengths[order] > np.arange(len(x))[:, None]).sum(axis=1)
        state = self.cell.initial_state(batch=len(eps))
        sums = np.zeros(len(eps))
        caches = []
        for t, n in enumerate(live):
            if n < len(state.hidden):
                state = RecurrentState(state.hidden[:n], state.cell[:n])
            y, state, cache = self.cell.step(x[t, :n], state)
            sums[:n] += y
            caches.append(cache)
        out = np.empty(len(eps))
        out[order] = sums
        return out, caches, order

    def episode_sums(self, episodes: Sequence[np.ndarray]) -> np.ndarray:
        """Sum of per-step estimates for each (T_i, input_dim) episode, from
        one unroll of the whole batch (see `unroll`)."""
        return self.unroll(episodes)[0]


def episode_sum_loss_grad(
    model: RewardModel,
    episodes: Sequence[np.ndarray],
    ground_truths: Sequence[float],
) -> float:
    """Mean squared episode-sum error of a minibatch; adds its gradient to
    the model's parameter grads and returns the loss.

    Each episode is a (T, input_dim) array of concatenated bystander
    observations; its target is the scalar terminal ground truth. One
    unroll covers the batch and one batched backward step runs per tick,
    on that tick's live rows. Every real step of episode k gets the same
    upstream gradient 2 * err_k / B. A row's hidden and cell gradients
    start at zero on its last step, and no step past an episode's end is
    computed, so padding adds nothing to any gradient.
    """
    if len(episodes) != len(ground_truths):
        raise StructuralError("episodes and ground truths must align")
    if not episodes:
        raise StructuralError("need at least one episode")
    sums, caches, order = model.unroll(episodes)
    n = len(episodes)
    err = sums - np.asarray(ground_truths, dtype=float)
    dy = (2.0 * err / n)[order]
    dh = np.zeros((n, model.hidden))
    dc = np.zeros((n, model.hidden))
    for cache in reversed(caches):
        k = len(cache.h)
        dh[:k], dc[:k] = model.cell.backward_step(cache, dy[:k], dh[:k], dc[:k])
    return float(err @ err) / n


def reward_model_update(
    model: RewardModel,
    episodes: Sequence[np.ndarray],
    ground_truths: Sequence[float],
    optimizer: Adam,
) -> float:
    """One optimizer step on the mean squared episode-sum error of a
    minibatch (see `episode_sum_loss_grad`); returns the loss."""
    optimizer.zero_grad()
    loss = episode_sum_loss_grad(model, episodes, ground_truths)
    if not np.isfinite(loss):
        raise TrainingFault("reward model loss is not finite")
    optimizer.step()
    return loss


class EpisodeEstimator:
    """Streams one episode through the reward model during a rollout,
    recording inputs and estimates for the end-of-episode model update."""

    def __init__(self, model: RewardModel, clip: float):
        self.model = model
        self.clip = float(clip)
        self.state = model.initial_state()
        self.inputs: list[np.ndarray] = []
        self.estimates: list[float] = []

    def step(self, concat_obs: np.ndarray) -> float:
        y, self.state = self.model.estimate_step(concat_obs, self.state)
        self.inputs.append(np.asarray(concat_obs, dtype=float).copy())
        self.estimates.append(y)
        return float(np.clip(y, -self.clip, self.clip))

    def episode_inputs(self) -> np.ndarray:
        return np.stack(self.inputs) if self.inputs else np.zeros((0, self.model.input_dim))
