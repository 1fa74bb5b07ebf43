"""Bystander reward machinery: the terminal ground truth of an episode and
the recurrent reward estimator that spreads it over steps without ever
seeing global state.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import ContractViolation, StepOutcome, StructuralError, TrainingFault
from .neural import Adam, LSTMCell, LSTMPackedCache


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

    def unroll(
        self, episodes: Sequence[np.ndarray]
    ) -> tuple[np.ndarray, LSTMPackedCache, np.ndarray]:
        """Run B episodes of (T_i, input_dim) through the cell together.

        The episodes are ordered longest first (ties keep their input
        order), and every one starts from the zero state. At tick t the
        episodes still running are a prefix of that order; their rows are
        packed tick-major, tick 0's first, into one (sum T_i, input_dim)
        array that goes through `LSTMCell.forward_packed`. So no padding is
        computed, and the input projection and the head are one product
        each. Returns the per-episode output sums (B,) in input order, the
        packed cache, and for each packed row the input index of its
        episode. Each sum adds its episode's outputs in step order.
        """
        if not episodes:
            raise StructuralError("need at least one episode")
        eps = [np.asarray(ep, dtype=float) for ep in episodes]
        for ep in eps:
            if ep.ndim != 2 or ep.shape[1] != self.input_dim:
                raise StructuralError(f"episode layout {ep.shape} incompatible")
        lengths = np.array([len(ep) for ep in eps], dtype=int)
        order = np.argsort(-lengths, kind="stable")
        ordered = lengths[order]
        # the tick of every packed row and its episode's place in the order
        tick, slot = np.nonzero(ordered > np.arange(ordered[0])[:, None])
        # gathered from the ordered episodes laid end to end
        starts = np.cumsum(ordered) - ordered
        x = np.concatenate([eps[k] for k in order])[starts[slot] + tick]
        y, cache = self.cell.forward_packed(x, np.bincount(tick))
        episode = order[slot]
        return np.bincount(episode, weights=y, minlength=len(eps)), cache, episode

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
    packed unroll covers the batch and one packed backward
    (`LSTMCell.backward_packed`) goes back through it; every real step of
    episode k gets the same upstream gradient 2 * err_k / B. Each weight
    gradient is one product over all the steps of the batch, so its terms
    are summed in another order than one episode step by step would sum
    them; the tests hold the two within 1e-12 (relative for the loss,
    absolute for the parameters after 20 updates).
    """
    if len(episodes) != len(ground_truths):
        raise StructuralError("episodes and ground truths must align")
    sums, cache, episode = model.unroll(episodes)
    n = len(episodes)
    err = sums - np.asarray(ground_truths, dtype=float)
    model.cell.backward_packed(cache, (2.0 * err / n)[episode])
    return float(err @ err) / n


def reward_model_update(
    model: RewardModel,
    episodes: Sequence[np.ndarray],
    ground_truths: Sequence[float],
    optimizer: Adam,
) -> float:
    """One optimizer step on the mean squared episode-sum error of a
    minibatch (see `episode_sum_loss_grad`), from the zero grads that
    `optimizer.step` leaves; returns the loss."""
    loss = episode_sum_loss_grad(model, episodes, ground_truths)
    if not np.isfinite(loss):
        raise TrainingFault("reward model loss is not finite")
    optimizer.step()
    return loss


class EpisodeEstimator:
    """Streams one episode through the reward model, one batch-1
    `LSTMCell.step` per step from (1, H) hidden and cell rows."""

    def __init__(self, model: RewardModel, clip: float):
        self.model = model
        self.clip = float(clip)
        self.hidden = np.zeros((1, model.hidden))
        self.cell = np.zeros((1, model.hidden))

    def step(self, concat_obs: np.ndarray) -> float:
        """The clipped estimate of one step; StructuralError (from
        `LSTMCell.step`) for a row that is not (input_dim,) or a non-finite
        recurrent state."""
        x = np.asarray(concat_obs, dtype=float)
        y, self.hidden, self.cell, _ = self.model.cell.step(x[None], self.hidden, self.cell)
        return min(max(float(y[0]), -self.clip), self.clip)
