"""Episode rolling: controllers pick actions for the externally controlled
parties, and run_episode drives the environment and returns the episode as
one EpisodeTrajectory.

Each state of an episode is observed once: run_episode keeps one list of the
T+1 per-party views (observations and action masks) and stacks it into the
trajectory's per-party arrays, which learners and audits both read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .core import EpisodeTrajectory, Party, StepOutcome
from .envs.base import Environment
from .qmix import masked_q


class Controller:
    """Chooses actions for one party from its agents' observations."""

    def act(self, obs_mat: np.ndarray, mask_mat: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class RandomController(Controller):
    def __init__(self, rng: np.random.Generator):
        self.rng = rng

    def act(self, obs_mat, mask_mat):
        # the draw rng.choice(legal) makes, without its per-call checks
        actions = []
        for m in mask_mat:
            legal = np.flatnonzero(m)
            actions.append(int(legal[self.rng.integers(0, legal.size)]))
        return np.array(actions, dtype=int)


class EpsilonGreedyController(Controller):
    """Online-net controller; epsilon is set from the training schedule.

    Greedy ties break to the lowest action id. With epsilon > 0 each agent,
    in agent order, draws once and with probability epsilon explores
    uniformly over its available actions, as RandomController draws."""

    def __init__(self, net, rng: np.random.Generator):
        self.net = net
        self.rng = rng
        self.epsilon = 0.0

    def act(self, obs_mat, mask_mat):
        actions = masked_q(self.net, obs_mat, mask_mat).argmax(axis=-1)
        if self.epsilon > 0.0:
            for i, m in enumerate(mask_mat):
                if self.rng.random() < self.epsilon:
                    legal = np.flatnonzero(m)
                    actions[i] = legal[self.rng.integers(0, legal.size)]
        return actions


@dataclass
class RolloutResult:
    trajectory: EpisodeTrajectory
    outcome: StepOutcome


def run_episode(
    env: Environment,
    controllers: Mapping[Party, Controller],
    seed: int,
    reward: Callable[..., float] | None = None,
) -> RolloutResult:
    """Roll one episode.

    Each tick, every playing party's controller chooses an (n,) array of
    actions from its view; that dict of arrays is both the joint action
    env.step takes and what the trajectory stores.

    When `reward` is given, it is called once per step, after env.step, as
    reward(outcome, native_reward, bystander_obs): native_reward is the
    victims' task reward and bystander_obs the bystanders' concatenated
    post-step observations (None when no bystanders play). Its values are
    the trajectory's rewards; without it they are zero and the victims'
    task reward is not computed."""
    state = env.reset(seed)
    parties = [p for p in (Party.VICTIM, Party.ADVERSARY) if env.agents(p) and p in controllers]

    def party_views(st):
        return {p: (env.observe_party(st, p), env.masks_party(st, p)) for p in parties}

    views = [party_views(state)]  # one entry per state s_0..s_T
    joint: list[dict[Party, np.ndarray]] = []  # one entry per step
    rewards: list[float] = []
    outcomes: list[StepOutcome] = []
    while True:
        now = views[-1]
        joint.append({p: np.asarray(controllers[p].act(*now[p]), dtype=int) for p in parties})
        # the step checks the joint action against the masks of this state's
        # view, which the controllers acted on
        nxt, outcome = env.step(state, joint[-1], {p: now[p][1] for p in parties})
        views.append(party_views(nxt))
        outcomes.append(outcome)
        if reward is None:
            rewards.append(0.0)
        else:
            # reward estimation reads the bystanders' post-step view: r_t is
            # computed after the state update, so the estimate can see what
            # the joint action just did
            bystander_obs = None
            if Party.ADVERSARY in views[-1]:
                bystander_obs = views[-1][Party.ADVERSARY][0].reshape(-1)
            native = env.victim_task_reward(state, nxt, outcome)
            rewards.append(reward(outcome, native, bystander_obs))
        state = nxt
        if outcome.terminal:
            break

    trajectory = EpisodeTrajectory(
        obs={p: np.stack([v[p][0] for v in views]) for p in parties},
        avail={p: np.stack([v[p][1] for v in views]) for p in parties},
        actions={p: np.stack([j[p] for j in joint]) for p in parties},
        rewards=np.asarray(rewards, dtype=float),
        outcomes=tuple(outcomes),
        seed=seed,
    )
    return RolloutResult(trajectory=trajectory, outcome=outcome)
