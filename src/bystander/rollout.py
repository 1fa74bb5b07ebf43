"""Episode rolling: controllers pick actions for the externally controlled
parties, and run_episode drives the environment and returns the episode as
one EpisodeTrajectory.

Each state of an episode is observed once: run_episode keeps the T+1 states
and one list of their per-party views (observations and action masks), which
it stacks into the trajectory's per-party arrays. Learners, rewards and
audits all read the trajectory; the rollout computes no reward.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

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
) -> RolloutResult:
    """Roll one episode.

    Each tick, every playing party's controller chooses an (n,) array of
    actions from its view; that dict of arrays is both the joint action
    env.step takes and what the trajectory stores. No reward is computed
    here: a reward scores the played trajectory afterwards, from what it
    records."""
    state = env.reset(seed)
    parties = [p for p in (Party.VICTIM, Party.ADVERSARY) if env.agents(p) and p in controllers]

    def party_views(st):
        return {p: (env.observe_party(st, p), env.masks_party(st, p)) for p in parties}

    states = [state]  # s_0..s_T
    views = [party_views(state)]  # one entry per state
    joint: list[dict[Party, np.ndarray]] = []  # one entry per step
    outcomes: list[StepOutcome] = []
    while True:
        now = views[-1]
        joint.append({p: np.asarray(controllers[p].act(*now[p]), dtype=int) for p in parties})
        # the step checks the joint action against the masks of this state's
        # view, which the controllers acted on
        state, outcome = env.step(state, joint[-1], {p: now[p][1] for p in parties})
        states.append(state)
        views.append(party_views(state))
        outcomes.append(outcome)
        if outcome.terminal:
            break

    trajectory = EpisodeTrajectory(
        obs={p: np.stack([v[p][0] for v in views]) for p in parties},
        avail={p: np.stack([v[p][1] for v in views]) for p in parties},
        actions={p: np.stack([j[p] for j in joint]) for p in parties},
        states=tuple(states),
        outcomes=tuple(outcomes),
        seed=seed,
    )
    return RolloutResult(trajectory=trajectory, outcome=outcome)
