"""Episode rolling: controllers pick actions for the externally controlled
parties. run_episode drives the environment through one episode and returns
it as one EpisodeTrajectory; evaluate_party plays a run of seeded
evaluation episodes in lockstep and keeps only their outcomes.

Each state of an episode is observed once: run_episode keeps the T+1 states
and one list of their per-party views (observations and action masks), which
it stacks into the trajectory's per-party arrays. Learners, rewards and
audits all read the trajectory; the rollout computes no reward.

evaluate_party steps its live episodes together. Each tick, each playing
party's controller acts once on the stacked views of the live episodes,
(K, n, D) and (K, n, A); each live state steps with its row of the actions
and the masks it was acted on, and an episode leaves the batch when it ends.
It keeps a live episode's current state and views and a finished one's
victim success, and nothing else: no trajectory is built and no terminal
state is observed. A controller that draws from an rng it keeps across
episodes (its class sets `draws`) gets its episodes one after another, in
seed order, as run_episode would play them, so each episode sees the draws
it would get there; the loop then acts on the lone view as run_episode does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import EpisodeTrajectory, Party, StepOutcome, derive_seed
from .envs.base import Environment
from .qmix import masked_q


class Controller:
    """Chooses actions for one party from its agents' observations: act maps
    one state's (n, D) observations and (n, A) masks to (n,) actions, and,
    unless the class sets `draws`, a stack of K states' (K, n, D) and (K, n,
    A) to (K, n), each row as act would pick it alone. `draws` marks an act
    that draws from an rng kept across calls, whose draws depend on the
    order of its calls."""

    draws = False

    def act(self, obs_mat: np.ndarray, mask_mat: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class RandomController(Controller):
    draws = True

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

    draws = True

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


def _stack(views: list[np.ndarray]) -> np.ndarray:
    # a lone view goes as it is, so one-at-a-time play costs what run_episode does
    return views[0] if len(views) == 1 else np.stack(views)


def evaluate_party(
    env: Environment,
    controllers: Mapping[Party, Controller],
    episodes: int,
    seed: int,
    stream: str = "eval",
) -> np.ndarray:
    """Victim success of each seeded episode k, played from
    env.reset(derive_seed(seed, stream, k)) as run_episode would play it: an
    (episodes,) bool array in k order.

    The episodes run in the lockstep loop the module docstring describes:
    all of them together, or one after another when a playing controller
    `draws`."""
    parties = [p for p in (Party.VICTIM, Party.ADVERSARY) if env.agents(p) and p in controllers]
    width = 1 if any(controllers[p].draws for p in parties) else episodes

    def party_views(st):
        return {p: (env.observe_party(st, p), env.masks_party(st, p)) for p in parties}

    success = np.zeros(episodes, dtype=bool)
    live: list[tuple[int, object, dict]] = []  # (k, state, its views)
    started = 0
    while started < episodes or live:
        while started < episodes and len(live) < width:
            state = env.reset(derive_seed(seed, stream, started))
            live.append((started, state, party_views(state)))
            started += 1
        joint = {
            p: np.asarray(
                controllers[p].act(_stack([v[p][0] for _, _, v in live]), _stack([v[p][1] for _, _, v in live])),
                dtype=int,
            ).reshape(len(live), -1)
            for p in parties
        }
        still = []
        for i, (k, state, views) in enumerate(live):
            state, outcome = env.step(state, {p: joint[p][i] for p in parties}, {p: views[p][1] for p in parties})
            if outcome.terminal:
                success[k] = outcome.victim_success
            else:
                still.append((k, state, party_views(state)))
        live = still
    return success
