"""Episode rolling: controllers pick actions for the externally controlled
parties. run_episode drives the environment through one episode and returns
it as one EpisodeTrajectory; evaluate_party plays a run of seeded
evaluation episodes in lockstep and keeps only their outcomes.

Each state of an episode is observed once: run_episode keeps the T+1 states
and one list of their per-party views (observations and action masks), which
it stacks into the trajectory's per-party arrays. Learners, rewards and
audits all read the trajectory; the rollout computes no reward.

evaluate_party steps its live episodes together. Each tick one
`env.stacked_views` call computes the views of all K live episodes, (K, n,
D) and (K, n, A) per playing party (skirmish gathers them from per-unit
and per-pair tables built once per call), and each party's controller
acts once on them; each live state then steps through env.step with its
row of the actions and of the masks they were acted on, and an episode
leaves the batch when it ends. Stepping
stays per state: env.step is the one checked step that run_episode, the
audits and the replays also make, and the benchmark counts env steps as its
calls. The loop keeps a live episode's current state and a finished one's
victim success, and nothing else: no trajectory is built and no terminal
state is observed. A controller that draws from an rng it keeps across
episodes (its class sets `draws`) gets its episodes one after another, in
seed order, on the per-state views, as run_episode would play them, so each
episode sees the draws it would get there.
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

    The episodes run in lockstep, as the module docstring describes, or one
    after another when a playing controller `draws`."""
    parties = [p for p in (Party.VICTIM, Party.ADVERSARY) if env.agents(p) and p in controllers]
    seeds = [derive_seed(seed, stream, k) for k in range(episodes)]
    if any(controllers[p].draws for p in parties):
        return np.array([_play_alone(env, controllers, parties, s) for s in seeds], dtype=bool)
    success = np.zeros(episodes, dtype=bool)
    live = list(range(episodes))
    states = [env.reset(s) for s in seeds]
    while live:
        views = env.stacked_views(states, parties)
        joint = {p: np.asarray(controllers[p].act(*views[p]), dtype=int) for p in parties}
        still, nxt = [], []
        for i, (k, state) in enumerate(zip(live, states)):
            state, outcome = env.step(state, {p: joint[p][i] for p in parties}, {p: views[p][1][i] for p in parties})
            if outcome.terminal:
                success[k] = outcome.victim_success
            else:
                still.append(k)
                nxt.append(state)
        live, states = still, nxt
    return success


def _play_alone(env: Environment, controllers: Mapping[Party, Controller], parties: list[Party], seed: int) -> bool:
    """Victim success of one episode played as run_episode plays it, on the
    per-state views, keeping nothing else."""
    state = env.reset(seed)
    while True:
        views = {p: (env.observe_party(state, p), env.masks_party(state, p)) for p in parties}
        joint = {p: np.asarray(controllers[p].act(*views[p]), dtype=int) for p in parties}
        state, outcome = env.step(state, joint, {p: views[p][1] for p in parties})
        if outcome.terminal:
            return outcome.victim_success
