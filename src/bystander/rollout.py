"""Episode rolling: controllers pick actions for the externally controlled
parties, the roller drives the environment and assembles both the audit
trajectory and the learner-ready arrays.

Each state of an episode is observed once: run_episode keeps one list of the
T+1 per-party views (observations and action masks), the trajectory records
and the learner's PreparedEpisode are both read from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import AgentId, EpisodeTrajectory, Party, StepOutcome, StepRecord
from .envs.base import Environment
from .qmix import MASK_SENTINEL, PreparedEpisode, select_action


class Controller:
    """Chooses actions for one party from its agents' observations."""

    def act(self, obs_mat: np.ndarray, mask_mat: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class RandomController(Controller):
    def __init__(self, rng: np.random.Generator):
        self.rng = rng

    def act(self, obs_mat, mask_mat):
        return np.array(
            [int(self.rng.choice(np.flatnonzero(m))) for m in mask_mat], dtype=int
        )


class EpsilonGreedyController(Controller):
    """Online-net controller; epsilon is set from the training schedule."""

    def __init__(self, nets, rng: np.random.Generator):
        self.nets = nets
        self.rng = rng
        self.epsilon = 0.0

    def act(self, obs_mat, mask_mat):
        actions = np.zeros(len(self.nets), dtype=int)
        for i, net in enumerate(self.nets):
            q, _ = net.forward(obs_mat[i])
            q = np.where(mask_mat[i], q, MASK_SENTINEL)
            actions[i] = select_action(q, self.epsilon, self.rng)
        return actions


@dataclass
class RolloutResult:
    trajectory: EpisodeTrajectory
    prepared: PreparedEpisode | None
    outcome: StepOutcome
    party_return: float


def run_episode(
    env: Environment,
    controllers: Mapping[Party, Controller],
    seed: int,
    learning_party: Party | None = None,
    reward_provider=None,
) -> RolloutResult:
    """Roll one episode. When learning_party is set, per-step rewards come
    from the reward provider and a PreparedEpisode is assembled from that
    party's observations and masks."""
    state = env.reset(seed)
    parties = [p for p in (Party.VICTIM, Party.ADVERSARY) if env.agents(p) and p in controllers]
    if reward_provider is not None:
        reward_provider.begin_episode()

    def party_views(st):
        return {p: (env.observe_party(st, p), env.masks_party(st, p)) for p in parties}

    views = [party_views(state)]  # one entry per state s_0..s_T
    records: list[StepRecord] = []
    actions_seq: list[np.ndarray] = []
    rewards: list[float] = []
    outcome = None
    while True:
        now = views[-1]
        actions: dict[AgentId, int] = {}
        for p in parties:
            chosen = controllers[p].act(*now[p])
            for agent, a in zip(env.agents(p), chosen):
                actions[agent] = int(a)
        nxt, outcome = env.step(state, actions)
        views.append(party_views(nxt))
        native = env.victim_task_reward(state, actions, nxt, outcome)

        reward = 0.0
        if reward_provider is not None:
            # reward estimation reads the bystanders' post-step view: r_t is
            # computed after the state update, so the estimate can see what
            # the joint action just did
            adv_concat = None
            if Party.ADVERSARY in views[-1]:
                adv_concat = views[-1][Party.ADVERSARY][0].reshape(-1)
            reward = reward_provider.step(
                outcome=outcome, native_reward=native, adv_obs_concat=adv_concat
            )
        rewards.append(reward)

        obs_map, avail_map = {}, {}
        for p in parties:
            obs, masks = now[p]
            for i, agent in enumerate(env.agents(p)):
                obs_map[agent] = obs[i]
                avail_map[agent] = masks[i]
        records.append(
            StepRecord(
                observations=obs_map,
                available=avail_map,
                actions=dict(actions),
                failure_signals=outcome.failure_signals,
                reward=reward,
                outcome=outcome,
            )
        )
        if learning_party is not None:
            actions_seq.append(
                np.array([actions[a] for a in env.agents(learning_party)], dtype=int)
            )
        state = nxt
        if outcome.terminal:
            break

    if reward_provider is not None:
        reward_provider.end_episode(outcome=outcome)

    prepared = None
    if learning_party is not None:
        terminal = np.zeros(len(rewards), dtype=bool)
        terminal[-1] = True
        prepared = PreparedEpisode(
            obs=np.stack([v[learning_party][0] for v in views]),
            avail=np.stack([v[learning_party][1] for v in views]),
            actions=np.stack(actions_seq),
            rewards=np.asarray(rewards, dtype=float),
            terminal=terminal,
        )

    trajectory = EpisodeTrajectory(records=tuple(records), final_outcome=outcome, seed=seed)
    return RolloutResult(
        trajectory=trajectory,
        prepared=prepared,
        outcome=outcome,
        party_return=sum(rewards),
    )
