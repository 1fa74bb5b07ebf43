"""Episode rolling: controllers pick actions for the externally controlled
parties, the roller drives the environment and assembles both the audit
trajectory and the learner-ready arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import AgentId, EpisodeTrajectory, Party, StepOutcome, StepRecord
from .envs.base import Environment
from .qmix import MASK_SENTINEL, PreparedEpisode, select_action


class Controller:
    """Chooses actions for one party from stacked observations."""

    stack_frames: int = 1

    def begin_episode(self) -> None:
        pass

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

    def __init__(self, nets, rng: np.random.Generator, stack_frames: int = 1):
        self.nets = nets
        self.rng = rng
        self.epsilon = 0.0
        self.stack_frames = stack_frames

    def act(self, obs_mat, mask_mat):
        actions = np.zeros(len(self.nets), dtype=int)
        for i, net in enumerate(self.nets):
            q, _ = net.forward(obs_mat[i])
            q = np.where(mask_mat[i], q, MASK_SENTINEL)
            actions[i] = select_action(q, self.epsilon, self.rng)
        return actions


class _Stacker:
    """Frame stacking: concatenates the current observation with the
    previous `frames - 1` ones (zeros before the episode starts)."""

    def __init__(self, n_agents: int, obs_dim: int, frames: int):
        self.frames = frames
        self.obs_dim = obs_dim
        self.history = np.zeros((n_agents, frames * obs_dim))

    def reset(self) -> None:
        self.history[:] = 0.0

    def push(self, raw: np.ndarray) -> np.ndarray:
        if self.frames == 1:
            return raw
        self.history[:, self.obs_dim :] = self.history[:, : -self.obs_dim]
        self.history[:, : self.obs_dim] = raw
        return self.history.copy()


@dataclass
class RolloutResult:
    trajectory: EpisodeTrajectory
    prepared: PreparedEpisode | None
    outcome: StepOutcome
    victim_return: float
    party_return: float


def run_episode(
    env: Environment,
    controllers: Mapping[Party, Controller],
    seed: int,
    learning_party: Party | None = None,
    reward_provider=None,
    conditioning: str = "party_obs",
) -> RolloutResult:
    """Roll one episode. When learning_party is set, per-step rewards come
    from the reward provider and a PreparedEpisode is assembled from that
    party's (stacked) observations."""
    state = env.reset(seed)
    parties = [p for p in (Party.VICTIM, Party.ADVERSARY) if env.agents(p) and p in controllers]
    stackers = {
        p: _Stacker(
            len(env.agents(p)), env.descriptor.obs_dim(p), controllers[p].stack_frames
        )
        for p in parties
    }
    for p in parties:
        controllers[p].begin_episode()
    if reward_provider is not None:
        reward_provider.begin_episode()

    records: list[StepRecord] = []
    prep: dict[str, list] = {k: [] for k in ("obs", "avail", "actions", "rewards", "cond")}
    next_obs_list: list = []
    next_avail_list: list = []
    next_cond_list: list = []
    victim_return = 0.0
    party_return = 0.0

    def party_views(st):
        views = {}
        for p in parties:
            raw = env.observe_party(st, p)
            masks = env.masks_party(st, p)
            views[p] = (raw, stackers[p].push(raw), masks)
        return views

    def conditioning_vec(views, st):
        if conditioning == "global_state":
            return env.global_features(st)
        _, stacked, _ = views[learning_party]
        return stacked.reshape(-1)

    views = party_views(state)
    outcome = None
    while True:
        actions: dict[AgentId, int] = {}
        for p in parties:
            raw, stacked, masks = views[p]
            chosen = controllers[p].act(stacked, masks)
            for agent, a in zip(env.agents(p), chosen):
                actions[agent] = int(a)
        nxt, outcome = env.step(state, actions)
        next_views = party_views(nxt)
        signals = outcome.failure_signals
        native = env.victim_task_reward(state, actions, nxt, outcome)
        victim_return += native

        # reward estimation reads the bystanders' post-step view: r_t is
        # computed after the state update, so the estimate can see what the
        # joint action just did
        adv_concat = None
        if Party.ADVERSARY in next_views:
            adv_concat = next_views[Party.ADVERSARY][0].reshape(-1)

        reward = 0.0
        if reward_provider is not None:
            reward = reward_provider.step(
                outcome=outcome,
                signals=signals,
                native_reward=native,
                adv_obs_concat=adv_concat,
            )
            party_return += reward

        obs_map, avail_map = {}, {}
        for p in parties:
            raw, _, masks = views[p]
            for i, agent in enumerate(env.agents(p)):
                obs_map[agent] = raw[i]
                avail_map[agent] = masks[i]
        records.append(
            StepRecord(
                observations=obs_map,
                available=avail_map,
                actions=dict(actions),
                failure_signals=signals,
                reward=reward,
                outcome=outcome,
            )
        )

        if learning_party is not None:
            _, stacked, masks = views[learning_party]
            prep["obs"].append(stacked)
            prep["avail"].append(masks)
            prep["actions"].append(
                np.array([actions[a] for a in env.agents(learning_party)], dtype=int)
            )
            prep["rewards"].append(reward)
            prep["cond"].append(conditioning_vec(views, state))

        state = nxt
        views = next_views
        if learning_party is not None:
            _, stacked, masks = views[learning_party]
            next_obs_list.append(stacked)
            next_avail_list.append(masks)
            next_cond_list.append(conditioning_vec(views, state))
        if outcome.terminal:
            break

    if reward_provider is not None:
        reward_provider.end_episode(outcome=outcome)

    prepared = None
    if learning_party is not None:
        T = len(prep["rewards"])
        terminal = np.zeros(T, dtype=bool)
        terminal[-1] = True
        prepared = PreparedEpisode(
            obs=np.stack(prep["obs"]),
            avail=np.stack(prep["avail"]),
            actions=np.stack(prep["actions"]),
            rewards=np.asarray(prep["rewards"], dtype=float),
            next_obs=np.stack(next_obs_list),
            next_avail=np.stack(next_avail_list),
            terminal=terminal,
            cond=np.stack(prep["cond"]),
            next_cond=np.stack(next_cond_list),
        )

    trajectory = EpisodeTrajectory(records=tuple(records), final_outcome=outcome, seed=seed)
    return RolloutResult(
        trajectory=trajectory,
        prepared=prepared,
        outcome=outcome,
        victim_return=victim_return,
        party_return=party_return,
    )
