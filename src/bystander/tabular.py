"""Exact tabular machinery on tiny multi-party MDPs.

Used as independent ground truth for the learner: full-model vs
marginalized-model value iteration (fixed parties can be folded into the
dynamics), component-wise vs weighted policy evaluation (the weight vector
commutes with long-horizon returns), and exhaustive joint-action search
against the decentralized argmax.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Sequence

import numpy as np

from .core import StructuralError

_ROW_TOL = 1e-12


def _check_stochastic(rows: np.ndarray, what: str) -> None:
    if np.any(rows < -_ROW_TOL):
        raise StructuralError(f"{what}: negative probabilities")
    sums = rows.sum(axis=-1)
    if np.any(np.abs(sums - 1.0) > 1e-9):
        raise StructuralError(f"{what}: rows must sum to 1 (max err {np.max(np.abs(sums - 1.0)):.2e})")


@dataclass(frozen=True)
class TabularMDP:
    """Three-party MDP with enumerated joint actions per party and a
    vector-valued (per failure path) reward table."""

    transitions: np.ndarray  # (S, Aa, Av, At, S)
    rewards: np.ndarray  # (S, Aa, Av, At, n_paths)
    gamma: float
    victim_policy: np.ndarray  # (S, Av)
    third_policy: np.ndarray  # (S, At)

    def __post_init__(self) -> None:
        S, Aa, Av, At, S2 = self.transitions.shape
        if S != S2:
            raise StructuralError("transition tensor must be square in states")
        if self.rewards.shape[:4] != (S, Aa, Av, At):
            raise StructuralError("reward table misaligned with transitions")
        if self.victim_policy.shape != (S, Av) or self.third_policy.shape != (S, At):
            raise StructuralError("fixed-policy tables misaligned")
        if not 0.0 <= self.gamma < 1.0:
            raise StructuralError("gamma must be in [0, 1)")

    @property
    def n_states(self) -> int:
        return self.transitions.shape[0]

    @property
    def n_adv_actions(self) -> int:
        return self.transitions.shape[1]

    @property
    def n_paths(self) -> int:
        return self.rewards.shape[4]

    def validate(self) -> None:
        _check_stochastic(self.transitions, "transitions")
        _check_stochastic(self.victim_policy, "victim policy")
        _check_stochastic(self.third_policy, "third policy")

    def fixed_party_weights(self) -> np.ndarray:
        """(S, Av, At) joint probability of the fixed parties' actions."""
        return np.einsum("sv,st->svt", self.victim_policy, self.third_policy)


@dataclass(frozen=True)
class ReducedMDP:
    """Single-party MDP after folding the fixed parties into the dynamics."""

    transitions: np.ndarray  # (S, Aa, S)
    rewards: np.ndarray  # (S, Aa, n_paths)
    gamma: float


def marginalize_fixed_parties(mdp: TabularMDP) -> ReducedMDP:
    """Fold the victim/third fixed policies into transitions and rewards."""
    mdp.validate()
    w = mdp.fixed_party_weights()
    transitions = np.einsum("savtz,svt->saz", mdp.transitions, w)
    rewards = np.einsum("savtp,svt->sap", mdp.rewards, w)
    _check_stochastic(transitions, "reduced transitions")
    return ReducedMDP(transitions=transitions, rewards=rewards, gamma=mdp.gamma)


def value_iteration(
    mdp: TabularMDP, scalar_rewards: np.ndarray, tolerance: float = 1e-12, max_iter: int = 100_000
) -> np.ndarray:
    """Optimal adversary Q over (state, adversary joint action) on the full
    model; fixed parties are averaged out inside every backup.
    """
    mdp.validate()
    S, Aa = mdp.n_states, mdp.n_adv_actions
    if scalar_rewards.shape != mdp.transitions.shape[:4]:
        raise StructuralError("scalar reward table misaligned")
    w = mdp.fixed_party_weights()
    r_bar = np.einsum("savt,svt->sa", scalar_rewards, w)
    q = np.zeros((S, Aa))
    for _ in range(max_iter):
        v = q.max(axis=1)
        backup = np.einsum("savtz,z->savt", mdp.transitions, v)
        q_new = r_bar + mdp.gamma * np.einsum("savt,svt->sa", backup, w)
        if np.max(np.abs(q_new - q)) <= tolerance:
            return q_new
        q = q_new
    return q


def reduced_value_iteration(
    reduced: ReducedMDP, scalar_rewards: np.ndarray, tolerance: float = 1e-12, max_iter: int = 100_000
) -> np.ndarray:
    """Optimal Q on an already-marginalized single-party MDP."""
    _check_stochastic(reduced.transitions, "reduced transitions")
    S, Aa, _ = reduced.transitions.shape
    if scalar_rewards.shape != (S, Aa):
        raise StructuralError("scalar reward table misaligned")
    q = np.zeros((S, Aa))
    for _ in range(max_iter):
        v = q.max(axis=1)
        q_new = scalar_rewards + reduced.gamma * reduced.transitions @ v
        if np.max(np.abs(q_new - q)) <= tolerance:
            return q_new
        q = q_new
    return q


def _check_policy(policy: np.ndarray, S: int, A: int) -> None:
    if policy.shape != (S, A):
        raise StructuralError("adversary policy table misaligned")
    _check_stochastic(policy, "adversary policy")


def scalar_policy_evaluation(
    mdp: TabularMDP,
    adv_policy: np.ndarray,
    scalar_rewards: np.ndarray,
    tolerance: float = 1e-12,
    max_iter: int = 100_000,
) -> np.ndarray:
    """Q of a FIXED adversary policy under a scalar reward table."""
    mdp.validate()
    S, Aa = mdp.n_states, mdp.n_adv_actions
    _check_policy(adv_policy, S, Aa)
    w = mdp.fixed_party_weights()
    r_bar = np.einsum("savt,svt->sa", scalar_rewards, w)
    p_bar = np.einsum("savtz,svt->saz", mdp.transitions, w)
    q = np.zeros((S, Aa))
    for _ in range(max_iter):
        v = (adv_policy * q).sum(axis=1)
        q_new = r_bar + mdp.gamma * p_bar @ v
        if np.max(np.abs(q_new - q)) <= tolerance:
            return q_new
        q = q_new
    return q


def vector_value_iteration(
    mdp: TabularMDP,
    adv_policy: np.ndarray,
    tolerance: float = 1e-12,
    max_iter: int = 100_000,
) -> np.ndarray:
    """Component-wise policy evaluation of the failure-path reward vector
    under a FIXED adversary policy: one Q table per path, (S, Aa, n_paths)."""
    mdp.validate()
    S, Aa, P = mdp.n_states, mdp.n_adv_actions, mdp.n_paths
    _check_policy(adv_policy, S, Aa)
    w = mdp.fixed_party_weights()
    r_bar = np.einsum("savtp,svt->sap", mdp.rewards, w)
    p_bar = np.einsum("savtz,svt->saz", mdp.transitions, w)
    q = np.zeros((S, Aa, P))
    for _ in range(max_iter):
        v = np.einsum("sa,sap->sp", adv_policy, q)
        q_new = r_bar + mdp.gamma * np.einsum("saz,zp->sap", p_bar, v)
        if np.max(np.abs(q_new - q)) <= tolerance:
            return q_new
        q = q_new
    return q


def brute_force_joint_argmax(
    q_tables: Sequence[np.ndarray], mixer_fn: Callable[[np.ndarray], float]
) -> tuple[tuple[int, ...], float]:
    """Exhaustive search over joint actions for the best mixed value."""
    best_joint, best_val = None, -np.inf
    for joint in product(*(range(len(q)) for q in q_tables)):
        vals = np.array([q[a] for q, a in zip(q_tables, joint)])
        total = mixer_fn(vals)
        if total > best_val:
            best_joint, best_val = joint, total
    return best_joint, float(best_val)


def composed_argmax(q_tables: Sequence[np.ndarray]) -> tuple[int, ...]:
    """Per-agent greedy actions (ties to the lowest id)."""
    return tuple(int(np.argmax(q)) for q in q_tables)


def random_instance(
    rng: np.random.Generator,
    n_states: int = 6,
    adv_actions: int = 3,
    vic_actions: int = 2,
    thr_actions: int = 2,
    n_paths: int = 3,
    gamma: float = 0.9,
) -> TabularMDP:
    """Random dense instance: Dirichlet transition/policy rows, uniform
    rewards in [0, 1]."""
    shape = (n_states, adv_actions, vic_actions, thr_actions)
    transitions = rng.dirichlet(np.ones(n_states), size=shape)
    rewards = rng.uniform(0.0, 1.0, size=shape + (n_paths,))
    victim_policy = rng.dirichlet(np.ones(vic_actions), size=n_states)
    third_policy = rng.dirichlet(np.ones(thr_actions), size=n_states)
    return TabularMDP(
        transitions=transitions,
        rewards=rewards,
        gamma=gamma,
        victim_policy=victim_policy,
        third_policy=third_policy,
    )


def random_adv_policy(rng: np.random.Generator, mdp: TabularMDP) -> np.ndarray:
    return rng.dirichlet(np.ones(mdp.n_adv_actions), size=mdp.n_states)
