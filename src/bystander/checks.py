"""Self-contained verification suites behind `oracle-check` and
`grad-check`, each with documented seeds.

`oracle-check` checks properties the method rests on, all on shipped code:
the QMIX mixer's monotonicity and the decentralized argmax it licenses, on
`MixingNet`; and the bystander replay, on both envs, that makes the
bystanders' problem a single-party MDP once the victims are frozen, with
the neutrality audit (`audit_neutrality`: no bystander attacks, collides
with or shares a cell with a victim) and the trajectory audit
(`validate_trajectory`) of every episode it plays.
`grad-check` compares the hand-written gradients of the agent nets, the
packed recurrent cell, the mixer and the reward model's episode-sum loss
with finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Sequence

import numpy as np

from .core import ContractViolation, EpisodeTrajectory, Party, validate_trajectory
from .envs import PRESETS, audit_neutrality, make_env
from .neural import LSTMCell, MLP, grad_check
from .qmix import MixingNet
from .rewards import RewardModel, episode_sum_loss_grad
from .rollout import Controller, RandomController, run_episode
from .training import FrozenPolicy

GRAD_SEEDS = tuple(range(2000, 2010))
REPLAY_PRESETS = ("skirmish-small", "corridor-small")
REPLAY_SEEDS = tuple(range(4000, 4005))
KINK_GAP = 1e-4


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    bound: float

    @property
    def ok(self) -> bool:
        return self.residual < self.bound

    def line(self) -> str:
        status = "pass" if self.ok else "FAIL"
        return f"[{status}] {self.name}: residual {self.residual:.3e} (bound {self.bound:.1e})"


def brute_force_joint_max(q_tables: Sequence[np.ndarray], mixer_fn: Callable[[np.ndarray], float]) -> float:
    """Exhaustive search over joint actions for the best mixed value."""
    best_val = -np.inf
    for joint in product(*(range(len(q)) for q in q_tables)):
        best_val = max(best_val, mixer_fn(np.array([q[a] for q, a in zip(q_tables, joint)])))
    return float(best_val)


def composed_argmax(q_tables: Sequence[np.ndarray]) -> tuple[int, ...]:
    """Per-agent greedy actions (ties to the lowest id)."""
    return tuple(int(np.argmax(q)) for q in q_tables)


def monotonicity_residual(n_cases: int = 1000, seed: int = 3000) -> float:
    """Size of the most negative finite-difference dQ_tot/dQ_i over random
    mixer parameterizations and inputs (0 up to FD noise when monotone)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    eps = 1e-6
    for _ in range(n_cases):
        n = int(rng.integers(1, 4))
        cond_dim = int(rng.integers(2, 8))
        mixer = MixingNet("probe", n, cond_dim, int(rng.integers(2, 8)), rng)
        q = rng.normal(size=(1, n))
        cond = rng.normal(size=(1, cond_dim))
        for i in range(n):
            hi = q.copy()
            hi[0, i] += eps
            lo = q.copy()
            lo[0, i] -= eps
            slope = (mixer.forward(hi, cond)[0][0] - mixer.forward(lo, cond)[0][0]) / (2 * eps)
            worst = max(worst, -float(slope))
    return worst


def argmax_consistency_residual(n_cases: int = 500, seed: int = 3100) -> float:
    """Max value gap between exhaustive joint search and the composed
    per-agent argmax through a monotone mixer."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_cases):
        n = int(rng.integers(1, 4))
        actions = [int(rng.integers(2, 6)) for _ in range(n)]
        cond_dim = int(rng.integers(2, 6))
        mixer = MixingNet("probe", n, cond_dim, 4, rng)
        cond = rng.normal(size=(1, cond_dim))
        q_tables = [rng.normal(size=a) for a in actions]
        best = brute_force_joint_max(q_tables, lambda v: mixer.forward(v[None], cond)[0][0])
        greedy = composed_argmax(q_tables)
        vals = np.array([[q[a] for q, a in zip(q_tables, greedy)]])
        worst = max(worst, abs(best - mixer.forward(vals, cond)[0][0]))
    return worst


class _Playback(Controller):
    """Plays a recorded (T, n) action sequence back, one row per call; an
    IndexError once the record runs out."""

    def __init__(self, actions: np.ndarray):
        self.actions = actions
        self.t = 0

    def act(self, obs_mat, mask_mat):
        self.t += 1
        return self.actions[self.t - 1]


def _same_play(a: EpisodeTrajectory, b: EpisodeTrajectory) -> bool:
    if len(a) != len(b) or a.states != b.states:
        return False
    for p in a.actions:
        for x, y in ((a.obs, b.obs), (a.avail, b.avail), (a.actions, b.actions)):
            if not np.array_equal(x[p], y[p]):
                return False
    return all(
        (x.terminal, x.victim_success) == (y.terminal, y.victim_success)
        and np.array_equal(x.failure_signals, y.failure_signals)
        for x, y in zip(a.outcomes, b.outcomes)
    )


def bystander_replay_residual(presets=REPLAY_PRESETS, seeds=REPLAY_SEEDS, net_seed: int = 4100) -> float:
    """Number of episodes a replay fails to reproduce.

    Per preset, the victims are a FrozenPolicy over a seeded, untrained MLP:
    the property does not depend on training. Each seed's episode is played
    with random bystanders, then again from the same seed with the same
    victims and the recorded bystander actions played back. Once the victims
    are frozen, the bystanders' actions alone must fix the episode, so every
    state, every party's observations, masks and actions and every step
    outcome must repeat bit for bit; a replayed action env.step refuses, or a replay that
    outlasts the record, counts as a miss too, as does a played episode that
    fails the neutrality or the trajectory audit."""
    misses = 0
    for name in presets:
        env = make_env(PRESETS[name])
        d = env.descriptor
        n_victims = len(env.agents(Party.VICTIM))
        dims = [d.obs_dim(Party.VICTIM), 16, 16, d.n_actions(Party.VICTIM)]
        net = MLP([f"victim{i}" for i in range(n_victims)], dims, np.random.default_rng(net_seed))
        victims = FrozenPolicy(Party.VICTIM, net).as_controller()
        for seed in seeds:
            bystanders = RandomController(np.random.default_rng(seed))
            played = run_episode(env, {Party.VICTIM: victims, Party.ADVERSARY: bystanders}, seed).trajectory
            playback = _Playback(played.actions[Party.ADVERSARY])
            try:
                audit_neutrality(env, played)
                again = run_episode(env, {Party.VICTIM: victims, Party.ADVERSARY: playback}, seed).trajectory
            except (ContractViolation, IndexError):
                misses += 1
                continue
            misses += not (_same_play(played, again) and validate_trajectory(played, d).ok)
    return float(misses)


def _worst_kink_free(build, seeds) -> float:
    """The worst grad_check residual over one case per seed, each built as
    (loss_fn, backward_fn, store, kink_gap_fn); the seed is bumped while any
    rectifier/abs preactivation sits within KINK_GAP of its kink, where
    finite differences are unreliable. A case without kinks has gap inf."""
    worst = 0.0
    for seed in seeds:
        attempt = seed
        for _ in range(50):
            loss_fn, backward_fn, store, kink_gap = build(np.random.default_rng(attempt))
            if kink_gap() > KINK_GAP:
                worst = max(worst, grad_check(loss_fn, store, backward_fn))
                break
            attempt += 100_000
        else:
            raise RuntimeError("could not find a kink-free sample")
    return worst


def mlp_gradient_residual(seeds=GRAD_SEEDS) -> float:
    def build(rng):
        mlp = MLP(["g"], [4, 16, 8, 3], rng)
        x = rng.normal(size=(1, 5, 4))
        target = rng.normal(size=(1, 5, 3))

        def loss_fn():
            y, _ = mlp.forward(x)
            return float(((y - target) ** 2).sum())

        def backward_fn():
            y, cache = mlp.forward(x)
            mlp.backward(cache, 2.0 * (y - target))

        def kink_gap():
            # distance of the nearest rectifier pre-activation from zero
            _, cache = mlp.forward(x)
            return min(
                float(np.min(np.abs(mlp.affine(l, inputs))))
                for l, inputs in enumerate(cache.layer_inputs[:-1])
            )

        return loss_fn, backward_fn, mlp.flat, kink_gap

    return _worst_kink_free(build, seeds)


def packed_recurrent_gradient_residual(seeds=GRAD_SEEDS, lengths=(6, 3, 3, 1)) -> float:
    """Gradient of `LSTMCell.forward_packed`/`backward_packed`, the path
    the reward model trains through, under a loss that weights every packed
    row's head output by its own random factor, so that each row gets its
    own upstream gradient. The sequences are ragged and packed longest
    first, so rows leave the unroll as their sequences end."""
    live = np.sum(np.array(lengths) > np.arange(max(lengths))[:, None], axis=1)

    def build(rng):
        cell = LSTMCell("g", 3, 8, rng)
        x = rng.normal(size=(sum(lengths), 3))
        weights = rng.normal(size=len(x))

        def loss_fn():
            return float(weights @ cell.forward_packed(x, live)[0])

        def backward_fn():
            _, cache = cell.forward_packed(x, live)
            cell.backward_packed(cache, weights)

        return loss_fn, backward_fn, cell.flat, lambda: np.inf

    return _worst_kink_free(build, seeds)


def mixer_gradient_residual(seeds=GRAD_SEEDS) -> float:
    def build(rng):
        n = 3
        mixer = MixingNet("g", n, 6, 5, rng)
        q = rng.normal(size=(4, n))
        cond = rng.normal(size=(4, 6))

        def loss_fn():
            q_tot, _ = mixer.forward(q, cond)
            return float((q_tot**2).sum())

        def backward_fn():
            q_tot, cache = mixer.forward(q, cond)
            mixer.backward(cache, 2.0 * q_tot)

        def kink_gap():
            # distance of the nearest |.|-transformed hypernetwork output from zero
            hypers = (mixer.hyper_w1, mixer.hyper_w2)
            return min(float(np.min(np.abs(lin.forward(cond)))) for lin in hypers)

        return loss_fn, backward_fn, mixer.flat, kink_gap

    return _worst_kink_free(build, seeds)


def episode_sum_gradient_residual(seeds=GRAD_SEEDS, lengths=(3, 6, 1)) -> float:
    """Gradient of the mean squared episode-sum loss as the shipped
    reward-model update accumulates it, on a ragged batch whose longest
    episode is not first, so that the unroll's reordering and the rows
    leaving it as their episodes end are checked too."""
    def build(rng):
        model = RewardModel(4, 8, rng)
        episodes = [rng.normal(size=(steps, 4)) for steps in lengths]
        gts = rng.normal(size=len(lengths))

        def loss_fn():
            err = model.episode_sums(episodes) - gts
            return float(err @ err) / len(episodes)

        def backward_fn():
            episode_sum_loss_grad(model, episodes, gts)

        return loss_fn, backward_fn, model.cell.flat, lambda: np.inf

    return _worst_kink_free(build, seeds)


def run_oracle_checks() -> list[CheckResult]:
    return [
        CheckResult("mixer monotonicity (worst FD slope violation)", monotonicity_residual(), 1e-9),
        CheckResult("decentralized vs exhaustive argmax value", argmax_consistency_residual(), 1e-12),
        CheckResult(
            f"bystander replay against frozen victims ({', '.join(REPLAY_PRESETS)}), with its audits",
            bystander_replay_residual(),
            0.5,
        ),
    ]


def run_grad_checks() -> list[CheckResult]:
    return [
        CheckResult("mlp analytic vs finite differences", mlp_gradient_residual(), 1e-4),
        CheckResult("packed recurrent cell (per-row loss, ragged)", packed_recurrent_gradient_residual(), 1e-4),
        CheckResult("mixing network", mixer_gradient_residual(), 1e-4),
        CheckResult("episode-sum loss", episode_sum_gradient_residual(), 1e-4),
    ]
