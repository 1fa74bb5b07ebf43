"""Self-contained verification suites behind `oracle-check` and
`grad-check`: exact tabular equivalences and finite-difference gradient
audits, each with documented seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .neural import LSTMCell, MLP, grad_check
from .qmix import MixingNet
from .rewards import RewardModel, episode_sum_loss_grad
from .tabular import (
    brute_force_joint_argmax,
    composed_argmax,
    marginalize_fixed_parties,
    random_adv_policy,
    random_instance,
    reduced_value_iteration,
    scalar_policy_evaluation,
    value_iteration,
    vector_value_iteration,
)

ORACLE_SEEDS = tuple(range(1000, 1020))
GRAD_SEEDS = tuple(range(2000, 2010))
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


def fixed_party_reduction_residual(seeds=ORACLE_SEEDS) -> float:
    """Max sup-norm gap between optimizing on the full three-party model and
    on the model with fixed parties folded into the dynamics."""
    worst = 0.0
    for seed in seeds:
        rng = np.random.default_rng(seed)
        mdp = random_instance(rng)
        w = rng.uniform(0.0, 1.0, size=mdp.n_paths)
        scalar = mdp.rewards @ w
        q_full = value_iteration(mdp, scalar, tolerance=1e-13)
        reduced = marginalize_fixed_parties(mdp)
        q_reduced = reduced_value_iteration(reduced, reduced.rewards @ w, tolerance=1e-13)
        worst = max(worst, float(np.max(np.abs(q_full - q_reduced))))
    return worst


def weighted_evaluation_residual(seeds=ORACLE_SEEDS) -> float:
    """Max gap between scalar policy evaluation under the weighted reward and
    the weight-dotted component-wise evaluation."""
    worst = 0.0
    for seed in seeds:
        rng = np.random.default_rng(seed)
        mdp = random_instance(rng)
        w = rng.uniform(0.0, 1.0, size=mdp.n_paths)
        policy = random_adv_policy(rng, mdp)
        q_scalar = scalar_policy_evaluation(mdp, policy, mdp.rewards @ w, tolerance=1e-13)
        q_vec = vector_value_iteration(mdp, policy, tolerance=1e-13)
        worst = max(worst, float(np.max(np.abs(q_scalar - q_vec @ w))))
    return worst


def monotonicity_residual(n_cases: int = 1000, seed: int = 3000) -> float:
    """Most negative finite-difference dQ_tot/dQ_i over random mixer
    parameterizations and inputs (>= 0 up to FD noise when monotone)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    eps = 1e-6
    for _ in range(n_cases):
        n = int(rng.integers(1, 4))
        cond_dim = int(rng.integers(2, 8))
        mixer = MixingNet("probe", n, cond_dim, int(rng.integers(2, 8)), rng)
        q = rng.normal(size=n)
        cond = rng.normal(size=cond_dim)
        for i in range(n):
            hi = q.copy()
            hi[i] += eps
            lo = q.copy()
            lo[i] -= eps
            slope = (mixer.forward(hi, cond)[0] - mixer.forward(lo, cond)[0]) / (2 * eps)
            worst = min(worst, float(slope))
    return -worst  # residual = size of the worst violation


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
        cond = rng.normal(size=cond_dim)
        q_tables = [rng.normal(size=a) for a in actions]
        _, best = brute_force_joint_argmax(q_tables, lambda v: mixer.forward(v, cond)[0])
        greedy = composed_argmax(q_tables)
        vals = np.array([q[a] for q, a in zip(q_tables, greedy)])
        worst = max(worst, abs(best - mixer.forward(vals, cond)[0]))
    return worst


def find_nonmonotone_counterexample(seed: int = 3200, max_tries: int = 200) -> bool:
    """With a deliberately negative mixing weight, the composed argmax must
    stop matching the exhaustive search on some instance."""
    rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        n = 2
        q_tables = [rng.normal(size=3) for _ in range(n)]
        weights = np.array([1.0, -1.0])  # second agent mixed negatively

        def mixer_fn(vals):
            return float(weights @ vals)

        _, best = brute_force_joint_argmax(q_tables, mixer_fn)
        greedy = composed_argmax(q_tables)
        greedy_val = mixer_fn(np.array([q[a] for q, a in zip(q_tables, greedy)]))
        if best - greedy_val > 1e-9:
            return True
    return False


def _resample_until_smooth(build, seeds):
    """Build (loss_fn, backward_fn, params, kink_gap_fn) per seed; bump the
    seed while any rectifier/abs preactivation sits within KINK_GAP of its
    kink, where finite differences are unreliable."""
    cases = []
    for seed in seeds:
        attempt = seed
        for _ in range(50):
            case = build(np.random.default_rng(attempt))
            if case[3]() > KINK_GAP:
                cases.append(case)
                break
            attempt += 100_000
        else:
            raise RuntimeError("could not find a kink-free sample")
    return cases


def mlp_gradient_residual(seeds=GRAD_SEEDS) -> float:
    def build(rng):
        mlp = MLP(["g"], [4, 16, 8, 3], rng)
        x = rng.normal(size=(1, 5, 4))
        target = rng.normal(size=(1, 5, 3))

        def loss_fn():
            y, _ = mlp.forward(x)
            return float(((y - target) ** 2).sum())

        def backward_fn():
            for p in mlp.params():
                p.zero_grad()
            y, cache = mlp.forward(x)
            mlp.backward(cache, 2.0 * (y - target))

        def kink_gap():
            # distance of the nearest rectifier pre-activation from zero
            _, cache = mlp.forward(x)
            return min(
                float(np.min(np.abs(mlp.affine(l, inputs))))
                for l, inputs in enumerate(cache.layer_inputs[:-1])
            )

        return loss_fn, backward_fn, mlp.params(), kink_gap

    worst = 0.0
    for loss_fn, backward_fn, params, _ in _resample_until_smooth(build, seeds):
        worst = max(worst, grad_check(loss_fn, params, backward_fn=backward_fn).max_rel_error)
    return worst


def recurrent_gradient_residual(seeds=GRAD_SEEDS, steps: int = 5) -> float:
    worst = 0.0
    for seed in seeds:
        rng = np.random.default_rng(seed)
        cell = LSTMCell("g", 3, 8, rng)
        xs = rng.normal(size=(steps, 1, 3))

        def loss_fn():
            st = cell.initial_state(batch=1)
            total = 0.0
            for t in range(steps):
                y, st, _ = cell.step(xs[t], st)
                total += float(y[0])
            return total

        def backward_fn():
            for p in cell.params():
                p.zero_grad()
            st = cell.initial_state(batch=1)
            caches = []
            for t in range(steps):
                _, st, cache = cell.step(xs[t], st)
                caches.append(cache)
            dh = dc = None
            for cache in reversed(caches):
                dh, dc = cell.backward_step(cache, np.array([1.0]), dh, dc)

        worst = max(worst, grad_check(loss_fn, cell.params(), backward_fn=backward_fn).max_rel_error)
    return worst


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
            for p in mixer.params():
                p.zero_grad()
            q_tot, cache = mixer.forward(q, cond)
            mixer.backward(cache, 2.0 * q_tot)

        def kink_gap():
            # distance of the nearest |.|-transformed hypernetwork output from zero
            hypers = (mixer.hyper_w1, mixer.hyper_w2)
            return min(float(np.min(np.abs(lin.forward(cond)[0]))) for lin in hypers)

        return loss_fn, backward_fn, mixer.params(), kink_gap

    worst = 0.0
    for loss_fn, backward_fn, params, _ in _resample_until_smooth(build, seeds):
        worst = max(worst, grad_check(loss_fn, params, backward_fn=backward_fn).max_rel_error)
    return worst


def episode_sum_gradient_residual(seeds=GRAD_SEEDS, lengths=(3, 6, 1)) -> float:
    """Gradient of the mean squared episode-sum loss as the shipped
    reward-model update accumulates it, on a ragged batch whose longest
    episode is not first, so that the unroll's reordering and the rows
    leaving it as their episodes end are checked too."""
    worst = 0.0
    for seed in seeds:
        rng = np.random.default_rng(seed)
        model = RewardModel(4, 8, rng)
        episodes = [rng.normal(size=(steps, 4)) for steps in lengths]
        gts = rng.normal(size=len(lengths))

        def loss_fn():
            err = model.episode_sums(episodes) - gts
            return float(err @ err) / len(episodes)

        def backward_fn():
            for p in model.params():
                p.zero_grad()
            episode_sum_loss_grad(model, episodes, gts)

        worst = max(worst, grad_check(loss_fn, model.params(), backward_fn=backward_fn).max_rel_error)
    return worst


def run_oracle_checks() -> list[CheckResult]:
    results = [
        CheckResult("fixed-party reduction (full vs marginalized Q)", fixed_party_reduction_residual(), 1e-9),
        CheckResult("weighted vs component-wise policy evaluation", weighted_evaluation_residual(), 1e-9),
        CheckResult("mixer monotonicity (worst FD slope violation)", monotonicity_residual(), 1e-9),
        CheckResult("decentralized vs exhaustive argmax value", argmax_consistency_residual(), 1e-12),
    ]
    found = find_nonmonotone_counterexample()
    results.append(
        CheckResult("negative-weight counterexample found", 0.0 if found else 1.0, 0.5)
    )
    return results


def run_grad_checks() -> list[CheckResult]:
    return [
        CheckResult("mlp analytic vs finite differences", mlp_gradient_residual(), 1e-4),
        CheckResult("recurrent cell (5-step unroll)", recurrent_gradient_residual(), 1e-4),
        CheckResult("mixing network", mixer_gradient_residual(), 1e-4),
        CheckResult("episode-sum loss", episode_sum_gradient_residual(), 1e-4),
    ]
