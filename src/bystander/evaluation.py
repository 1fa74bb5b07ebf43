"""Experiment harness: sweeps over environments, reward modes, bystander
counts and seeds, producing win-rate tables and learning-curve CSVs.

Experiment ids follow the study structure: rq1 cross-environment
generalization, rq2 reward-mode comparison, rq3 bystander-count sweep,
rq4 task-difficulty sweep. The rq5 defense retraining is no sweep: it is
`run_defense_experiment`, behind the `defend-retrain` command.

A sweep plays each of its evaluations once, with `train.eval_episodes`
episodes on the seeds `derive_seed(seed, "eval.episode", k)` of its grid
seed. The under-attack rate is the one `train_adversaries` measures at the
end of training. The baselines are played on those same episode seeds, so
every mode of one (env, count) is compared with the same paired baseline
episodes: bystanders acting at random once per (env, count, seed), and
bystanders absent once per (env, seed), as no count changes that play.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

import numpy as np

from .core import ConfigError, Party
from .envs import PRESETS, make_env
from .training import (
    DefenseResult,
    RewardMode,
    TrainingConfig,
    evaluate_win_rate,
    load_policy,
    retrain_victims_defense,
    save_policy,
    train_adversaries,
    train_victims,
)

EXPERIMENT_IDS = ("rq1", "rq2", "rq3", "rq4")


@dataclass
class ExperimentSpec:
    experiment_id: str
    env_grid: list[tuple[str, object]]  # (label, env config)
    reward_modes: list[RewardMode]
    adversary_counts: list[int]
    seeds: list[int]
    train: TrainingConfig
    victim_checkpoint: str | None = None

    def __post_init__(self) -> None:
        if self.experiment_id not in EXPERIMENT_IDS:
            raise ConfigError(f"experiment id must be one of {EXPERIMENT_IDS}")
        if not self.seeds:
            raise ConfigError("an experiment needs at least one seed")
        if set(self.seeds) & {self.train.seed}:
            raise ConfigError("evaluation seeds must be disjoint from the training seed")


@dataclass(frozen=True)
class TableRow:
    label: str
    under_attack: float
    under_attack_std: float
    no_attack_absent: float
    no_attack_random: float
    seeds: int


@dataclass
class WinRateTable:
    rows: list[TableRow] = field(default_factory=list)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(
                ("label", "under_attack", "under_attack_std", "no_attack_absent", "no_attack_random", "seeds")
            )
            for r in self.rows:
                w.writerow(
                    (
                        r.label,
                        f"{r.under_attack:.10g}",
                        f"{r.under_attack_std:.10g}",
                        f"{r.no_attack_absent:.10g}",
                        f"{r.no_attack_random:.10g}",
                        r.seeds,
                    )
                )


def _point_label(env_label: str, mode: RewardMode, count: int) -> str:
    return f"{env_label}|{mode.value}|adv{count}"


def _victims_for(spec: ExperimentSpec, env_label: str, env_cfg, out_dir: Path) -> Path:
    """Train one victim policy per environment label; a given
    victim_checkpoint must fit the label's env (ConfigError)."""
    path = out_dir / f"victims_{env_label}.npz"
    if spec.victim_checkpoint:
        src = Path(spec.victim_checkpoint)
        if not src.exists():
            raise FileNotFoundError(f"missing victim checkpoint: {src}")
        load_policy(src).check_fits(make_env(env_cfg), Party.VICTIM)
        return src
    result = train_victims(env_cfg, spec.train, out_dir / f"victim_{env_label}")
    save_policy(path, result.policy)
    (out_dir / f"victims_{env_label}.json").write_text(
        json.dumps(
            {
                "no_attack": result.no_attack_win_rate,
                "random_neutral": result.random_neutral_win_rate,
            },
            sort_keys=True,
        )
    )
    return path


def _run_grid_point(env_cfg, mode, count, seed, victim_path, out_dir, base_train) -> dict:
    """One (env, mode, count, seed) attack run; self-contained for worker
    processes."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    victims = load_policy(victim_path)
    point_cfg = dataclasses.replace(env_cfg, adversary_count=count)
    cfg = dataclasses.replace(base_train, seed=seed, reward_mode=mode)
    result = train_adversaries(point_cfg, victims, cfg, out_dir)
    save_policy(out_dir / "adversaries.npz", result.policy)
    return {"seed": seed, "under_attack": result.under_attack_win_rate, "curve": result.curve}


def _play_baseline(env_cfg, adversary, seed, victim_path, episodes) -> float:
    """Victim win rate with the bystanders absent (None) or acting at random
    ("random"), on the episode seeds of the attack evaluations at this seed."""
    return evaluate_win_rate(env_cfg, load_policy(victim_path), adversary, episodes, seed)[0]


def run_experiment(spec: ExperimentSpec, out_dir, workers: int = 1) -> WinRateTable:
    """Execute the grid, aggregate over seeds, and write tables plus
    plot-ready long-format curves.

    A row's under-attack rate is the mean over seeds of `train_adversaries`'
    own evaluation; its baseline columns are played on the same episode
    seeds and shared by the row's modes (the absent one also by its counts)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    env_cfgs = dict(spec.env_grid)
    # every env of the grid gets its victims before any point runs
    victim_paths = {label: _victims_for(spec, label, env_cfg, out_dir) for label, env_cfg in env_cfgs.items()}
    points = list(product(env_cfgs, spec.reward_modes, spec.adversary_counts))
    episodes = spec.train.eval_episodes
    jobs = {}
    for (label, mode, count), seed in product(points, spec.seeds):
        point_dir = out_dir / _point_label(label, mode, count).replace("|", "_") / f"seed{seed}"
        jobs["attack", label, mode, count, seed] = (
            _run_grid_point, env_cfgs[label], mode, count, seed, victim_paths[label], point_dir, spec.train
        )
    for label, seed in product(env_cfgs, spec.seeds):
        jobs["absent", label, seed] = (_play_baseline, env_cfgs[label], None, seed, victim_paths[label], episodes)
    for label, count, seed in product(env_cfgs, spec.adversary_counts, spec.seeds):
        point_cfg = dataclasses.replace(env_cfgs[label], adversary_count=count)
        jobs["random", label, count, seed] = (_play_baseline, point_cfg, "random", seed, victim_paths[label], episodes)
    # one pool for the attacks and the baselines of the whole grid
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(*job) for job in jobs.values()]
            results = dict(zip(jobs, [f.result() for f in futures]))
    else:
        results = {key: fn(*args) for key, (fn, *args) in jobs.items()}

    table = WinRateTable()
    long_rows: list[tuple] = []
    for label, mode, count in points:
        attacks = [results["attack", label, mode, count, seed] for seed in spec.seeds]
        under = np.array([r["under_attack"] for r in attacks])
        absent = np.mean([results["absent", label, seed] for seed in spec.seeds])
        random_rate = np.mean([results["random", label, count, seed] for seed in spec.seeds])
        table.rows.append(
            TableRow(
                label=_point_label(label, mode, count),
                under_attack=float(under.mean()),
                under_attack_std=float(under.std()),
                no_attack_absent=float(absent),
                no_attack_random=float(random_rate),
                seeds=len(spec.seeds),
            )
        )
        for r in attacks:
            for ep, rate in r["curve"]:
                long_rows.append((spec.experiment_id, label, mode.value, count, r["seed"], ep, rate))

    table.write_csv(out_dir / f"{spec.experiment_id}_table.csv")
    with open(out_dir / f"{spec.experiment_id}_curves_long.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("experiment", "env", "reward_mode", "adversary_count", "seed", "episode", "win_rate"))
        for row in long_rows:
            w.writerow(row)
    return table


def run_defense_experiment(
    env_cfg,
    victim_path: Path,
    adversary_path: Path,
    cfg: TrainingConfig,
    out_dir,
) -> DefenseResult:
    """RQ5: retrain victims against a frozen attack and report the before vs
    after win rates."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    victims = load_policy(victim_path)
    adversaries = load_policy(adversary_path)
    result = retrain_victims_defense(env_cfg, adversaries, cfg, victims, out_dir)
    with open(out_dir / "rq5_table.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("condition", "before", "after"))
        w.writerow(("under_attack", f"{result.before_under_attack:.10g}", f"{result.after_under_attack:.10g}"))
        w.writerow(("no_attack", f"{result.before_no_attack:.10g}", f"{result.after_no_attack:.10g}"))
    save_policy(out_dir / "retrained_victims.npz", result.retrained)
    return result


def default_spec(
    experiment_id: str,
    train: TrainingConfig,
    seeds: list[int] | None = None,
) -> ExperimentSpec:
    """Desk-scale default grids for each research question."""
    seeds = seeds if seeds is not None else [101, 102, 103, 104, 105]
    skirmish = PRESETS["skirmish-small"]
    grids = {
        "rq1": (
            [("skirmish-small", skirmish), ("corridor-small", PRESETS["corridor-small"])],
            [RewardMode.ESTIMATION],
            [2],
        ),
        "rq2": (
            [("skirmish-small", skirmish), ("corridor-small", PRESETS["corridor-small"])],
            [RewardMode.TRADITIONAL, RewardMode.RULE_IMMEDIATE, RewardMode.ESTIMATION],
            [2],
        ),
        "rq3": ([("skirmish-small", skirmish)], [RewardMode.ESTIMATION], [1, 2, 3]),
        "rq4": (
            [
                ("skirmish-small", skirmish),
                ("skirmish-even", PRESETS["skirmish-even"]),
                ("skirmish-hard", PRESETS["skirmish-hard"]),
            ],
            [RewardMode.ESTIMATION],
            [2],
        ),
    }
    if experiment_id not in grids:
        raise ConfigError(
            f"experiment id must be one of {EXPERIMENT_IDS}; rq5 (defense retraining) is the defend-retrain command"
        )
    env_grid, modes, counts = grids[experiment_id]
    if experiment_id == "rq2":
        train = dataclasses.replace(train, victim_reward_access=True)
    return ExperimentSpec(
        experiment_id=experiment_id,
        env_grid=env_grid,
        reward_modes=modes,
        adversary_counts=counts,
        seeds=seeds,
        train=train,
    )
