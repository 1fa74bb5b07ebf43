"""Experiment harness: sweeps over environments, reward modes, bystander
counts and seeds, producing win-rate tables and learning-curve CSVs.

Experiment ids follow the study structure: rq1 cross-environment
generalization, rq2 reward-mode comparison, rq3 bystander-count sweep,
rq4 task-difficulty sweep. The rq5 defense retraining is no sweep: it is
`run_defense_experiment`, behind the `defend-retrain` command.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import ConfigError, Party, derive_seed
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
    eval_episodes: int
    train: TrainingConfig
    victim_checkpoint: str | None = None

    def __post_init__(self) -> None:
        if self.experiment_id not in EXPERIMENT_IDS:
            raise ConfigError(f"experiment id must be one of {EXPERIMENT_IDS}")
        if self.eval_episodes < 1:
            raise ConfigError("eval_episodes must be >= 1")
        if set(self.seeds) & {self.train.seed}:
            raise ConfigError("evaluation seeds must be disjoint from the training seed")

    def grid_points(self) -> list[tuple[str, object, RewardMode, int]]:
        points = []
        for label, env_cfg in self.env_grid:
            for mode in self.reward_modes:
                for count in self.adversary_counts:
                    points.append((label, env_cfg, mode, count))
        return points


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
    """Train (or reuse) one victim policy per environment label; a given
    victim_checkpoint must fit the label's env (ConfigError)."""
    path = out_dir / f"victims_{env_label}.npz"
    if spec.victim_checkpoint:
        src = Path(spec.victim_checkpoint)
        if not src.exists():
            raise FileNotFoundError(f"missing victim checkpoint: {src}")
        load_policy(src).check_fits(make_env(env_cfg), Party.VICTIM)
        return src
    if path.exists():
        return path
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


def _run_grid_point(args: tuple) -> dict:
    """One (env, mode, count, seed) attack run; self-contained for worker
    processes."""
    env_cfg, mode, count, seed, victim_path, out_dir, base_train, eval_episodes = args
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    victims = load_policy(victim_path)
    point_cfg = dataclasses.replace(env_cfg, adversary_count=count)
    cfg = dataclasses.replace(base_train, seed=seed, reward_mode=mode)
    result = train_adversaries(point_cfg, victims, cfg, out_dir)
    save_policy(out_dir / "adversaries.npz", result.policy)
    eval_seed = derive_seed(seed, "experiment.eval", 0)
    under, under_hw = evaluate_win_rate(point_cfg, victims, result.policy, eval_episodes, eval_seed)
    absent, _ = evaluate_win_rate(point_cfg, victims, None, eval_episodes, eval_seed)
    random_rate, _ = evaluate_win_rate(point_cfg, victims, "random", eval_episodes, eval_seed)
    return {
        "seed": seed,
        "under_attack": under,
        "under_attack_halfwidth": under_hw,
        "no_attack_absent": absent,
        "no_attack_random": random_rate,
        "curve": result.curve,
    }


def run_experiment(spec: ExperimentSpec, out_dir, workers: int = 1) -> WinRateTable:
    """Execute the grid, aggregate over seeds, and write tables plus
    plot-ready long-format curves."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    table = WinRateTable()
    points = spec.grid_points()
    if not points:
        table.write_csv(out_dir / f"{spec.experiment_id}_table.csv")
        return table

    # every env of the grid gets its victims before any point runs
    victim_paths = {}
    for label, env_cfg in spec.env_grid:
        victim_paths[label] = _victims_for(spec, label, env_cfg, out_dir)

    jobs = [
        (
            env_cfg,
            mode,
            count,
            seed,
            victim_paths[label],
            out_dir / _point_label(label, mode, count).replace("|", "_") / f"seed{seed}",
            spec.train,
            spec.eval_episodes,
        )
        for label, env_cfg, mode, count in points
        for seed in spec.seeds
    ]
    # one pool for the whole grid; map keeps job order, so the results of
    # each point are the next len(spec.seeds) in grid order
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            all_results = list(pool.map(_run_grid_point, jobs))
    else:
        all_results = [_run_grid_point(j) for j in jobs]

    long_rows: list[tuple] = []
    S = len(spec.seeds)
    for k, (label, _, mode, count) in enumerate(points):
        point = _point_label(label, mode, count)
        results = all_results[k * S : (k + 1) * S]
        under = np.array([r["under_attack"] for r in results])
        absent = np.array([r["no_attack_absent"] for r in results])
        random_rates = np.array([r["no_attack_random"] for r in results])
        table.rows.append(
            TableRow(
                label=point,
                under_attack=float(under.mean()),
                under_attack_std=float(under.std()),
                no_attack_absent=float(absent.mean()),
                no_attack_random=float(random_rates.mean()),
                seeds=len(spec.seeds),
            )
        )
        for r in results:
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
    eval_episodes: int = 200,
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
            [("skirmish-small", skirmish)],
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
        eval_episodes=eval_episodes,
        train=train,
    )
