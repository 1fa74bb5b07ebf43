"""Experiment harness: sweeps over environments, reward modes, bystander
counts and seeds, writing win-rate and learning-curve tables (`write_table`).

`GRIDS` describes each sweep, keyed by its id in the study structure:
rq1 cross-environment generalization, rq2 reward-mode comparison, rq3
bystander-count sweep, rq4 task-difficulty sweep. The rq5 defense
retraining is no sweep: it is `run_defense_experiment`, behind the
`defend-retrain` command, which retrains victims as phase 1 does but
against a frozen attack, and tables the original and the retrained victims
under attack, without bystanders and with bystanders acting at random.

A sweep plays each of its evaluations once, with `train.eval_episodes`
episodes on the seeds `derive_seed(seed, "eval.episode", k)` of its grid
seed. The under-attack rate is the one `train_adversaries` measures at the
end of training. The baselines are played on those same episode seeds, so
every mode of one (env, count) is compared with the same paired baseline
episodes: bystanders acting at random once per (env, count, seed), and
bystanders absent once per (env, seed), as no count changes that play.
"""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

from .core import ConfigError, Party
from .envs import PRESETS, make_env
from .training import (
    REWARDS,
    RewardMode,
    TrainingConfig,
    evaluate_win_rate,
    load_policy,
    save_policy,
    train_adversaries,
    train_victims,
    write_table,
)

# id: (env presets, each labelled by its name; reward modes; bystander counts)
GRIDS = {
    "rq1": (("skirmish-small", "corridor-small"), (RewardMode.ESTIMATION,), (2,)),
    "rq2": (
        ("skirmish-small", "corridor-small"),
        (RewardMode.TRADITIONAL, RewardMode.RULE_IMMEDIATE, RewardMode.ESTIMATION),
        (2,),
    ),
    "rq3": (("skirmish-small",), (RewardMode.ESTIMATION,), (1, 2, 3)),
    "rq4": (("skirmish-small", "skirmish-even", "skirmish-hard"), (RewardMode.ESTIMATION,), (2,)),
}


@dataclass
class ExperimentSpec:
    """One sweep of `GRIDS` at the given seeds. The victims train at
    train.seed; each attack arm sets its own seed, reward mode and oracle
    flag, so train's reward_mode and victim_reward_access go unread."""

    experiment_id: str
    train: TrainingConfig
    seeds: Sequence[int] = (101, 102, 103, 104, 105)
    victim_checkpoint: str | None = None

    def __post_init__(self) -> None:
        if self.experiment_id not in GRIDS:
            raise ConfigError(
                f"experiment id must be one of {tuple(GRIDS)}; rq5 (defense retraining) is the defend-retrain command"
            )
        if not self.seeds:
            raise ConfigError("an experiment needs at least one seed")
        # a repeated seed would share its grid points' jobs and count twice in the table
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"experiment seeds {self.seeds} repeat a seed")
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


def _point_label(env_label: str, mode: RewardMode, count: int) -> str:
    return f"{env_label}|{mode.value}|adv{count}"


def _victims_for(spec: ExperimentSpec, preset: str, out_dir: Path) -> Path:
    """Train one victim policy per env preset; a given victim_checkpoint
    must fit the preset's env (ConfigError)."""
    path = out_dir / f"victims_{preset}.npz"
    if spec.victim_checkpoint:
        src = Path(spec.victim_checkpoint)
        if not src.exists():
            raise FileNotFoundError(f"missing victim checkpoint: {src}")
        load_policy(src).check_fits(make_env(PRESETS[preset]), Party.VICTIM)
        return src
    result = train_victims(PRESETS[preset], spec.train, out_dir / f"victim_{preset}")
    save_policy(path, result.policy)
    (out_dir / f"victims_{preset}.json").write_text(
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
    processes. The oracle flag is set when the mode's REWARDS row has channels."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    victims = load_policy(victim_path)
    point_cfg = dataclasses.replace(env_cfg, adversary_count=count)
    access = bool(REWARDS[mode][0])
    cfg = dataclasses.replace(base_train, seed=seed, reward_mode=mode, victim_reward_access=access)
    result = train_adversaries(point_cfg, victims, cfg, out_dir)
    save_policy(out_dir / "adversaries.npz", result.policy)
    return {"seed": seed, "under_attack": result.under_attack_win_rate, "curve": result.curve}


def _play_baseline(env_cfg, adversary, seed, victim_path, episodes) -> float:
    """Victim win rate with the bystanders absent (None) or acting at random
    ("random"), on the episode seeds of the attack evaluations at this seed."""
    return evaluate_win_rate(env_cfg, load_policy(victim_path), adversary, episodes, seed)[0]


def run_experiment(spec: ExperimentSpec, out_dir, workers: int = 1) -> list[TableRow]:
    """Execute the grid, aggregate over seeds, and write the table of its
    rows, `{id}_table.csv` with TableRow's fields for header, plus the
    plot-ready long-format curves, `{id}_curves_long.csv`; returns the rows.

    A row's under-attack rate is the mean over seeds of `train_adversaries`'
    own evaluation; its baseline columns are played on the same episode
    seeds and shared by the row's modes (the absent one also by its counts)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    presets, modes, counts = GRIDS[spec.experiment_id]
    # every env of the grid gets its victims before any point runs
    victim_paths = {label: _victims_for(spec, label, out_dir) for label in presets}
    points = list(product(presets, modes, counts))
    episodes = spec.train.eval_episodes
    jobs = {}
    for (label, mode, count), seed in product(points, spec.seeds):
        point_dir = out_dir / _point_label(label, mode, count).replace("|", "_") / f"seed{seed}"
        jobs["attack", label, mode, count, seed] = (
            _run_grid_point, PRESETS[label], mode, count, seed, victim_paths[label], point_dir, spec.train
        )
    for label, seed in product(presets, spec.seeds):
        jobs["absent", label, seed] = (_play_baseline, PRESETS[label], None, seed, victim_paths[label], episodes)
    for label, count, seed in product(presets, counts, spec.seeds):
        point_cfg = dataclasses.replace(PRESETS[label], adversary_count=count)
        jobs["random", label, count, seed] = (_play_baseline, point_cfg, "random", seed, victim_paths[label], episodes)
    # one pool for the whole grid, no larger than it: a pool starts every worker on first submit
    if workers > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            futures = [pool.submit(*job) for job in jobs.values()]
            results = dict(zip(jobs, [f.result() for f in futures]))
    else:
        results = {key: fn(*args) for key, (fn, *args) in jobs.items()}

    table: list[TableRow] = []
    long_rows: list[tuple] = [("experiment", "env", "reward_mode", "adversary_count", "seed", "episode", "win_rate")]
    for label, mode, count in points:
        attacks = [results["attack", label, mode, count, seed] for seed in spec.seeds]
        under = np.array([r["under_attack"] for r in attacks])
        absent = np.mean([results["absent", label, seed] for seed in spec.seeds])
        random_rate = np.mean([results["random", label, count, seed] for seed in spec.seeds])
        table.append(
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

    header = [f.name for f in dataclasses.fields(TableRow)]
    write_table(out_dir / f"{spec.experiment_id}_table.csv", [header, *(dataclasses.astuple(r) for r in table)])
    write_table(out_dir / f"{spec.experiment_id}_curves_long.csv", long_rows)
    return table


def run_defense_experiment(
    env_cfg,
    victim_path: Path,
    adversary_path: Path,
    cfg: TrainingConfig,
    out_dir,
) -> dict[str, tuple[float, float]]:
    """RQ5: phase-1 victim training against the frozen attack, at cfg.seed.

    Both checkpoints are loaded, and the original victims checked against
    the env, before any training. Returns, and writes to rq5_table.csv, the
    win rate of the original victims (before) and of the retrained ones
    (after) per condition: under_attack, no_attack and random. The retrained
    victims' two baselines are the ones `train_victims` measures."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    victims = load_policy(victim_path)
    attack = load_policy(adversary_path)
    victims.check_fits(make_env(env_cfg), Party.VICTIM)
    retrained = train_victims(env_cfg, cfg, out_dir, bystanders=attack)
    save_policy(out_dir / "retrained_victims.npz", retrained.policy)

    def rate(policy, bystanders) -> float:
        return evaluate_win_rate(env_cfg, policy, bystanders, cfg.eval_episodes, cfg.seed)[0]

    table = {
        "under_attack": (rate(victims, attack), rate(retrained.policy, attack)),
        "no_attack": (rate(victims, None), retrained.no_attack_win_rate),
        "random": (rate(victims, "random"), retrained.random_neutral_win_rate),
    }
    rows = [(condition, before, after) for condition, (before, after) in table.items()]
    write_table(out_dir / "rq5_table.csv", [("condition", "before", "after"), *rows])
    return table

