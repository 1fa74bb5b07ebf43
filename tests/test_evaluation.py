import dataclasses

import numpy as np
import pytest

from bystander import evaluation, training
from bystander.cli import EXIT_CONFIG, dispatch
from bystander.core import ConfigError
from bystander.envs import PRESETS
from bystander.evaluation import default_spec, run_experiment
from bystander.training import (
    FrozenPolicy,
    TrainingConfig,
    evaluate_win_rate,
    save_policy,
    train_adversaries,
    train_victims,
)

TINY = TrainingConfig(
    episodes=4,
    batch_size=2,
    buffer_capacity=8,
    hidden_size=8,
    mix_embed=4,
    eval_interval=2,
    eval_episodes=3,
    competence_floor=0.0,
)


def test_rq2_grid_is_identical_with_one_and_two_workers(tmp_path, monkeypatch):
    pools = []

    class CountedPool(evaluation.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(evaluation, "ProcessPoolExecutor", CountedPool)
    spec = default_spec("rq2", TINY, seeds=[1, 2])
    for workers in (1, 2):
        table = run_experiment(spec, tmp_path / f"w{workers}", workers=workers)
        assert [row.label for row in table.rows] == [
            f"{env}|{mode}|adv2"
            for env in ("skirmish-small", "corridor-small")
            for mode in ("traditional", "rule_immediate", "estimation")
        ]
    assert len(pools) == 1  # one pool for all six grid points and their baselines
    for name in ("rq2_table.csv", "rq2_curves_long.csv"):
        one, two = ((tmp_path / f"w{w}" / name).read_bytes() for w in (1, 2))
        assert one == two
    # 2 envs x 3 modes x 2 seeds x 2 curve points
    assert len((tmp_path / "w1" / "rq2_curves_long.csv").read_text().splitlines()) == 1 + 2 * 3 * 2 * 2
    point = tmp_path / "w1" / "skirmish-small_estimation_adv2" / "seed1"
    assert (point / "adversary_train_curve.csv").exists()
    assert not (point / "attack_curve.csv").exists()


def test_rq5_is_the_defend_retrain_command_not_a_sweep(tmp_path):
    with pytest.raises(ConfigError, match="defend-retrain"):
        default_spec("rq5", TINY)
    assert dispatch(["run-experiment", "--experiment", "rq5", "--out", str(tmp_path)]) == EXIT_CONFIG
    assert not (tmp_path / "experiment-rq5").exists()


def test_victim_checkpoint_must_fit_every_env_before_any_point_runs(tmp_path):
    # rq1 spans skirmish and corridor; skirmish victims fit only the first
    victims = train_victims(PRESETS["skirmish-small"], TINY).policy
    save_policy(tmp_path / "victims.npz", victims)
    spec = dataclasses.replace(
        default_spec("rq1", TINY, seeds=[1]),
        victim_checkpoint=str(tmp_path / "victims.npz"),
    )
    with pytest.raises(ConfigError, match="does not fit"):
        run_experiment(spec, tmp_path / "exp")
    assert not [p for p in (tmp_path / "exp").iterdir() if p.is_dir()]


def test_each_win_rate_of_the_grid_is_played_once(tmp_path, monkeypatch):
    calls = []

    def counted(env_config, victims, adversary, episodes, seed):
        kind = "attack" if isinstance(adversary, FrozenPolicy) else adversary or "absent"
        calls.append((type(env_config).__name__, kind, seed))
        return evaluate_win_rate(env_config, victims, adversary, episodes, seed)

    attacks = {}

    def recorded(env_config, victims, cfg, out_dir):
        result = train_adversaries(env_config, victims, cfg, out_dir)
        attacks[type(env_config).__name__, cfg.reward_mode.value, cfg.seed] = result.under_attack_win_rate
        return result

    for module in (training, evaluation):
        monkeypatch.setattr(module, "evaluate_win_rate", counted)
    monkeypatch.setattr(evaluation, "train_adversaries", recorded)
    seeds = [1, 2]
    table = run_experiment(default_spec("rq2", TINY, seeds=seeds), tmp_path)

    modes = ("traditional", "rule_immediate", "estimation")
    for env in ("SkirmishConfig", "CorridorConfig"):
        own = [c for c in calls if c[0] == env]
        # victim training: absent and random, at the training seed
        assert sorted(c[1:] for c in own if c[2] == TINY.seed) == [("absent", 0), ("random", 0)]
        # one attack evaluation per (mode, seed), inside train_adversaries
        assert sorted(c[2] for c in own if c[1] == "attack") == sorted(seeds * len(modes))
        # one absent and one random baseline per (count, seed)
        for kind in ("absent", "random"):
            assert sorted(c[2] for c in own if c[1] == kind and c[2] != TINY.seed) == seeds
        assert len(own) == 2 + len(modes) * len(seeds) + 2 * len(seeds)
    assert len(calls) == 2 * 12

    for env, label in (("SkirmishConfig", "skirmish-small"), ("CorridorConfig", "corridor-small")):
        rows = [row for row in table.rows if row.label.startswith(label)]
        for row, mode in zip(rows, modes):
            assert row.under_attack == np.mean([attacks[env, mode, s] for s in seeds])
        assert len({(row.no_attack_absent, row.no_attack_random) for row in rows}) == 1

    # rq3 sweeps three bystander counts: the absent play drops the
    # bystanders, so it runs once per seed and serves every count
    calls.clear()
    table = run_experiment(default_spec("rq3", TINY, seeds=seeds), tmp_path / "rq3")
    baselines = [c for c in calls if c[2] != TINY.seed and c[1] != "attack"]
    assert sorted(c[1:] for c in baselines if c[1] == "absent") == [("absent", 1), ("absent", 2)]
    assert sorted(c[2] for c in baselines if c[1] == "random") == sorted(seeds * 3)
    assert len({row.no_attack_absent for row in table.rows}) == 1


def test_an_experiment_needs_a_seed():
    with pytest.raises(ConfigError, match="at least one seed"):
        default_spec("rq3", TINY, seeds=[])
