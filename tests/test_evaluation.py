import dataclasses

import pytest

from bystander import evaluation
from bystander.cli import EXIT_CONFIG, dispatch
from bystander.core import ConfigError
from bystander.envs import PRESETS
from bystander.evaluation import default_spec, run_experiment
from bystander.training import TrainingConfig, save_policy, train_victims

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
    spec = default_spec("rq2", TINY, seeds=[1, 2], eval_episodes=3)
    for workers in (1, 2):
        table = run_experiment(spec, tmp_path / f"w{workers}", workers=workers)
        assert [row.label for row in table.rows] == [
            f"skirmish-small|{mode}|adv2" for mode in ("traditional", "rule_immediate", "estimation")
        ]
    assert len(pools) == 1  # one pool for all three grid points
    for name in ("rq2_table.csv", "rq2_curves_long.csv"):
        one, two = ((tmp_path / f"w{w}" / name).read_bytes() for w in (1, 2))
        assert one == two
    assert len((tmp_path / "w1" / "rq2_curves_long.csv").read_text().splitlines()) == 1 + 3 * 2 * 2
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
        default_spec("rq1", TINY, seeds=[1], eval_episodes=3),
        victim_checkpoint=str(tmp_path / "victims.npz"),
    )
    with pytest.raises(ConfigError, match="does not fit"):
        run_experiment(spec, tmp_path / "exp")
    assert not [p for p in (tmp_path / "exp").iterdir() if p.is_dir()]
