import dataclasses

import pytest

from bystander.cli import EXIT_CONFIG, dispatch
from bystander.config import (
    RunManifest,
    apply_overrides,
    build_env_config,
    build_experiment_seeds,
    build_training_config,
    parse_config_text,
    validate_keys,
)
from bystander.core import ConfigError
from bystander.envs import PRESETS, CorridorConfig, SkirmishConfig
from bystander.training import TrainingConfig


def test_parse_skips_comments_and_blank_lines():
    text = "# a run\n\nenv.preset = skirmish-small  # trailing note\n  train.episodes=12\n"
    assert parse_config_text(text) == {"env.preset": "skirmish-small", "train.episodes": "12"}


@pytest.mark.parametrize(
    "text, match",
    [
        ("train.episodes = 1\ntrain.episodes = 2\n", "line 2: duplicate key"),
        ("env.preset = skirmish-small\ntrain.episodes\n", "line 2: expected 'key = value'"),
        ("= 3\n", "line 1: empty key"),
    ],
)
def test_parse_errors_name_the_line(text, match):
    with pytest.raises(ConfigError, match=match):
        parse_config_text(text)


def test_overrides_replace_values_and_refuse_bad_items():
    kv = apply_overrides({"train.episodes": "12"}, ["train.episodes=30", "train.gamma = 0.9"])
    assert kv == {"train.episodes": "30", "train.gamma": "0.9"}
    with pytest.raises(ConfigError, match="not key=value"):
        apply_overrides(kv, ["train.episodes"])
    with pytest.raises(ConfigError, match="unknown config key"):
        apply_overrides(kv, ["train.epochs=3"])


@pytest.mark.parametrize(
    "key",
    [
        # forks and sweep keys that nothing reads
        "train.stack_frames",
        "train.mixer_conditioning",
        "experiment.env_presets",
        "experiment.reward_modes",
        "experiment.adversary_counts",
        # the evaluation size is train.eval_episodes; the id is --experiment
        "experiment.eval_episodes",
        "experiment.id",
        "env.colour",
        "victims",
    ],
)
def test_unread_keys_are_refused(key):
    with pytest.raises(ConfigError, match="unknown config key"):
        validate_keys({key: "1"})


def test_unread_train_key_exits_as_config_error(tmp_path):
    argv = ["train-victim", "--out", str(tmp_path), "--set", "env.preset=skirmish-small"]
    assert dispatch([*argv, "--set", "train.stack_frames=2"]) == EXIT_CONFIG
    assert not (tmp_path / "train-victim").exists()


def test_preset_takes_overrides_of_its_own_kind():
    kv = {"env.preset": "skirmish-small", "env.horizon": "25", "env.grid_size": "9x6"}
    assert build_env_config(kv) == dataclasses.replace(PRESETS["skirmish-small"], horizon=25, grid_size=(9, 6))
    assert build_env_config({"env.kind": "corridor", "env.lanes": "3"}) == CorridorConfig(lanes=3)


@pytest.mark.parametrize(
    "kv, key",
    [
        ({"env.preset": "corridor-small", "env.grid_size": "10x10"}, "env.grid_size"),
        ({"env.kind": "skirmish", "env.lanes": "7"}, "env.lanes"),
    ],
)
def test_env_key_of_the_other_kind_is_refused(kv, key):
    with pytest.raises(ConfigError, match=key):
        build_env_config(kv)


@pytest.mark.parametrize("kind", ["banana", "skirmish"])
def test_preset_with_another_or_unknown_kind_is_refused(kind):
    with pytest.raises(ConfigError, match=r"env\.kind.*env\.preset"):
        build_env_config({"env.preset": "corridor-small", "env.kind": kind})
    kv = {"env.preset": "corridor-small", "env.kind": "corridor"}
    assert build_env_config(kv) == PRESETS["corridor-small"]


def test_env_needs_a_preset_or_kind():
    with pytest.raises(ConfigError, match="env.preset or env.kind"):
        build_env_config({"env.kind": "maze"})
    with pytest.raises(ConfigError, match="unknown preset"):
        build_env_config({"env.preset": "maze-small"})


def test_training_values_are_converted_or_refused():
    cfg = build_training_config({"train.episodes": "30", "train.reward_mode": "rule_immediate"}, seed=5)
    assert (cfg.episodes, cfg.reward_mode.value, cfg.seed) == (30, "rule_immediate", 5)
    with pytest.raises(ConfigError, match="bad value for train.episodes"):
        build_training_config({"train.episodes": "many"})


def test_failure_weights_must_be_nonnegative_with_one_positive(tmp_path):
    for cls, bad in (
        (SkirmishConfig, [(-1.0, 2.0), (0.0, 0.0), (float("nan"), 1.0)]),
        (CorridorConfig, [(0.5, -0.1, 0.2), (0.0, 0.0, 0.0)]),
    ):
        for weights in bad:
            with pytest.raises(ConfigError, match="failure_weights"):
                cls(failure_weights=weights)
    assert SkirmishConfig(failure_weights=(0.0, 1.0)).failure_weights == (0.0, 1.0)
    # refused where the value enters, even in a reward mode that never reads it
    argv = ["train-adversary", "--out", str(tmp_path), "--set", "train.reward_mode=traditional"]
    argv += ["--set", "train.victim_reward_access=true"]
    for preset, weights in (("skirmish-small", "-1,2"), ("corridor-small", "0,0,0")):
        env = ["--set", f"env.preset={preset}", "--set", f"env.failure_weights={weights}"]
        assert dispatch([*argv, *env]) == EXIT_CONFIG


def test_r_fail_must_be_positive(tmp_path):
    for r_fail in (0.0, -3.0, float("nan")):
        with pytest.raises(ConfigError, match="r_fail"):
            TrainingConfig(r_fail=r_fail)
    argv = ["train-victim", "--out", str(tmp_path), "--set", "env.preset=skirmish-small"]
    assert dispatch([*argv, "--set", "train.r_fail=-3"]) == EXIT_CONFIG
    assert not (tmp_path / "train-victim").exists()


@pytest.mark.parametrize(
    "name, bad",
    [
        ("estimate_clip", 0.0),
        ("estimate_clip", -1.0),
        ("learning_rate", 0.0),
        ("learning_rate", float("nan")),
        ("model_learning_rate", -1e-3),
        ("model_learning_rate", float("nan")),
        ("epsilon_start", 1.5),
        ("epsilon_end", -0.1),
        ("epsilon_decay_frac", float("nan")),
        ("competence_floor", 1.2),
    ],
)
def test_training_values_out_of_range_are_refused(tmp_path, name, bad):
    with pytest.raises(ConfigError, match=name):
        TrainingConfig(**{name: bad})
    argv = ["train-victim", "--out", str(tmp_path), "--set", "env.preset=skirmish-small"]
    assert dispatch([*argv, "--set", f"train.{name}={bad}"]) == EXIT_CONFIG
    assert not (tmp_path / "train-victim").exists()


def test_experiment_settings():
    assert build_experiment_seeds({}) is None
    assert build_experiment_seeds({"experiment.seeds": "3, 4"}) == [3, 4]
    with pytest.raises(ConfigError, match="bad value for experiment.seeds"):
        build_experiment_seeds({"experiment.seeds": "a,b"})


def test_bad_experiment_seeds_exit_as_config_error(tmp_path):
    argv = ["run-experiment", "--experiment", "rq2", "--out", str(tmp_path)]
    assert dispatch([*argv, "--set", "experiment.seeds=a,b"]) == EXIT_CONFIG


def test_manifest_verify_detects_edited_config(tmp_path):
    manifest = RunManifest(command="evaluate", config_text="env.preset = skirmish-small\n", seed=1)
    assert manifest.verify()
    manifest.write(tmp_path / "manifest.json")
    loaded = RunManifest.load(tmp_path / "manifest.json")
    assert loaded.verify() and loaded.config_digest == manifest.config_digest
    loaded.config_text = "env.preset = corridor-small\n"
    assert not loaded.verify()
