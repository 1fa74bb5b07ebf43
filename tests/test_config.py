import dataclasses

import pytest

from bystander.cli import EXIT_CONFIG, REWARD_FIELDS, dispatch
from bystander.config import (
    RunManifest,
    apply_overrides,
    build_env_config,
    build_experiment_seeds,
    build_training_config,
    parse_config_text,
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


def test_overrides_replace_values_and_refuse_bad_items(tmp_path):
    kv = apply_overrides({"train.episodes": "12"}, ["train.episodes=30", "train.gamma = 0.9"])
    assert kv == {"train.episodes": "30", "train.gamma": "0.9"}
    with pytest.raises(ConfigError, match="not key=value"):
        apply_overrides(kv, ["train.episodes"])
    with pytest.raises(ConfigError, match="empty key"):
        apply_overrides(kv, [" = 3"])
    argv = ["train-victim", "--out", str(tmp_path), "--set", "env.preset=skirmish-small"]
    assert dispatch([*argv, "--set", "train.epochs=3"]) == EXIT_CONFIG
    assert not list(tmp_path.iterdir())


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
def test_unread_keys_are_refused(tmp_path, capsys, key):
    # through a command that reads the key's group, so that only the key is unread
    if key.startswith("experiment."):
        argv = ["run-experiment", "--experiment", "rq3"]
    else:
        argv = ["train-victim", "--set", "env.preset=skirmish-small"]
    assert dispatch([*argv, "--out", str(tmp_path), "--set", f"{key}=1"]) == EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_unread_train_key_exits_as_config_error(tmp_path):
    # evaluate reads train.eval_episodes and no other training key
    argv = ["evaluate", "--out", str(tmp_path), "--set", "env.preset=skirmish-small"]
    argv += ["--set", f"victim_checkpoint={tmp_path / 'victims.npz'}", "--set", "train.eval_episodes=2"]
    assert dispatch([*argv, "--set", "train.episodes=999"]) == EXIT_CONFIG
    assert not list(tmp_path.iterdir())


def test_preset_takes_overrides_of_its_own_kind():
    kv = {"env.preset": "skirmish-small", "env.horizon": "25", "env.grid_size": "9x6"}
    assert build_env_config(kv) == dataclasses.replace(PRESETS["skirmish-small"], horizon=25, grid_size=(9, 6))
    assert kv == {}  # the builder pops the keys it reads
    assert build_env_config({"env.preset": "corridor-small", "env.lanes": "3"}) == CorridorConfig(lanes=3)
    # each kind's defaults stay reachable from a preset
    assert build_env_config({"env.preset": "corridor-small"}) == CorridorConfig()
    assert build_env_config({"env.preset": "skirmish-small", "env.horizon": "60"}) == SkirmishConfig()


@pytest.mark.parametrize(
    "kv, key",
    [
        ({"env.preset": "corridor-small", "env.grid_size": "10x10"}, "env.grid_size"),
        ({"env.preset": "skirmish-small", "env.lanes": "7"}, "env.lanes"),
    ],
)
def test_env_key_of_the_other_kind_is_refused(kv, key):
    with pytest.raises(ConfigError, match=key):
        build_env_config(kv)


@pytest.mark.parametrize("grid", ["8.5x5", "8x5x3", "8"])
def test_malformed_grid_size_exits_as_config_error(tmp_path, grid):
    # refused where the value enters: no run starts and nothing is written
    argv = ["train-victim", "--out", str(tmp_path), "--set", "env.preset=skirmish-small"]
    assert dispatch([*argv, "--set", f"env.grid_size={grid}"]) == EXIT_CONFIG
    assert not list(tmp_path.iterdir())


def test_grid_size_is_two_ints():
    # an integer tuple is parsed with int(), so a float spelling is refused too
    with pytest.raises(ConfigError, match="env.grid_size"):
        build_env_config({"env.preset": "skirmish-small", "env.grid_size": "8.0x5"})
    for grid in ((8,), (8, 5, 3), (8.0, 5)):
        with pytest.raises(ConfigError, match="grid_size"):
            SkirmishConfig(grid_size=grid)


@pytest.mark.parametrize("kind", ["banana", "skirmish", "corridor"])
def test_env_kind_is_refused(kind):
    # the preset names the kind; there is no second key for it
    with pytest.raises(ConfigError, match=r"env\.kind"):
        build_env_config({"env.preset": "corridor-small", "env.kind": kind})


def test_env_needs_a_known_preset():
    with pytest.raises(ConfigError, match="needs env.preset"):
        build_env_config({"env.lanes": "3"})
    with pytest.raises(ConfigError, match="unknown preset"):
        build_env_config({"env.preset": "maze-small"})


def test_training_values_are_converted_or_refused():
    kv = {"train.episodes": "40", "train.reward_mode": "rule_immediate", "train.victim_reward_access": "true"}
    cfg = build_training_config(kv, seed=5)
    assert (cfg.episodes, cfg.reward_mode.value, cfg.seed) == (40, "rule_immediate", 5)
    with pytest.raises(ConfigError, match="bad value for train.episodes"):
        build_training_config({"train.episodes": "many"}, seed=0)
    # the seed is --seed's: train.seed is left unread, for the command to refuse
    kv = {"train.seed": "9", "train.episodes": "40"}
    assert build_training_config(kv, seed=5).seed == 5
    assert kv == {"train.seed": "9"}
    # "inf" parses as a float, so the range check refuses it
    for name in ("r_fail", "estimate_clip", "learning_rate", "model_learning_rate"):
        for bad in ("inf", "-inf"):
            with pytest.raises(ConfigError, match=f"{name} must be finite"):
                build_training_config({f"train.{name}": bad}, seed=0)


def test_failure_weights_must_be_nonnegative_with_one_positive(tmp_path):
    for cls, bad in (
        (SkirmishConfig, [(-1.0, 2.0), (0.0, 0.0), (float("nan"), 1.0), (float("inf"), 1.0), (float("-inf"), 1.0)]),
        (CorridorConfig, [(0.5, -0.1, 0.2), (0.0, 0.0, 0.0), (float("inf"), 0.0, 0.0), (0.5, float("-inf"), 0.2)]),
    ):
        for weights in bad:
            with pytest.raises(ConfigError, match="failure_weights"):
                cls(failure_weights=weights)
    assert SkirmishConfig(failure_weights=(0.0, 1.0)).failure_weights == (0.0, 1.0)
    # refused where the value enters, even in a reward mode that never reads it
    argv = ["train-adversary", "--out", str(tmp_path), "--set", "train.reward_mode=traditional"]
    argv += ["--set", "train.victim_reward_access=true"]
    for preset, weights in (("skirmish-small", "-1,2"), ("corridor-small", "0,0,0"), ("corridor-small", "inf,0,0")):
        env = ["--set", f"env.preset={preset}", "--set", f"env.failure_weights={weights}"]
        assert dispatch([*argv, *env]) == EXIT_CONFIG
    assert not (tmp_path / "train-adversary").exists()


def test_sensing_range_below_one_is_refused(tmp_path):
    with pytest.raises(ConfigError, match="sensing_radius"):
        SkirmishConfig(sensing_radius=0)
    with pytest.raises(ConfigError, match="sensing_cols"):
        CorridorConfig(sensing_cols=0)
    # it used to pass the config and fail the first observation with a
    # ZeroDivisionError, as a failed run
    argv = ["train-victim", "--out", str(tmp_path), "--set", "env.preset=corridor-small"]
    assert dispatch([*argv, "--set", "env.sensing_cols=0"]) == EXIT_CONFIG
    assert not (tmp_path / "train-victim").exists()


def _refused_where_it_enters(tmp_path, capsys, name, bad):
    """A command that reads train.<name> exits 2 on the bad value through
    TrainingConfig's range check, and writes nothing. A bystander-reward
    field goes to train-adversary, given an absent victim checkpoint that a
    started run would fail on with exit 3."""
    if name in REWARD_FIELDS:
        command, given = "train-adversary", ["--set", f"victim_checkpoint={tmp_path / 'victims.npz'}"]
    else:
        command, given = "train-victim", []
    argv = [command, "--out", str(tmp_path), "--set", "env.preset=skirmish-small", *given]
    capsys.readouterr()
    assert dispatch([*argv, "--set", f"train.{name}={bad}"]) == EXIT_CONFIG
    assert f"{name} must be" in capsys.readouterr().err
    assert not (tmp_path / command).exists()


def test_r_fail_must_be_positive(tmp_path, capsys):
    for r_fail in (0.0, -3.0, float("nan")):
        with pytest.raises(ConfigError, match="r_fail"):
            TrainingConfig(r_fail=r_fail)
    _refused_where_it_enters(tmp_path, capsys, "r_fail", -3)


@pytest.mark.parametrize(
    "name, bad",
    [
        ("estimate_clip", 0.0),
        ("estimate_clip", -1.0),
        ("estimate_clip", float("inf")),
        ("learning_rate", 0.0),
        ("learning_rate", float("nan")),
        ("learning_rate", float("inf")),
        ("model_learning_rate", -1e-3),
        ("model_learning_rate", float("nan")),
        ("model_learning_rate", float("inf")),
        ("r_fail", float("inf")),
        ("epsilon_start", 1.5),
        ("epsilon_end", -0.1),
        ("epsilon_decay_frac", float("nan")),
        ("competence_floor", 1.2),
    ],
)
def test_training_values_out_of_range_are_refused(tmp_path, capsys, name, bad):
    with pytest.raises(ConfigError, match=name):
        TrainingConfig(**{name: bad})
    _refused_where_it_enters(tmp_path, capsys, name, bad)


@pytest.mark.parametrize("mode", ["traditional", "estimation", None])
def test_a_reward_mode_that_is_no_reward_mode_is_refused(mode):
    """No string is converted, so "estimation" is refused as "traditional"
    is, each by a ConfigError that names the modes."""
    modes = "RewardMode.TRADITIONAL, RewardMode.RULE_IMMEDIATE, RewardMode.ESTIMATION"
    with pytest.raises(ConfigError, match=f"reward_mode {mode!r} is not a RewardMode: one of {modes}"):
        TrainingConfig(reward_mode=mode, victim_reward_access=True)


def test_warmup_episodes_may_be_zero_and_no_fewer():
    assert TrainingConfig(warmup_episodes=0).warmup_episodes == 0
    with pytest.raises(ConfigError, match="warmup_episodes must be >= 0"):
        TrainingConfig(warmup_episodes=-1)
    with pytest.raises(ConfigError, match="episodes must be >= 1"):
        TrainingConfig(episodes=0)


def test_experiment_settings():
    assert build_experiment_seeds({}) is None
    assert build_experiment_seeds({"experiment.seeds": "3, 4"}) == [3, 4]
    with pytest.raises(ConfigError, match="bad value for experiment.seeds"):
        build_experiment_seeds({"experiment.seeds": "a,b"})


def test_bad_experiment_seeds_exit_as_config_error(tmp_path, capsys):
    argv = ["run-experiment", "--experiment", "rq2", "--out", str(tmp_path)]
    assert dispatch([*argv, "--set", "experiment.seeds=a,b"]) == EXIT_CONFIG
    # a repeated seed would share its grid points and count twice in the
    # table; the tiny budget, valid on its own, keeps a run that is not
    # refused short
    argv = ["run-experiment", "--experiment", "rq1", "--out", str(tmp_path), "--set", "experiment.seeds=101,101"]
    for item in (
        "train.episodes=1",
        "train.batch_size=1",
        "train.buffer_capacity=1",
        "train.eval_episodes=1",
        "train.competence_floor=0",
    ):
        argv += ["--set", item]
    capsys.readouterr()
    assert dispatch(argv) == EXIT_CONFIG
    assert "repeat a seed" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_empty_experiment_seeds_are_refused_before_any_file_is_written(tmp_path, capsys):
    """An empty value is no request for the default seeds: it is refused as
    `experiment.seeds=,` is, naming the key."""
    for value in ("", ","):
        with pytest.raises(ConfigError, match="experiment.seeds"):
            build_experiment_seeds({"experiment.seeds": value})
    # a tiny budget, so that a run that is not refused stays short
    argv = ["run-experiment", "--experiment", "rq3", "--out", str(tmp_path), "--set", "experiment.seeds="]
    for item in ("train.episodes=1", "train.batch_size=1", "train.buffer_capacity=1", "train.eval_episodes=1"):
        argv += ["--set", item]
    capsys.readouterr()
    assert dispatch([*argv, "--set", "train.competence_floor=0"]) == EXIT_CONFIG
    assert "experiment.seeds" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_manifest_verify_detects_edited_config(tmp_path):
    manifest = RunManifest(command="evaluate", config_text="env.preset = skirmish-small\n", seed=1)
    assert manifest.verify()
    manifest.write(tmp_path / "manifest.json")
    loaded = RunManifest.load(tmp_path / "manifest.json")
    assert loaded.verify() and loaded.config_digest == manifest.config_digest
    loaded.config_text = "env.preset = corridor-small\n"
    assert not loaded.verify()
