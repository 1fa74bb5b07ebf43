import json
import os
from pathlib import Path

import pytest

from bystander.cli import EXIT_CONFIG, EXIT_DEPENDENCY, EXIT_OK, EXIT_TRAINING, dispatch
from bystander.config import RunManifest, apply_overrides, build_training_config, config_to_text, parse_config_text
from bystander.envs import PRESETS
from bystander.training import evaluate_win_rate, load_policy, train_victims

# run-experiment reads no env.* key: its grid names the presets
TINY_TRAIN = [
    "train.episodes=8",
    "train.batch_size=4",
    "train.buffer_capacity=64",
    "train.hidden_size=16",
    "train.mix_embed=8",
    "train.eval_interval=1000000",
    "train.eval_episodes=2",
    "train.competence_floor=0.0",
]
TINY = ["env.preset=skirmish-small", *TINY_TRAIN]
# evaluate reads one train.* key
TINY_EVAL = ["env.preset=skirmish-small", "train.eval_episodes=2"]
# a valid value of each field that only the bystanders' reward reads
BYSTANDER_REWARD_KEYS = [
    "train.reward_mode=traditional",
    "train.victim_reward_access=true",
    "train.r_fail=3",
    "train.estimate_clip=2",
    "train.warmup_episodes=0",
    "train.model_hidden=7",
    "train.model_learning_rate=0.01",
    "train.model_batch=2",
]


def _run(command, out, extra=()):
    argv = [command, "--seed", "1", "--out", str(out)]
    for item in [*(TINY_EVAL if command == "evaluate" else TINY), *extra]:
        argv += ["--set", item]
    return dispatch(argv)


def test_train_adversary_manifest_lists_csvs_and_runtime(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    assert _run("train-victim", tmp_path) == EXIT_OK
    victims = tmp_path / "train-victim" / "victims.npz"
    extra = [
        f"victim_checkpoint={victims}",
        "train.reward_mode=estimation",
        "train.warmup_episodes=2",
        "train.model_hidden=8",
        "train.model_batch=4",
    ]
    assert _run("train-adversary", tmp_path, extra) == EXIT_OK

    out = tmp_path / "train-adversary"
    manifest = RunManifest.load(out / "manifest.json")
    assert manifest.status == "done"
    for name in ("adversaries.npz", "adversary_train_learner_steps.csv", "adversary_train_curve.csv"):
        assert str(out / name) in manifest.artifacts
        assert (out / name).exists()
    assert manifest.numpy_version
    assert manifest.cpu_count is None or manifest.cpu_count >= 1
    assert manifest.thread_env == {
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": None,
        "MKL_NUM_THREADS": None,
    }


def test_manifest_without_runtime_fields_still_loads(tmp_path):
    path = tmp_path / "manifest.json"
    RunManifest(command="evaluate", config_text="env.preset = skirmish-small\n", seed=0).write(path)
    data = json.loads(path.read_text())
    for name in ("numpy_version", "cpu_count", "thread_env", "error"):
        del data[name]
    path.write_text(json.dumps(data))
    manifest = RunManifest.load(path)
    assert manifest.verify()
    assert (manifest.numpy_version, manifest.cpu_count, manifest.thread_env) == (None, None, None)
    assert manifest.error is None


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """Victims and bystander checkpoints from one tiny pipeline run."""
    root = tmp_path_factory.mktemp("pipeline")
    assert _run("train-victim", root) == EXIT_OK
    victims = root / "train-victim" / "victims.npz"
    assert _run("train-adversary", root, [f"victim_checkpoint={victims}"]) == EXIT_OK
    return victims, root / "train-adversary" / "adversaries.npz"


def _manifest(out):
    return RunManifest.load(out / "manifest.json")


def _written(out):
    """Every file under a run directory but its manifest, as a manifest lists them."""
    return sorted(str(p) for p in out.rglob("*") if p.is_file() and p.name != "manifest.json")


def test_failed_run_marks_manifest_failed(tmp_path):
    assert _run("train-victim", tmp_path, ["train.competence_floor=0.99"]) == EXIT_TRAINING
    manifest = _manifest(tmp_path / "train-victim")
    assert manifest.status == "failed"
    assert manifest.finished
    assert manifest.error.startswith("training fault: victims reached win rate")
    # the training curves written before the fault
    assert manifest.artifacts == _written(tmp_path / "train-victim") != []


def test_a_batch_larger_than_the_run_is_refused_before_any_file(tmp_path, capsys):
    # two episodes never fill a batch of four: no learner step would run, and
    # the victims' initial nets would be saved as if trained
    argv = ["train-victim", "--out", str(tmp_path)]
    for item in ("env.preset=skirmish-small", "train.episodes=2", "train.batch_size=4", "train.buffer_capacity=4",
                 "train.competence_floor=0", "train.eval_episodes=1"):
        argv += ["--set", item]
    assert dispatch(argv) == EXIT_CONFIG
    assert "batch_size cannot exceed episodes" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "command", ["train-victim", "train-adversary", "evaluate", "defend-retrain", "run-experiment"]
)
def test_manifest_lists_the_files_the_run_wrote(tmp_path, trained, command):
    victims, adversaries = trained
    if command == "run-experiment":
        assert _run_experiment(tmp_path, 1) == EXIT_OK
        out = tmp_path / "experiment-rq3"
    else:
        checkpoints = [f"victim_checkpoint={victims}", f"adversary_checkpoint={adversaries}"]
        used = {"train-victim": 0, "train-adversary": 1}.get(command, 2)
        assert _run(command, tmp_path, checkpoints[:used]) == EXIT_OK
        out = tmp_path / command
    manifest = _manifest(out)
    assert (manifest.status, manifest.error) == ("done", None)
    assert manifest.artifacts == _written(out) != []


def test_a_rerun_lists_what_it_rewrote_and_not_a_stray_file(tmp_path):
    assert _run("train-victim", tmp_path) == EXIT_OK
    out = tmp_path / "train-victim"
    stray = out / "notes.txt"
    stray.write_text("kept by hand\n")
    # date everything back, so that a rewrite differs from the first run's
    # file even within one tick of the file clock
    for path in out.rglob("*"):
        os.utime(path, ns=(0, 0))
    assert _run("train-victim", tmp_path) == EXIT_OK
    manifest = _manifest(out)
    assert manifest.artifacts == [p for p in _written(out) if p != str(stray)]
    assert str(out / "victims.npz") in manifest.artifacts


@pytest.mark.parametrize(
    "command, present",
    [
        ("train-adversary", []),
        ("evaluate", []),
        ("defend-retrain", ["victim_checkpoint"]),
        ("defend-retrain", ["adversary_checkpoint"]),
    ],
)
def test_a_missing_checkpoint_key_is_a_config_error(tmp_path, trained, command, present):
    victims, adversaries = trained
    paths = {"victim_checkpoint": victims, "adversary_checkpoint": adversaries}
    argv = [command, "--out", str(tmp_path), "--set", "env.preset=skirmish-small"]
    for key in present:
        argv += ["--set", f"{key}={paths[key]}"]
    assert dispatch(argv) == EXIT_CONFIG
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["train-adversary", "evaluate", "defend-retrain"])
def test_a_missing_checkpoint_file_fails_the_started_run(tmp_path, trained, command):
    _, adversaries = trained
    missing = tmp_path / "missing.npz"
    extra = [f"victim_checkpoint={missing}"]
    if command != "train-adversary":
        extra.append(f"adversary_checkpoint={adversaries}")
    assert _run(command, tmp_path, extra) == EXIT_DEPENDENCY
    manifest = _manifest(tmp_path / command)
    assert manifest.status == "failed"
    assert manifest.error.startswith("dependency error") and str(missing) in manifest.error
    assert manifest.artifacts == []


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_fewer_than_one_worker_is_refused(tmp_path, workers):
    argv = ["run-experiment", "--experiment", "rq3", "--workers", workers, "--out", str(tmp_path)]
    for item in [*TINY_TRAIN, "experiment.seeds=5"]:
        argv += ["--set", item]
    assert dispatch(argv) == EXIT_CONFIG
    assert not list(tmp_path.iterdir())


def test_checkpoint_from_wrong_env_fails_as_config_error(tmp_path, trained):
    victims, _ = trained
    extra = ["env.preset=corridor-small", f"victim_checkpoint={victims}"]
    assert _run("evaluate", tmp_path, extra) == EXIT_CONFIG
    manifest = _manifest(tmp_path / "evaluate")
    assert manifest.status == "failed"
    assert manifest.error.startswith("config error: policy (party, agents, obs_dim, n_actions)")
    assert not (tmp_path / "evaluate" / "eval.csv").exists()


def test_evaluate_under_attack_writes_its_table(tmp_path, trained):
    victims, adversaries = trained
    extra = [f"victim_checkpoint={victims}", f"adversary_checkpoint={adversaries}"]
    assert _run("evaluate", tmp_path, extra) == EXIT_OK
    out = tmp_path / "evaluate"
    manifest = _manifest(out)
    assert (manifest.status, manifest.error) == ("done", None)
    assert manifest.artifacts == [str(out / "eval.csv")]
    header, row = (out / "eval.csv").read_text().splitlines()
    assert header == "win_rate,halfwidth,episodes"
    assert row.endswith(",2")


def test_defend_retrain_is_reproducible(tmp_path, trained):
    victims, adversaries = trained
    extra = [f"victim_checkpoint={victims}", f"adversary_checkpoint={adversaries}"]
    checksums = []
    for run in ("first", "second"):
        assert _run("defend-retrain", tmp_path / run, extra) == EXIT_OK
        out = tmp_path / run / "defend-retrain"
        manifest = _manifest(out)
        assert manifest.status == "done"
        for name in ("rq5_table.csv", "retrained_victims.npz"):
            assert str(out / name) in manifest.artifacts
            assert (out / name).exists()
        checksums.append(load_policy(out / "retrained_victims.npz").checksum())
    assert checksums[0] == checksums[1]
    assert checksums[0] != load_policy(victims).checksum()


def test_defend_retrain_tables_both_victims_under_each_condition(tmp_path, trained, capsys):
    victims, adversaries = trained
    extra = [f"victim_checkpoint={victims}", f"adversary_checkpoint={adversaries}", "train.eval_episodes=6"]
    assert _run("defend-retrain", tmp_path, extra) == EXIT_OK
    out = tmp_path / "defend-retrain"
    header, *rows = (out / "rq5_table.csv").read_text().splitlines()
    assert header == "condition,before,after"
    assert [row.split(",")[0] for row in rows] == ["under_attack", "no_attack", "random"]
    attack, retrained = load_policy(adversaries), load_policy(out / "retrained_victims.npz")
    originals, env_cfg = load_policy(victims), PRESETS["skirmish-small"]
    for row, bystanders in zip(rows, (attack, None, "random")):
        before, after = (evaluate_win_rate(env_cfg, policy, bystanders, 6, 1)[0] for policy in (originals, retrained))
        assert row.split(",")[1:] == [f"{before:.10g}", f"{after:.10g}"]
    printed = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in printed] == ["under_attack", "no_attack", "random"]
    # the phase-1 run at the same seed, with the attack for bystanders
    cfg = build_training_config(apply_overrides({}, [*TINY_TRAIN, "train.eval_episodes=6"]), seed=1)
    assert train_victims(env_cfg, cfg, bystanders=attack).policy.checksum() == retrained.checksum()
    assert str(out / "victim_train_curve.csv") in _manifest(out).artifacts


def test_defend_retrain_refuses_victims_that_do_not_fit_before_training(tmp_path, trained):
    _, adversaries = trained
    # the bystanders' checkpoint given as the victims': the attack fits, the victims do not
    extra = [f"victim_checkpoint={adversaries}", f"adversary_checkpoint={adversaries}"]
    assert _run("defend-retrain", tmp_path, extra) == EXIT_CONFIG
    out = tmp_path / "defend-retrain"
    manifest = _manifest(out)
    assert manifest.status == "failed"
    assert manifest.error.startswith("config error: policy (party, agents, obs_dim, n_actions) ('adversary'")
    assert not list(out.glob("victim_train_*.csv"))
    assert manifest.artifacts == []


def _run_experiment(out, seed):
    argv = ["run-experiment", "--experiment", "rq3", "--seed", str(seed), "--out", str(out)]
    for item in [*TINY_TRAIN, "experiment.seeds=5"]:
        argv += ["--set", item]
    return dispatch(argv)


def test_run_experiment_manifest_lists_every_artifact(tmp_path):
    assert _run_experiment(tmp_path, 1) == EXIT_OK
    out = tmp_path / "experiment-rq3"
    manifest = _manifest(out)
    assert (manifest.status, manifest.error) == ("done", None)
    assert manifest.command == "run-experiment rq3"
    points = [f"skirmish-small_estimation_adv{count}/seed5/" for count in (1, 2, 3)]
    names = [
        "rq3_table.csv",
        "rq3_curves_long.csv",
        "victims_skirmish-small.npz",
        "victims_skirmish-small.json",
        "victim_skirmish-small/victim_train_learner_steps.csv",
        "victim_skirmish-small/victim_train_curve.csv",
        *(
            point + name
            for point in points
            for name in ("adversaries.npz", "adversary_train_learner_steps.csv", "adversary_train_curve.csv")
        ),
    ]
    assert len(names) == 15
    assert manifest.artifacts == sorted(str(out / name) for name in names)
    assert all(Path(p).exists() for p in manifest.artifacts)


def test_rerun_into_the_same_directory_retrains_the_victims(tmp_path):
    checksums = []
    for seed in (1, 2):
        assert _run_experiment(tmp_path, seed) == EXIT_OK
        checksums.append(load_policy(tmp_path / "experiment-rq3" / "victims_skirmish-small.npz").checksum())
    assert checksums[0] != checksums[1]


def test_flags_and_keys_only_where_they_are_read(tmp_path):
    out = ["--out", str(tmp_path)]
    # refused by the parser, before the missing victim checkpoint (exit 3) is seen
    evaluate = ["evaluate", "--set", "env.preset=skirmish-small", "--set", f"victim_checkpoint={tmp_path / 'no.npz'}"]
    assert dispatch([*evaluate, "--workers", "2", *out]) == EXIT_CONFIG
    assert dispatch(["run-experiment", *out]) == EXIT_CONFIG  # --experiment is required
    for key in ("experiment.eval_episodes=3", "experiment.id=rq2"):
        assert dispatch(["run-experiment", "--experiment", "rq2", "--set", key, *out]) == EXIT_CONFIG
    # the checks read no config, seed or output directory
    assert dispatch(["grad-check", "--seed", "1"]) == EXIT_CONFIG
    for flag in ("--config", "--set", "--out"):
        assert dispatch(["oracle-check", flag, str(tmp_path)]) == EXIT_CONFIG
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "command, key",
    [
        ("run-experiment", "env.preset=corridor-med"),
        ("run-experiment", "env.horizon=5"),
        ("run-experiment", "adversary_checkpoint=adversaries.npz"),
        ("train-victim", "victim_checkpoint=victims.npz"),
        ("train-victim", "experiment.seeds=1,2"),
        ("train-victim", "train.seed=9"),  # the seed is --seed
        ("train-adversary", "adversary_checkpoint=adversaries.npz"),
        ("evaluate", "experiment.seeds=1,2"),
        ("evaluate", "train.learning_rate=0.5"),
        # phase 1 reads no bystander reward, so it refuses every key of one
        *[(command, key) for command in ("train-victim", "defend-retrain") for key in BYSTANDER_REWARD_KEYS],
    ],
)
def test_a_key_the_command_does_not_read_is_refused(tmp_path, capsys, command, key):
    out = tmp_path / "runs"
    argv = [command, "--seed", "1", "--out", str(out)]
    if command == "run-experiment":
        argv += ["--experiment", "rq3"]
        given = [*TINY_TRAIN, "experiment.seeds=5"]
    elif command == "train-victim":
        given = TINY
    else:
        # absent checkpoints: a run that started would fail on them with exit 3
        given = [*(TINY_EVAL if command == "evaluate" else TINY), f"victim_checkpoint={tmp_path / 'victims.npz'}"]
        if command == "defend-retrain":
            given.append(f"adversary_checkpoint={tmp_path / 'adversaries.npz'}")
    for item in [*given, key]:
        argv += ["--set", item]
    assert dispatch(argv) == EXIT_CONFIG
    name = key.split("=")[0]
    assert f"{command} does not read config key(s) {name}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "experiment, key",
    [
        ("rq3", "train.reward_mode=rule_immediate"),
        ("rq1", "train.reward_mode=traditional"),
        ("rq2", "train.victim_reward_access=true"),
    ],
)
def test_run_experiment_refuses_the_keys_each_arm_sets(tmp_path, capsys, experiment, key):
    out = tmp_path / "runs"
    argv = ["run-experiment", "--experiment", experiment, "--out", str(out)]
    for item in [*TINY_TRAIN, "experiment.seeds=5", key]:
        argv += ["--set", item]
    assert dispatch(argv) == EXIT_CONFIG
    assert f"run-experiment does not read config key(s) {key.split('=')[0]}" in capsys.readouterr().err
    assert not out.exists()


def test_a_config_file_is_merged_under_the_overrides(tmp_path, trained):
    victims, _ = trained
    config = tmp_path / "tiny.cfg"
    lines = [item for item in TINY if not item.startswith("train.episodes=")]
    config.write_text("\n".join(["# tiny victims", *lines, "train.episodes = 3"]) + "\n")
    argv = ["train-victim", "--seed", "1", "--out", str(tmp_path), "--config", str(config)]
    assert dispatch([*argv, "--set", "train.episodes=8"]) == EXIT_OK
    out = tmp_path / "train-victim"
    manifest = _manifest(out)
    merged = apply_overrides(parse_config_text(config.read_text()), ["train.episodes=8"])
    assert (manifest.status, manifest.config_text) == ("done", config_to_text(merged))
    assert "train.episodes = 8\n" in manifest.config_text
    # the override won: the same policy as the run of `trained`, given every key by --set
    assert load_policy(out / "victims.npz").checksum() == load_policy(victims).checksum()
