import json

from bystander.cli import EXIT_OK, dispatch
from bystander.config import RunManifest

TINY = [
    "env.preset=skirmish-small",
    "train.episodes=8",
    "train.batch_size=4",
    "train.buffer_capacity=64",
    "train.hidden_size=16",
    "train.mix_embed=8",
    "train.eval_interval=1000000",
    "train.eval_episodes=2",
    "train.competence_floor=0.0",
]


def _run(command, out, extra=()):
    argv = [command, "--seed", "1", "--out", str(out)]
    for item in [*TINY, *extra]:
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
    for name in ("numpy_version", "cpu_count", "thread_env"):
        del data[name]
    path.write_text(json.dumps(data))
    manifest = RunManifest.load(path)
    assert manifest.verify()
    assert (manifest.numpy_version, manifest.cpu_count, manifest.thread_env) == (None, None, None)
