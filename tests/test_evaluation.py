import copy
import csv
import dataclasses
import importlib
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from bystander import evaluation, training
from bystander.cli import EXIT_CONFIG, dispatch
from bystander.core import ConfigError, Party, derive_seed
from bystander.envs import PRESETS, make_env
from bystander.evaluation import GRIDS, ExperimentSpec, run_experiment
from bystander.rollout import RandomController, evaluate_party, run_episode
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
    spec = ExperimentSpec("rq2", TINY, seeds=[1, 2])
    for workers in (1, 2):
        table = run_experiment(spec, tmp_path / f"w{workers}", workers=workers)
        assert [row.label for row in table] == [
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
    # every float cell is written with 10 significant digits, the win rate too
    with open(tmp_path / "w1" / "rq2_curves_long.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header[-1] == "win_rate"
    assert all(row[-1] == f"{float(row[-1]):.10g}" for row in rows)
    point = tmp_path / "w1" / "skirmish-small_estimation_adv2" / "seed1"
    assert (point / "adversary_train_curve.csv").exists()
    assert not (point / "attack_curve.csv").exists()


def test_a_pool_has_no_more_workers_than_the_grid_has_jobs(tmp_path, monkeypatch):
    """A process pool starts all of its workers on its first submit, so
    `--workers 64` on a grid of 6 jobs must ask for 6. The stand-in pool
    records its size and runs every job inline, in this process."""
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(evaluation, "ProcessPoolExecutor", InlinePool)
    # rq1 at one seed: 2 attacks, 2 absent and 2 random baselines
    spec = ExperimentSpec("rq1", TINY, seeds=[1])
    run_experiment(spec, tmp_path / "w1", workers=1)
    assert sizes == []
    run_experiment(spec, tmp_path / "w64", workers=64)
    assert sizes == [6]
    one, many = ((tmp_path / w / "rq1_table.csv").read_bytes() for w in ("w1", "w64"))
    assert one == many


def test_rq5_is_the_defend_retrain_command_not_a_sweep(tmp_path):
    with pytest.raises(ConfigError, match="defend-retrain"):
        ExperimentSpec("rq5", TINY)
    assert dispatch(["run-experiment", "--experiment", "rq5", "--out", str(tmp_path)]) == EXIT_CONFIG
    assert not (tmp_path / "experiment-rq5").exists()


def test_victim_checkpoint_must_fit_every_env_before_any_point_runs(tmp_path):
    # rq1 spans skirmish and corridor; skirmish victims fit only the first
    victims = train_victims(PRESETS["skirmish-small"], TINY).policy
    save_policy(tmp_path / "victims.npz", victims)
    spec = dataclasses.replace(
        ExperimentSpec("rq1", TINY, seeds=[1]),
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
    table = run_experiment(ExperimentSpec("rq2", TINY, seeds=seeds), tmp_path)

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
        rows = [row for row in table if row.label.startswith(label)]
        for row, mode in zip(rows, modes):
            assert row.under_attack == np.mean([attacks[env, mode, s] for s in seeds])
        assert len({(row.no_attack_absent, row.no_attack_random) for row in rows}) == 1

    # rq3 sweeps three bystander counts: the absent play drops the
    # bystanders, so it runs once per seed and serves every count
    calls.clear()
    table = run_experiment(ExperimentSpec("rq3", TINY, seeds=seeds), tmp_path / "rq3")
    baselines = [c for c in calls if c[2] != TINY.seed and c[1] != "attack"]
    assert sorted(c[1:] for c in baselines if c[1] == "absent") == [("absent", 1), ("absent", 2)]
    assert sorted(c[2] for c in baselines if c[1] == "random") == sorted(seeds * 3)
    assert len({row.no_attack_absent for row in table}) == 1


def test_an_experiment_needs_a_seed():
    with pytest.raises(ConfigError, match="at least one seed"):
        ExperimentSpec("rq3", TINY, seeds=[])


def test_an_experiment_refuses_a_repeated_seed():
    with pytest.raises(ConfigError, match="repeat"):
        ExperimentSpec("rq1", TINY, seeds=[101, 102, 101])


@pytest.mark.parametrize("experiment_id", sorted(GRIDS))
def test_every_grid_tables_its_points_in_order(tmp_path, experiment_id):
    presets, modes, counts = GRIDS[experiment_id]
    table = run_experiment(ExperimentSpec(experiment_id, TINY, seeds=[1]), tmp_path)
    labels = [f"{env}|{mode.value}|adv{count}" for env in presets for mode in modes for count in counts]
    assert [row.label for row in table] == labels
    for label in labels:
        assert (tmp_path / label.replace("|", "_") / "seed1" / "adversaries.npz").exists()


# --- lockstep evaluation -------------------------------------------------------

BENCH = Path(__file__).resolve().parents[1] / "bench"
LOCKSTEP = dict(episodes=8, batch_size=4, hidden_size=16, mix_embed=8, eval_interval=10**6, eval_episodes=2)


@pytest.fixture(scope="module", params=["skirmish-small", "corridor-med"])
def tiny_pair(request):
    """Tiny trained victims and bystanders on a preset."""
    env_cfg = PRESETS[request.param]
    victims = train_victims(env_cfg, TrainingConfig(**LOCKSTEP, competence_floor=0.0, seed=3)).policy
    bystanders = train_adversaries(env_cfg, victims, TrainingConfig(**LOCKSTEP, seed=5)).policy
    return env_cfg, victims, bystanders


@pytest.mark.parametrize("leg", ["trained", "absent", "random"])
def test_lockstep_evaluation_is_one_at_a_time_play(tiny_pair, monkeypatch, leg):
    """evaluate_win_rate is the mean over `run_episode` replays of its
    documented episode seeds, as the benchmark's recount replays them, and
    each episode's outcome is the replay's; frozen policies act once per
    tick on the stack of live episodes, a drawing controller once per
    episode-tick."""
    env_cfg, victims, bystanders = tiny_pair
    adversary = {"trained": bystanders, "absent": None, "random": "random"}[leg]
    episodes, seed = 24, 17
    monkeypatch.syspath_prepend(str(BENCH))
    replayed = importlib.import_module("workloads").replay(env_cfg, victims, adversary, episodes, seed)
    outcomes = [r.outcome.victim_success for r in replayed]
    lengths = [len(r.trajectory) for r in replayed]

    calls = []
    act = FrozenPolicy.act

    def counted(self, obs, masks):
        calls.append(obs.shape)
        return act(self, obs, masks)

    monkeypatch.setattr(FrozenPolicy, "act", counted)
    assert evaluate_win_rate(env_cfg, victims, adversary, episodes, seed)[0] == sum(outcomes) / episodes
    victim_calls = calls if leg != "trained" else calls[0::2]
    if leg == "random":
        assert len(victim_calls) == sum(lengths)
    else:
        assert len(victim_calls) == max(lengths) and victim_calls[0][0] == episodes

    env = make_env(env_cfg if adversary is not None else dataclasses.replace(env_cfg, adversary_count=0))
    controllers = {Party.VICTIM: victims.as_controller()}
    if leg == "trained":
        controllers[Party.ADVERSARY] = bystanders.as_controller()
    elif leg == "random":
        controllers[Party.ADVERSARY] = RandomController(np.random.default_rng(derive_seed(seed, "eval.random_adv", 0)))
    assert evaluate_party(env, controllers, episodes, seed, "eval.episode").tolist() == outcomes


@pytest.mark.parametrize("phase", ["victims", "adversaries"])
def test_periodic_evaluations_are_one_at_a_time_play(phase, monkeypatch):
    """Each point of a training curve is the rate of its evaluation episodes
    replayed through `run_episode`, with the controllers the evaluation was
    given as they were at its start: victim training evaluates against the
    random bystanders whose rng its episodes share, so the replay also
    leaves that rng where the evaluation left it."""
    env_cfg = PRESETS["skirmish-small"]
    cfg = TrainingConfig(**{**LOCKSTEP, "eval_interval": 3, "eval_episodes": 6}, competence_floor=0.0, seed=7)
    played = []
    evaluate = training.evaluate_party

    def recorded(env, controllers, episodes, seed, stream="eval"):
        before = copy.deepcopy(dict(controllers))
        flags = evaluate(env, controllers, episodes, seed, stream)
        played.append((env, before, copy.deepcopy(dict(controllers)), episodes, seed, stream))
        return flags

    monkeypatch.setattr(training, "evaluate_party", recorded)
    if phase == "victims":
        curve = train_victims(env_cfg, cfg).curve
    else:
        victims = train_victims(env_cfg, dataclasses.replace(cfg, eval_interval=10**6)).policy
        played.clear()
        curve = train_adversaries(env_cfg, victims, cfg).curve
    assert [episode for episode, _ in curve] == [3, 6]
    for (env, before, after, episodes, seed, stream), (_, rate) in zip(played, curve):
        wins = [run_episode(env, before, derive_seed(seed, stream, k)).outcome.victim_success for k in range(episodes)]
        assert rate == sum(wins) / episodes
        if phase == "victims":
            replayed_rng, rng = before[Party.ADVERSARY].rng, after[Party.ADVERSARY].rng
            assert replayed_rng.bit_generator.state == rng.bit_generator.state
