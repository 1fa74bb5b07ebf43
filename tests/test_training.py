import csv
import dataclasses
import hashlib
import json
import re
from functools import partial

import numpy as np
import pytest

from bystander.cli import EXIT_CONFIG, dispatch
from bystander.config import RunManifest
from bystander import training
from bystander.core import ConfigError, Party, StepOutcome, TrainingFault
from bystander.envs import PRESETS, SkirmishEnv, make_env
from bystander.neural import Adam, MLP
from bystander.rollout import EpsilonGreedyController, RandomController
from bystander.training import (
    REWARDS,
    FrozenPolicy,
    RewardMode,
    TrainingConfig,
    load_policy,
    save_policy,
    train_adversaries,
    train_victims,
)

TINY = dict(
    episodes=12,
    batch_size=4,
    buffer_capacity=64,
    hidden_size=16,
    mix_embed=8,
    eval_interval=10**6,
    eval_episodes=2,
    competence_floor=0.0,
)


@pytest.fixture(scope="module")
def tiny_victims():
    return train_victims(PRESETS["skirmish-small"], TrainingConfig(**TINY, seed=3)).policy


@pytest.mark.parametrize("mode", [mode.value for mode in REWARDS])
def test_same_seed_attack_is_bit_identical(tiny_victims, mode):
    cfg = TrainingConfig(
        **TINY,
        reward_mode=RewardMode(mode),
        victim_reward_access=bool(REWARDS[RewardMode(mode)][0]),
        warmup_episodes=4,
        model_hidden=16,
        model_batch=4,
        seed=4,
    )
    first, second = (train_adversaries(PRESETS["skirmish-small"], tiny_victims, cfg) for _ in range(2))
    assert first.policy.checksum() == second.policy.checksum()
    assert (first.reward_model is not None) == (mode == "estimation")
    first_model, second_model = (
        b"".join(p.values.tobytes() for p in r.reward_model.params()) if r.reward_model else b""
        for r in (first, second)
    )
    assert first_model == second_model


@pytest.mark.parametrize("eval_interval", [2, 10**6])
def test_frozen_victims_changed_during_training_fault_it(tiny_victims, monkeypatch, eval_interval):
    # a copy, since the module's other tests share tiny_victims
    victims = FrozenPolicy(Party.VICTIM, tiny_victims.net)
    played = training.run_episode
    calls = []

    def tampering(env, controllers, seed):
        calls.append(seed)
        if len(calls) == 3:
            victims.net.w[0] = victims.net.w[0] + 1.0
        return played(env, controllers, seed)

    monkeypatch.setattr(training, "run_episode", tampering)
    cfg = TrainingConfig(**{**TINY, "eval_interval": eval_interval}, seed=4)
    with pytest.raises(TrainingFault, match="frozen victim policy changed"):
        train_adversaries(PRESETS["skirmish-small"], victims, cfg)


class NoisySkirmish(SkirmishEnv):
    """Skirmish whose oracle channel `channel` is seeded noise: the victim
    task reward ("victim_reward") or the failure signals
    ("failure_signals"); its dynamics, terminal flags and victim success
    are skirmish's."""

    def __init__(self, config, channel):
        super().__init__(config)
        self.channel = channel
        self.noise = np.random.default_rng(2024)

    def victim_task_reward(self, prev, nxt, outcome):
        if self.channel != "victim_reward":
            return super().victim_task_reward(prev, nxt, outcome)
        return float(self.noise.normal())

    def _resolve(self, state, actions, occupied):
        nxt, outcome, events = super()._resolve(state, actions, occupied)
        if self.channel != "failure_signals":
            return nxt, outcome, events
        signals = self.noise.uniform(size=outcome.failure_signals.shape)
        return nxt, StepOutcome(outcome.terminal, outcome.victim_success, signals), events


def _attack_checksums(victims, monkeypatch, channel, **overrides):
    """The checksums of the bystanders, and of the reward model if any, that
    an attack on victims trains on skirmish, plain (channel None) or with
    noise on one oracle channel."""
    monkeypatch.setattr(training, "make_env", partial(NoisySkirmish, channel=channel) if channel else make_env)
    cfg = TrainingConfig(**TINY, model_hidden=16, model_batch=4, seed=5, **overrides)
    result = train_adversaries(PRESETS["skirmish-small"], victims, cfg)
    model = result.reward_model
    return result.policy.checksum(), model and b"".join(p.values.tobytes() for p in model.params())


# the threat model: a reward reads the oracle channels its REWARDS row
# declares and no other; with warmup_episodes of 4, estimation's reward is
# the terminal ground truth alone for 4 episodes and the estimate after them
@pytest.mark.parametrize("channel", ["victim_reward", "failure_signals"])
@pytest.mark.parametrize("mode", list(REWARDS), ids=lambda mode: mode.value)
def test_reward_reads_only_its_oracle_channels(tiny_victims, monkeypatch, mode, channel):
    channels = REWARDS[mode][0]
    settings = dict(reward_mode=mode, victim_reward_access=bool(channels), warmup_episodes=4)
    plain = _attack_checksums(tiny_victims, monkeypatch, None, **settings)
    noisy = _attack_checksums(tiny_victims, monkeypatch, channel, **settings)
    assert (noisy != plain) == (channel in channels)


def _table(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_metrics_tables_hold_each_learner_step_and_the_curve(tmp_path):
    cfg = TrainingConfig(**{**TINY, "eval_interval": 3}, epsilon_decay_frac=1.0, seed=3)
    curve = train_victims(PRESETS["skirmish-small"], cfg, tmp_path).curve
    header, *steps = _table(tmp_path / "victim_train_learner_steps.csv")
    assert header == ["step", "loss", "epsilon", "buffer_fill", "target_syncs"]
    assert [int(row[0]) for row in steps] == list(range(1, cfg.episodes - cfg.batch_size + 2))
    # the first step follows the episode that fills the first batch; the
    # decay over the whole run gives epsilons with more than 6 digits
    first = cfg.batch_size - 1
    assert [row[2] for row in steps] == [f"{cfg.epsilon_at(e):.10g}" for e in range(first, cfg.episodes)]
    header, *points = _table(tmp_path / "victim_train_curve.csv")
    assert header == ["episode", "win_rate", "mean_episode_reward", "loss", "epsilon"]
    assert [(int(row[0]), float(row[1])) for row in points] == curve
    assert [row[4] for row in points] == [f"{cfg.epsilon_at(episode - 1):.10g}" for episode, _ in curve]
    assert len(curve) == cfg.episodes // 3


@pytest.mark.parametrize("mode", [mode for mode, (channels, _) in REWARDS.items() if channels], ids=lambda m: m.value)
def test_a_mode_with_oracle_channels_needs_victim_reward_access(mode):
    with pytest.raises(ConfigError, match="victim_reward_access") as refused:
        TrainingConfig(reward_mode=mode)
    assert all(channel in str(refused.value) for channel in REWARDS[mode][0])
    TrainingConfig(reward_mode=mode, victim_reward_access=True)


# --- frozen policies and their checkpoints -----------------------------------


def _nets(obs_dim=6, n_actions=4, n_agents=3, seed=0):
    rng = np.random.default_rng(seed)
    return MLP([f"v{i}" for i in range(n_agents)], [obs_dim, 8, 8, n_actions], rng)


def _per_agent(net):
    """(agent name, its tensors) of each agent, in checkpoint order."""
    return [(name, [p for p in net.params() if p.name.startswith(f"{name}.")]) for name in net.names]


def _write_policy_file(path, tensors, fields, shapes=None):
    # a policy file written without save_policy: {name: shaped array} as
    # "p/<name>" arrays, and the meta with their shapes (or, by name, the
    # given ones) and the given fields
    shapes = {name: list(a.shape) for name, a in tensors.items()} | (shapes or {})
    meta = {"version": 1, "params": shapes, "fields": fields}
    arrays = {f"p/{name}": a.reshape(-1) for name, a in tensors.items()}
    arrays["__meta__"] = np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)
    np.savez(path, **arrays)


def _fields(policy, **extra):
    return {"party": policy.party.label, "agents": [[name, list(policy.net.dims)] for name in policy.net.names], **extra}


def _masked_observations(rng, n_agents=3, obs_dim=6, n_actions=4):
    obs = rng.normal(size=(n_agents, obs_dim))
    masks = rng.random((n_agents, n_actions)) < 0.5
    masks[np.arange(n_agents), rng.integers(n_actions, size=n_agents)] = True
    return obs, masks


def test_policy_round_trip_keeps_checksum_fields_and_actions(tmp_path):
    policy = FrozenPolicy(Party.ADVERSARY, _nets())
    path = tmp_path / "policy.npz"
    save_policy(path, policy)
    loaded = load_policy(path)
    assert loaded.checksum() == policy.checksum()
    assert loaded.party is Party.ADVERSARY
    assert (loaded.n_agents, loaded.obs_dim, loaded.n_actions) == (3, 6, 4)
    rng = np.random.default_rng(1)
    for _ in range(50):
        obs, masks = _masked_observations(rng)
        assert np.array_equal(loaded.act(obs, masks), policy.act(obs, masks))


def test_adam_trained_policy_round_trips_bit_exactly(tmp_path):
    rng = np.random.default_rng(13)
    net = MLP(["m0", "m1"], [4, 6, 2], rng)
    opt = Adam([net.flat], learning_rate=3e-4)
    x = rng.normal(size=(2, 5, 4))
    for _ in range(3):
        y, cache = net.forward(x)
        net.backward(cache, y)
        opt.step()
    assert net.b[0].any()
    policy = FrozenPolicy(Party.VICTIM, net)
    save_policy(tmp_path / "policy.npz", policy)
    with np.load(tmp_path / "policy.npz") as data:
        meta = json.loads(bytes(data["__meta__"]).decode())
        assert sorted(data.files) == sorted(["__meta__", *(f"p/{p.name}" for p in net.params())])
    assert meta == {
        "version": 1,
        "params": {p.name: list(p.shape) for p in net.params()},
        "fields": {"party": "victim", "agents": [["m0", [4, 6, 2]], ["m1", [4, 6, 2]]]},
    }
    loaded = load_policy(tmp_path / "policy.npz")
    assert loaded.net.flat.values.tobytes() == net.flat.values.tobytes()
    assert not loaded.net.flat.grad.any()
    assert loaded.checksum() == policy.checksum()
    # and writing it again gives the same bytes in every member
    save_policy(tmp_path / "again.npz", loaded)
    with np.load(tmp_path / "policy.npz") as before, np.load(tmp_path / "again.npz") as after:
        assert before.files == after.files
        for key in before.files:
            assert before[key].tobytes() == after[key].tobytes(), key


def test_policy_file_with_frame_stack_field_still_loads(tmp_path):
    # files written while policies carried a frame-stack count hold an extra
    # "stack_frames" field; it is not read
    policy = FrozenPolicy(Party.VICTIM, _nets())
    tensors = {p.name: p.array for p in policy.net.params()}
    _write_policy_file(tmp_path / "policy.npz", tensors, _fields(policy, stack_frames=1))
    assert load_policy(tmp_path / "policy.npz").checksum() == policy.checksum()


def test_per_agent_policy_file_loads_into_the_stacked_net(tmp_path):
    # each agent's tensors as flat arrays of their own, as policy files held
    # them before the agents' nets were stacked
    rng = np.random.default_rng(6)
    dims = [6, 8, 8, 4]
    by_name = {}
    for i in range(3):
        for l, (d_in, d_out) in enumerate(zip(dims, dims[1:])):
            by_name[f"v{i}.l{l}.w"] = rng.normal(size=(d_out, d_in))
            by_name[f"v{i}.l{l}.b"] = rng.normal(size=d_out)
    fields = {"party": "victim", "agents": [[f"v{i}", dims] for i in range(3)]}
    _write_policy_file(tmp_path / "per_agent.npz", by_name, fields)
    loaded = load_policy(tmp_path / "per_agent.npz")
    assert loaded.checksum() == hashlib.sha256(b"".join(a.tobytes() for a in by_name.values())).hexdigest()
    # it acts as the per-agent nets do
    obs, masks = _masked_observations(np.random.default_rng(7))
    actions = loaded.act(obs, masks)
    for i in range(3):
        h = obs[i]
        for l in range(3):
            h = h @ by_name[f"v{i}.l{l}.w"].T + by_name[f"v{i}.l{l}.b"]
            h = np.maximum(h, 0.0) if l < 2 else h
        assert actions[i] == np.argmax(np.where(masks[i], h, -np.inf))
    # and save_policy writes the same keys and bytes back
    save_policy(tmp_path / "again.npz", loaded)
    with np.load(tmp_path / "per_agent.npz") as before, np.load(tmp_path / "again.npz") as after:
        assert sorted(before.files) == sorted(after.files)
        for key in before.files:
            assert before[key].tobytes() == after[key].tobytes(), key
    # agents whose nets differ in shape cannot share one stack
    fields["agents"][2][1] = [6, 8, 4]
    _write_policy_file(tmp_path / "mixed.npz", by_name, fields)
    with pytest.raises(ConfigError, match="one set of dims"):
        load_policy(tmp_path / "mixed.npz")


def test_policy_file_whose_tensor_does_not_fit_the_dims_is_a_config_error(tmp_path):
    policy = FrozenPolicy(Party.VICTIM, _nets())
    tensors = {p.name: p.array for p in policy.net.params()}
    cases = {
        # an array of length 1 under the right meta shape: it would broadcast
        # into the net's view unchecked
        "short": ({**tensors, "v1.l0.b": np.zeros(1)}, {"v1.l0.b": [8]}),
        # a meta shape that disagrees with the agents' dims, on an array of
        # the right length
        "transposed": (tensors, {"v2.l0.w": [6, 8]}),
        "missing": ({name: a for name, a in tensors.items() if name != "v0.l2.b"}, None),
    }
    for name, (bad, shapes) in cases.items():
        path = tmp_path / f"{name}.npz"
        _write_policy_file(path, bad, _fields(policy), shapes)
        with pytest.raises(ConfigError, match=re.escape(str(path))):
            load_policy(path)


def test_frozen_values_are_read_only_copies(tmp_path):
    net = _nets()
    policy = FrozenPolicy(Party.VICTIM, net)
    before = policy.checksum()
    for p in net.params():
        p.values += 1.0
    assert policy.checksum() == before
    save_policy(tmp_path / "policy.npz", policy)
    for frozen in (policy, load_policy(tmp_path / "policy.npz")):
        for values in [frozen.net.flat.values, *frozen.net.w, *frozen.net.b, *(p.values for p in frozen.net.params())]:
            assert not values.flags.writeable
            with pytest.raises(ValueError):
                values[0] = 0.0
        # the grads are locked as well: a backward through a frozen net raises
        # instead of writing into a store nothing reads
        y, cache = frozen.net.forward(np.ones((frozen.n_agents, 2, frozen.obs_dim)))
        with pytest.raises(ValueError, match="read-only"):
            frozen.net.backward(cache, np.ones_like(y))
        assert not frozen.net.flat.grad.any()


def _write_former_policy_format(path, policy):
    # the layout policies were saved in before they used the neural
    # checkpoint format: "a<i>/<name>" arrays and a meta without "params"
    meta = {
        "version": 1,
        "party": policy.party.label,
        "stack_frames": 1,
        "dims": [list(policy.net.dims)] * policy.n_agents,
        "names": [[p.name for p in params] for _, params in _per_agent(policy.net)],
    }
    arrays = {f"a{i}/{p.name}": p.values for i, (_, params) in enumerate(_per_agent(policy.net)) for p in params}
    arrays["__meta__"] = np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)
    np.savez(path, **arrays)


def test_former_policy_format_is_a_config_error_naming_the_file(tmp_path):
    former = tmp_path / "former.npz"
    _write_former_policy_format(former, FrozenPolicy(Party.VICTIM, _nets()))
    # np.load opens a .npy file as one array, not as an npz archive
    array = tmp_path / "array.npy"
    np.save(array, np.zeros(3))
    # and fails on a directory with an OSError
    directory = tmp_path / "directory.npz"
    directory.mkdir()
    runs = tmp_path / "runs"
    for path in (former, array, directory):
        with pytest.raises(ConfigError, match=re.escape(str(path))):
            load_policy(path)
        checkpoint = ["--out", str(runs), "--set", f"victim_checkpoint={path}"]
        assert dispatch(["evaluate", *checkpoint, "--set", "env.preset=skirmish-small"]) == EXIT_CONFIG
        # the rq grid loads its victim checkpoint after writing the manifest
        assert dispatch(["run-experiment", "--experiment", "rq3", *checkpoint]) == EXIT_CONFIG
        manifest = RunManifest.load(runs / "experiment-rq3" / "manifest.json")
        assert manifest.status == "failed" and str(path) in manifest.error


def test_empty_or_truncated_policy_file_is_a_config_error(tmp_path):
    whole = tmp_path / "whole.npz"
    save_policy(whole, FrozenPolicy(Party.VICTIM, _nets(n_agents=30)))
    empty, cut = tmp_path / "empty.npz", tmp_path / "cut.npz"
    empty.write_bytes(b"")
    cut.write_bytes(whole.read_bytes()[:3000])
    for path in (empty, cut):
        runs = tmp_path / path.stem
        checkpoint = ["--out", str(runs), "--set", f"victim_checkpoint={path}"]
        assert dispatch(["evaluate", *checkpoint, "--set", "env.preset=skirmish-small"]) == EXIT_CONFIG
        manifest = RunManifest.load(runs / "evaluate" / "manifest.json")
        assert manifest.status == "failed"
        assert manifest.error.startswith("config error:") and str(path) in manifest.error


def test_policy_meta_of_the_wrong_json_types_is_a_config_error(tmp_path):
    whole = tmp_path / "whole.npz"
    save_policy(whole, FrozenPolicy(Party.VICTIM, _nets(n_agents=30)))
    with np.load(whole) as data:
        arrays = dict(data)
    meta = json.loads(bytes(arrays["__meta__"]).decode())
    bad_agents = {**meta, "fields": {**meta["fields"], "agents": 5}}
    for name, bad in (("agents.npz", bad_agents), ("list.npz", [meta])):
        path = tmp_path / name
        np.savez(path, **{**arrays, "__meta__": np.frombuffer(json.dumps(bad).encode(), dtype=np.uint8)})
        runs = tmp_path / path.stem
        checkpoint = ["--out", str(runs), "--set", f"victim_checkpoint={path}"]
        assert dispatch(["evaluate", *checkpoint, "--set", "env.preset=skirmish-small"]) == EXIT_CONFIG
        manifest = RunManifest.load(runs / "evaluate" / "manifest.json")
        assert manifest.status == "failed"
        assert manifest.error.startswith("config error:") and str(path) in manifest.error


def test_checksum_hashes_the_stacks_that_act_reads():
    policy = FrozenPolicy(Party.VICTIM, _nets())
    before = policy.checksum()
    # rebinding a per-agent view changes nothing act reads, nor the checksum
    view = policy.net.params()[0]
    view.values = view.values + 1.0
    assert policy.checksum() == before
    # rebinding a layer stack changes the Q values, and so the checksum
    obs, masks = _masked_observations(np.random.default_rng(4))
    q = policy.net.forward(obs[:, None, :])[0]
    policy.net.w[0] = policy.net.w[0] + 1.0
    assert not np.array_equal(policy.net.forward(obs[:, None, :])[0], q)
    assert policy.checksum() != before


def test_frozen_act_matches_greedy_controller_over_source_nets():
    net = _nets()
    policy = FrozenPolicy(Party.VICTIM, net)
    greedy = EpsilonGreedyController(net, np.random.default_rng(0))
    assert greedy.epsilon == 0.0
    rng = np.random.default_rng(2)
    for _ in range(50):
        obs, masks = _masked_observations(rng)
        assert np.array_equal(policy.act(obs, masks), greedy.act(obs, masks))


def test_frozen_act_respects_masks():
    net = _nets()
    policy = FrozenPolicy(Party.VICTIM, net)
    rng = np.random.default_rng(3)
    only = np.zeros((3, 4), dtype=bool)
    only[np.arange(3), [2, 0, 3]] = True
    assert policy.act(rng.normal(size=(3, 6)), only).tolist() == [2, 0, 3]
    for _ in range(50):
        obs, masks = _masked_observations(rng)
        actions = policy.act(obs, masks)
        assert masks[np.arange(3), actions].all()
        q = net.forward(obs[:, None, :])[0][:, 0]
        assert np.array_equal(actions, np.argmax(np.where(masks, q, -np.inf), axis=1))


@pytest.mark.parametrize("party", [Party.VICTIM, Party.ADVERSARY])
def test_stacked_frozen_act_picks_the_single_state_actions(tiny_victims, party):
    """On every state of a few replayed episodes, acting on a stack of K
    states' rows, as the lockstep evaluation does, picks the actions of K
    single calls, although the Q values may differ in their last bits."""
    env = make_env(PRESETS["skirmish-small"])
    d = env.descriptor
    if party is Party.VICTIM:
        policy = tiny_victims
    else:
        policy = FrozenPolicy(party, _nets(d.obs_dim(party), d.n_actions(party), len(env.agents(party)), seed=4))
    controllers = {Party.VICTIM: tiny_victims.as_controller(), Party.ADVERSARY: RandomController(np.random.default_rng(9))}
    trajs = [training.run_episode(env, controllers, seed).trajectory for seed in range(4)]
    obs = np.concatenate([t.obs[party] for t in trajs])
    masks = np.concatenate([t.avail[party] for t in trajs])
    single = np.stack([policy.act(o, m) for o, m in zip(obs, masks)])
    for k in (2, 7, len(obs)):
        stacked = np.concatenate([policy.act(obs[i : i + k], masks[i : i + k]) for i in range(0, len(obs), k)])
        assert stacked.shape == single.shape
        assert np.array_equal(stacked, single), k


def test_check_fits_refuses_wrong_party_and_shapes(tmp_path):
    env = make_env(PRESETS["skirmish-small"])
    d = env.descriptor
    n_victims = len(env.agents(Party.VICTIM))
    mlps = _nets(d.obs_dim(Party.VICTIM), d.n_actions(Party.VICTIM), n_victims)
    FrozenPolicy(Party.VICTIM, mlps).check_fits(env, Party.VICTIM)
    with pytest.raises(ConfigError, match="does not fit"):
        FrozenPolicy(Party.VICTIM, mlps).check_fits(env, Party.ADVERSARY)
    # nets twice as wide as the observation, as a two-frame policy has
    wide = _nets(2 * d.obs_dim(Party.VICTIM), d.n_actions(Party.VICTIM), n_victims)
    with pytest.raises(ConfigError, match="does not fit"):
        FrozenPolicy(Party.VICTIM, wide).check_fits(env, Party.VICTIM)
    with pytest.raises(ConfigError, match="does not fit"):
        FrozenPolicy(Party.VICTIM, _nets(d.obs_dim(Party.VICTIM), d.n_actions(Party.VICTIM), n_victims - 1)).check_fits(env, Party.VICTIM)
    with pytest.raises(ConfigError, match="does not fit"):
        FrozenPolicy(Party.VICTIM, mlps).check_fits(make_env(PRESETS["corridor-small"]), Party.VICTIM)
    # bystander nets with the 10 outputs of the old table, which held
    # attack_victim_* and attack_opponent_* columns; evaluate refuses them
    n_bystanders = len(env.agents(Party.ADVERSARY))
    old = FrozenPolicy(Party.ADVERSARY, _nets(d.obs_dim(Party.ADVERSARY), 10, n_bystanders))
    with pytest.raises(ConfigError, match="does not fit"):
        old.check_fits(env, Party.ADVERSARY)
    save_policy(tmp_path / "victims.npz", FrozenPolicy(Party.VICTIM, mlps))
    save_policy(tmp_path / "old.npz", old)
    argv = ["evaluate", "--out", str(tmp_path), "--set", "env.preset=skirmish-small"]
    for key, name in (("victim_checkpoint", "victims"), ("adversary_checkpoint", "old")):
        argv += ["--set", f"{key}={tmp_path / name}.npz"]
    assert dispatch(argv) == EXIT_CONFIG


@pytest.mark.parametrize("case", ["agent_count", "victim_policy", "no_bystanders"])
def test_train_victims_refuses_an_attack_that_does_not_fit_before_playing(tiny_victims, monkeypatch, case):
    env_cfg = PRESETS["skirmish-small"]
    env = make_env(env_cfg)
    d, n = env.descriptor, len(env.agents(Party.ADVERSARY))
    fitting = FrozenPolicy(Party.ADVERSARY, _nets(d.obs_dim(Party.ADVERSARY), d.n_actions(Party.ADVERSARY), n))
    if case == "agent_count":
        attack = FrozenPolicy(Party.ADVERSARY, _nets(d.obs_dim(Party.ADVERSARY), d.n_actions(Party.ADVERSARY), n + 1))
    elif case == "victim_policy":
        attack = tiny_victims
    else:
        # an env without bystanders refuses the attack rather than ignore it
        attack, env_cfg = fitting, dataclasses.replace(env_cfg, adversary_count=0)
    played = []
    monkeypatch.setattr(training, "run_episode", lambda *args, **kwargs: played.append(args))
    with pytest.raises(ConfigError, match="does not fit"):
        train_victims(env_cfg, TrainingConfig(**TINY, seed=3), bystanders=attack)
    assert played == []


@pytest.mark.parametrize("with_bystanders", [True, False])
def test_train_victims_refuses_none_bystanders_before_playing(monkeypatch, with_bystanders):
    """Random bystanders are "random", the default, as in evaluate_win_rate;
    None, which means absent bystanders there, is refused here, also on an
    env without bystanders."""
    env_cfg = PRESETS["skirmish-small"]
    if not with_bystanders:
        env_cfg = dataclasses.replace(env_cfg, adversary_count=0)
    played = []
    monkeypatch.setattr(training, "run_episode", lambda *args, **kwargs: played.append(args))
    with pytest.raises(ConfigError, match="unsupported bystander policy None"):
        train_victims(env_cfg, TrainingConfig(**TINY, seed=3), bystanders=None)
    assert played == []
