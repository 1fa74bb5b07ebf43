import json
import re

import numpy as np
import pytest

from bystander.cli import EXIT_CONFIG, dispatch
from bystander import training
from bystander.core import ConfigError, Party, TrainingFault
from bystander.envs import PRESETS, make_env
from bystander.neural import MLP, save_checkpoint
from bystander.rollout import EpsilonGreedyController
from bystander.training import (
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


@pytest.mark.parametrize("mode", ["traditional", "rule_immediate", "estimation"])
def test_same_seed_attack_is_bit_identical(tiny_victims, mode):
    cfg = TrainingConfig(
        **TINY,
        reward_mode=RewardMode(mode),
        victim_reward_access=mode == "traditional",
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
    victims = FrozenPolicy(Party.VICTIM, tiny_victims.mlps)
    played = training.run_episode
    calls = []

    def tampering(env, controllers, seed, reward=None):
        calls.append(seed)
        if len(calls) == 3:
            param = victims.mlps[0].params()[0]
            param.values = param.values + 1.0
        return played(env, controllers, seed, reward)

    monkeypatch.setattr(training, "run_episode", tampering)
    cfg = TrainingConfig(**{**TINY, "eval_interval": eval_interval}, seed=4)
    with pytest.raises(TrainingFault, match="frozen victim policy changed"):
        train_adversaries(PRESETS["skirmish-small"], victims, cfg)


def test_traditional_mode_needs_victim_reward_access():
    with pytest.raises(ConfigError, match="victim_reward_access"):
        TrainingConfig(reward_mode=RewardMode.TRADITIONAL)
    TrainingConfig(reward_mode=RewardMode.TRADITIONAL, victim_reward_access=True)


# --- frozen policies and their checkpoints -----------------------------------


def _nets(obs_dim=6, n_actions=4, n_agents=3, seed=0):
    rng = np.random.default_rng(seed)
    return [MLP(f"v{i}", [obs_dim, 8, 8, n_actions], rng) for i in range(n_agents)]


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


def test_policy_file_with_frame_stack_field_still_loads(tmp_path):
    # files written while policies carried a frame-stack count hold an extra
    # "stack_frames" field; it is not read
    policy = FrozenPolicy(Party.VICTIM, _nets())
    fields = {"party": "victim", "stack_frames": 1, "agents": [[m.name, list(m.dims)] for m in policy.mlps]}
    save_checkpoint(tmp_path / "policy.npz", [p for m in policy.mlps for p in m.params()], fields=fields)
    assert load_policy(tmp_path / "policy.npz").checksum() == policy.checksum()


def test_frozen_values_are_read_only_copies(tmp_path):
    nets = _nets()
    policy = FrozenPolicy(Party.VICTIM, nets)
    before = policy.checksum()
    for p in nets[0].params():
        p.values += 1.0
    assert policy.checksum() == before
    save_policy(tmp_path / "policy.npz", policy)
    for frozen in (policy, load_policy(tmp_path / "policy.npz")):
        for mlp in frozen.mlps:
            for p in mlp.params():
                assert not p.values.flags.writeable
                with pytest.raises(ValueError):
                    p.values[0] = 0.0


def _write_former_policy_format(path, policy):
    # the layout policies were saved in before they used the neural
    # checkpoint format: "a<i>/<name>" arrays and a meta without "params"
    meta = {
        "version": 1,
        "party": policy.party.label,
        "stack_frames": 1,
        "dims": [list(mlp.dims) for mlp in policy.mlps],
        "names": [[p.name for p in mlp.params()] for mlp in policy.mlps],
    }
    arrays = {f"a{i}/{p.name}": p.values for i, mlp in enumerate(policy.mlps) for p in mlp.params()}
    arrays["__meta__"] = np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)
    np.savez(path, **arrays)


def test_former_policy_format_is_a_config_error_naming_the_file(tmp_path):
    path = tmp_path / "former.npz"
    _write_former_policy_format(path, FrozenPolicy(Party.VICTIM, _nets()))
    with pytest.raises(ConfigError, match=re.escape(str(path))):
        load_policy(path)
    argv = ["evaluate", "--out", str(tmp_path), "--set", "env.preset=skirmish-small"]
    assert dispatch([*argv, "--set", f"victim_checkpoint={path}"]) == EXIT_CONFIG


def test_frozen_act_matches_greedy_controller_over_source_nets():
    nets = _nets()
    policy = FrozenPolicy(Party.VICTIM, nets)
    greedy = EpsilonGreedyController(nets, np.random.default_rng(0))
    assert greedy.epsilon == 0.0
    rng = np.random.default_rng(2)
    for _ in range(50):
        obs, masks = _masked_observations(rng)
        assert np.array_equal(policy.act(obs, masks), greedy.act(obs, masks))


def test_frozen_act_respects_masks():
    nets = _nets()
    policy = FrozenPolicy(Party.VICTIM, nets)
    rng = np.random.default_rng(3)
    only = np.zeros((3, 4), dtype=bool)
    only[np.arange(3), [2, 0, 3]] = True
    assert policy.act(rng.normal(size=(3, 6)), only).tolist() == [2, 0, 3]
    for _ in range(50):
        obs, masks = _masked_observations(rng)
        actions = policy.act(obs, masks)
        assert masks[np.arange(3), actions].all()
        q = np.stack([net.forward(o)[0] for net, o in zip(nets, obs)])
        assert np.array_equal(actions, np.argmax(np.where(masks, q, -np.inf), axis=1))


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
        FrozenPolicy(Party.VICTIM, mlps[:-1]).check_fits(env, Party.VICTIM)
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
