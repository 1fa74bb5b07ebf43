"""Two-phase pipeline: train victim agents to competence against scripted
opponents, with the bystanders acting at random, freeze them, then train the
bystander party to break them. Phase 1 also takes frozen bystanders in
place of random ones: the defense retrains victims against a frozen attack.

The bystander learner only ever receives FrozenPolicy callables for the
victims: there is no code path handing it victim parameters, so its learning
signal can depend on victims only through the transitions they induce.
"""

from __future__ import annotations

import csv
import hashlib
import json
import zipfile
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial
from pathlib import Path
from typing import Mapping

import numpy as np

from .core import ConfigError, Party, TrainingFault, derive_seed
from .envs import make_env
from .envs.base import Environment
from .neural import Adam, MLP
from .qmix import (
    MixingNet,
    PreparedEpisode,
    ReplayBuffer,
    TargetNetworkPair,
    learner_step,
    masked_q,
)
from .rewards import EpisodeEstimator, RewardModel, reward_model_update, terminal_reward
from .rollout import Controller, EpsilonGreedyController, RandomController, evaluate_party, run_episode


class RewardMode(Enum):
    TRADITIONAL = "traditional"
    RULE_IMMEDIATE = "rule_immediate"
    ESTIMATION = "estimation"


@dataclass
class TrainingConfig:
    episodes: int = 4000
    batch_size: int = 32
    gamma: float = 0.99
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay_frac: float = 0.2
    buffer_capacity: int = 400
    target_sync_interval: int = 200
    learning_rate: float = 1e-3
    hidden_size: int = 64
    mix_embed: int = 16
    reward_mode: RewardMode = RewardMode.ESTIMATION
    victim_reward_access: bool = False
    r_fail: float = 20.0
    estimate_clip: float = 5.0
    warmup_episodes: int = 50
    model_hidden: int = 64
    model_learning_rate: float = 1e-3
    model_batch: int = 16
    eval_interval: int = 500
    eval_episodes: int = 200
    competence_floor: float = 0.8
    seed: int = 0

    def __post_init__(self) -> None:
        for name in (
            "episodes", "batch_size", "buffer_capacity", "target_sync_interval",
            "hidden_size", "mix_embed", "eval_interval", "eval_episodes",
            "model_hidden", "model_batch", "warmup_episodes",
        ):
            floor = 0 if name == "warmup_episodes" else 1
            if getattr(self, name) < floor:
                raise ConfigError(f"{name} must be >= {floor}")
        # negated comparisons, so that NaN is refused too
        for name in ("r_fail", "estimate_clip", "learning_rate", "model_learning_rate"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be finite and > 0")
        for name in ("gamma", "epsilon_start", "epsilon_end", "epsilon_decay_frac", "competence_floor"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1]")
        # a string is refused, not converted: the CLI converts its values
        if not isinstance(self.reward_mode, RewardMode):
            raise ConfigError(
                f"reward_mode {self.reward_mode!r} is not a RewardMode: one of {', '.join(map(str, RewardMode))}"
            )
        channels = REWARDS[self.reward_mode][0]
        if channels and not self.victim_reward_access:
            raise ConfigError(
                f"{self.reward_mode.value} reward mode reads the oracle channel(s) {', '.join(channels)}; "
                "set victim_reward_access=True to acknowledge the oracle flag"
            )
        if self.batch_size > self.buffer_capacity:
            raise ConfigError("batch_size cannot exceed buffer_capacity")
        if self.batch_size > self.episodes:
            raise ConfigError("batch_size cannot exceed episodes: no learner step would run")

    def epsilon_at(self, episode: int) -> float:
        decay_len = max(int(self.episodes * self.epsilon_decay_frac), 1)
        frac = min(episode / decay_len, 1.0)
        return self.epsilon_start + frac * (self.epsilon_end - self.epsilon_start)


class FrozenPolicy:
    """Immutable greedy snapshot of one party's Q networks.

    Holds a read-only copy of the party's agent-stacked MLP and acts through
    one MLP.forward for all agents, on one state or a stack of states.
    Acting is a pure function of the agents' observations up to the last
    bits of Q, which depend on how many rows one forward holds (a matrix
    product against a vector one): only a Q tie within those bits could
    pick another action in a stack, and the tests hold stacked actions to
    single-state ones on replayed states. Replays of the same calls are
    bit-identical forever. The checksum hashes the layer stacks `act` reads,
    agent by agent, in the order of a policy file's tensors. save_policy and
    load_policy move it through a policy file.
    """

    def __init__(self, party: Party, net: MLP):
        self.party = party
        self.net = MLP(net.names, net.dims, None)
        self.net.flat.values[:] = net.flat.values
        # the views were made before the stores are locked, so each is locked
        # too; a backward through the frozen net then raises
        frozen = self.net
        views = [a for p in frozen.params() for a in (p.values, p.grad)]
        for array in [frozen.flat.values, frozen.flat.grad, *frozen.w, *frozen.b, *frozen.w_grad, *frozen.b_grad, *views]:
            array.setflags(write=False)
        self.obs_dim = self.net.dims[0]
        self.n_actions = self.net.dims[-1]

    @property
    def n_agents(self) -> int:
        return self.net.n_agents

    def act(self, obs_mat: np.ndarray, mask_mat: np.ndarray) -> np.ndarray:
        return masked_q(self.net, obs_mat, mask_mat).argmax(axis=-1)

    def checksum(self) -> str:
        h = hashlib.sha256()
        for i in range(self.n_agents):
            for w, b in zip(self.net.w, self.net.b):
                h.update(w[i].tobytes())
                h.update(b[i].tobytes())
        return h.hexdigest()

    def check_fits(self, env: Environment, party: Party) -> None:
        """ConfigError unless this policy was made for `party` of an env
        shaped like `env` (agent count, observation width, actions)."""
        have = (self.party.label, self.n_agents, self.obs_dim, self.n_actions)
        d = env.descriptor
        need = (party.label, len(env.agents(party)), d.obs_dim(party), d.n_actions(party))
        if have != need:
            raise ConfigError(f"policy (party, agents, obs_dim, n_actions) {have} does not fit the env's {need}")

    def as_controller(self) -> "FrozenController":
        return FrozenController(self)


class FrozenController(Controller):
    def __init__(self, policy: FrozenPolicy):
        self.policy = policy

    def act(self, obs_mat, mask_mat):
        return self.policy.act(obs_mat, mask_mat)


# --- rewards -----------------------------------------------------------------


def victim_task_rewards(env: Environment, traj) -> np.ndarray:
    """Native task rewards of the victim party (phase 1), scored on the
    trajectory's states; the one caller of env.victim_task_reward."""
    s = traj.states
    return np.array([env.victim_task_reward(s[t], s[t + 1], out) for t, out in enumerate(traj.outcomes)], dtype=float)


def rule_immediate_rewards(weights, r_fail: float, traj) -> np.ndarray:
    """Rule-based baseline: the failure-path weights dotted with each step's
    failure signals, plus the terminal ground truth on the last step."""
    weights = np.asarray(weights, dtype=float)
    r = np.array([float(weights @ out.failure_signals) for out in traj.outcomes])
    r[-1] += terminal_reward(traj.outcomes[-1], r_fail)
    return r


class EstimationProvider:
    """Recurrent estimator reward of one episode, given only the bystanders'
    (T, input_dim) post-step observation rows and the terminal ground truth.
    During the first warmup_episodes the reward is only the ground truth on
    the last step; after them, the rows stream through a fresh
    EpisodeEstimator, whose clipped estimates are the reward. Then the model
    trains, with its own Adam, on a minibatch of recent episodes against
    their terminal ground truths. It reads its settings from cfg and gets no
    env and no descriptor, so it cannot read the victims' reward, the
    failure weights or the failure signals."""

    def __init__(self, model: RewardModel, cfg: TrainingConfig, rng: np.random.Generator):
        self.model = model
        self.cfg = cfg
        self.optimizer = Adam([model.cell.flat], learning_rate=cfg.model_learning_rate)
        self.rng = rng
        self.episode_count = 0
        self.recent: list[tuple[np.ndarray, float]] = []

    def __call__(self, rows: np.ndarray, truth: float) -> np.ndarray:
        if self.episode_count < self.cfg.warmup_episodes:
            rewards = np.zeros(len(rows))
            rewards[-1] = truth
        else:
            # the model as it was before this episode's update
            estimator = EpisodeEstimator(self.model, self.cfg.estimate_clip)
            rewards = np.array([estimator.step(x) for x in rows])
        self.recent.append((rows, truth))
        if len(self.recent) > 4 * self.cfg.model_batch:
            self.recent.pop(0)
        take = min(self.cfg.model_batch, len(self.recent))
        idx = self.rng.choice(len(self.recent), size=take, replace=False)
        batch = [self.recent[int(i)] for i in idx]
        reward_model_update(self.model, [b[0] for b in batch], [b[1] for b in batch], self.optimizer)
        self.episode_count += 1
        return rewards


def _estimation_reward(env: Environment, cfg: TrainingConfig):
    """Estimation's reward, an EstimationProvider's, and the model it trains."""
    input_dim = env.descriptor.obs_dim(Party.ADVERSARY) * len(env.agents(Party.ADVERSARY))
    label = _phase_label(Party.ADVERSARY)
    model = RewardModel(input_dim, cfg.model_hidden, np.random.default_rng(derive_seed(cfg.seed, f"{label}.model", 0)))
    batch_rng = np.random.default_rng(derive_seed(cfg.seed, f"{label}.model_batch", 0))
    provider = EstimationProvider(model, cfg, batch_rng)

    def estimation_rewards(traj):
        # r_t reads the bystanders' view of s_{t+1}, so the estimate can see
        # what the joint action of step t just did
        rows = traj.obs[Party.ADVERSARY][1:]
        return provider(rows.reshape(len(rows), -1), terminal_reward(traj.outcomes[-1], cfg.r_fail))

    return estimation_rewards, model


# The bystanders' rewards, one row per mode. A reward scores one played
# episode, reward(trajectory) -> (T,) array, called by train_party after
# run_episode. Any mode may read the bystanders' own observations and the
# terminal ground truth; its row names the oracle channels it reads besides,
# which victim_reward_access must acknowledge: "victim_reward", the victims'
# task reward, and "failure_signals", the simulator's per-step signals.
# mode: (oracle channels, builder (env, cfg) -> (reward, reward model or None))
REWARDS = {
    RewardMode.TRADITIONAL: (("victim_reward",), lambda env, cfg: (lambda traj: -victim_task_rewards(env, traj), None)),
    RewardMode.RULE_IMMEDIATE: (
        ("failure_signals",),
        lambda env, cfg: (partial(rule_immediate_rewards, env.descriptor.default_weights, cfg.r_fail), None),
    ),
    RewardMode.ESTIMATION: ((), _estimation_reward),
}


# --- tables -------------------------------------------------------------------


def write_table(path, rows, mode: str = "w") -> None:
    """Write rows to the CSV file at path with csv.writer, or append them
    with mode="a". Every float cell, numpy float64 included, is written as
    `.10g`, and every other cell as it is. Every CSV a run writes goes
    through it."""
    with open(path, mode, newline="") as fh:
        csv.writer(fh).writerows([f"{x:.10g}" if isinstance(x, float) else x for x in row] for row in rows)


# --- generic party trainer ----------------------------------------------------


def _phase_label(party: Party) -> str:
    """Prefix of the seed streams and metrics files of the phase training `party`."""
    return f"{party.label}_train"


def _build_learner(env: Environment, party: Party, cfg: TrainingConfig):
    n_agents = len(env.agents(party))
    obs_dim = env.descriptor.obs_dim(party)
    dims = [obs_dim, cfg.hidden_size, cfg.hidden_size, env.descriptor.n_actions(party)]
    rng = np.random.default_rng(derive_seed(cfg.seed, f"{_phase_label(party)}.init", 0))
    net = MLP([f"{party.label}{i}" for i in range(n_agents)], dims, rng)
    # the mixer reads the party's own concatenated observations, not a
    # global state: bystanders have none
    mixer = MixingNet(f"{party.label}_mixer", n_agents, n_agents * obs_dim, cfg.mix_embed, rng)
    pair = TargetNetworkPair(net, mixer, cfg.target_sync_interval)
    optimizer = Adam(pair.online_params(), learning_rate=cfg.learning_rate)
    return pair, optimizer


def train_party(
    env: Environment,
    party: Party,
    cfg: TrainingConfig,
    other_controllers: Mapping[Party, Controller],
    reward,
    out_dir: Path | None = None,
) -> tuple[FrozenPolicy, list[tuple[int, float]]]:
    """Run the value-decomposition training loop for one party; returns its
    frozen greedy policy and the (episode, win rate) curve of the periodic
    evaluations.

    other_controllers drive the remaining externally controlled parties and
    are used unchanged during periodic evaluations; reward scores each
    played episode, as REWARDS documents. `{party.label}_train`
    prefixes the seed streams and the metrics tables: given out_dir, it
    writes their headers, then appends a row per learner step
    (`_learner_steps.csv`, numbered by the optimizer's steps) and per
    evaluation (`_curve.csv`), so a failed run keeps its rows. The checksum
    of every frozen policy among other_controllers is verified at each
    evaluation and after the last episode (TrainingFault if it changed).
    """
    label = _phase_label(party)
    pair, optimizer = _build_learner(env, party, cfg)
    buffer = ReplayBuffer(cfg.buffer_capacity)
    explore_rng = np.random.default_rng(derive_seed(cfg.seed, f"{label}.explore", 0))
    sample_rng = np.random.default_rng(derive_seed(cfg.seed, f"{label}.sample", 0))
    controller = EpsilonGreedyController(pair.net, explore_rng)
    controllers = dict(other_controllers)
    controllers[party] = controller
    curve: list[tuple[int, float]] = []
    loss = float("nan")
    returns_since_eval: list[float] = []

    steps_path = curve_path = None
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        steps_path, curve_path = (Path(out_dir) / f"{label}_{table}.csv" for table in ("learner_steps", "curve"))
        write_table(steps_path, [("step", "loss", "epsilon", "buffer_fill", "target_syncs")])
        write_table(curve_path, [("episode", "win_rate", "mean_episode_reward", "loss", "epsilon")])

    frozen = {p: c.policy for p, c in other_controllers.items() if isinstance(c, FrozenController)}
    checksums = {p: policy.checksum() for p, policy in frozen.items()}

    def check_frozen() -> None:
        for p, policy in frozen.items():
            if policy.checksum() != checksums[p]:
                raise TrainingFault(f"frozen {p.label} policy changed during training")

    for episode in range(cfg.episodes):
        controller.epsilon = cfg.epsilon_at(episode)
        seed = derive_seed(cfg.seed, f"{label}.episode", episode)
        traj = run_episode(env, controllers, seed).trajectory
        rewards = reward(traj)
        buffer.add(PreparedEpisode(traj.obs[party], traj.avail[party], traj.actions[party], rewards))
        returns_since_eval.append(sum(rewards.tolist()))
        if len(buffer) >= cfg.batch_size:
            loss = learner_step(buffer, pair, optimizer, cfg.batch_size, cfg.gamma, sample_rng)
            if steps_path is not None:
                write_table(steps_path, [(optimizer.steps, loss, controller.epsilon, len(buffer), pair.syncs)], "a")
        if (episode + 1) % cfg.eval_interval == 0:
            check_frozen()
            eval_controllers = dict(controllers)
            eval_controllers[party] = FrozenPolicy(party, pair.net).as_controller()
            eval_seed = derive_seed(cfg.seed, f"{label}.eval", episode)
            rate = float(evaluate_party(env, eval_controllers, cfg.eval_episodes, eval_seed).mean())
            mean_ret = float(np.mean(returns_since_eval)) if returns_since_eval else 0.0
            if curve_path is not None:
                write_table(curve_path, [(episode + 1, rate, mean_ret, loss, controller.epsilon)], "a")
            curve.append((episode + 1, rate))
            returns_since_eval = []

    check_frozen()
    return FrozenPolicy(party, pair.net), curve


# --- phase wrappers -----------------------------------------------------------


@dataclass
class VictimTrainingResult:
    policy: FrozenPolicy
    no_attack_win_rate: float
    random_neutral_win_rate: float
    curve: list[tuple[int, float]]


def _bystander_controller(env: Environment, bystanders, seed: int, stream: str) -> Controller:
    """The controller of env's bystanders: uniform random for "random", on
    the `{stream}.random_adv` seed stream, or a FrozenPolicy, which must
    fit them (ConfigError otherwise, also when env has no bystanders)."""
    if isinstance(bystanders, FrozenPolicy):
        bystanders.check_fits(env, Party.ADVERSARY)
        return bystanders.as_controller()
    if bystanders == "random":
        return RandomController(np.random.default_rng(derive_seed(seed, f"{stream}.random_adv", 0)))
    raise ConfigError(f"unsupported bystander policy {bystanders!r}")


def train_victims(
    env_config,
    cfg: TrainingConfig,
    out_dir: Path | None = None,
    bystanders: FrozenPolicy | str = "random",
) -> VictimTrainingResult:
    """Phase 1: victims learn their native task against the bystanders,
    which act uniformly at random ("random") or by a frozen policy, such as
    an attack to defend against; returns frozen greedy policies and their
    no-attack and random-bystander win rates. Anything else, or a policy
    that does not fit the env's bystanders, is a ConfigError before any
    episode is played; victims below cfg.competence_floor without
    bystanders are a TrainingFault."""
    env = make_env(env_config)
    other = {Party.ADVERSARY: _bystander_controller(env, bystanders, cfg.seed, _phase_label(Party.VICTIM))}
    policy, curve = train_party(env, Party.VICTIM, cfg, other, partial(victim_task_rewards, env), out_dir)
    no_attack = evaluate_win_rate(env_config, policy, None, cfg.eval_episodes, cfg.seed)[0]
    if no_attack < cfg.competence_floor:
        raise TrainingFault(f"victims reached win rate {no_attack:.3f} < floor {cfg.competence_floor}")
    random_rate = evaluate_win_rate(env_config, policy, "random", cfg.eval_episodes, cfg.seed)[0]
    return VictimTrainingResult(policy, no_attack, random_rate, curve)


@dataclass
class AdversaryTrainingResult:
    policy: FrozenPolicy
    reward_model: RewardModel | None
    under_attack_win_rate: float
    curve: list[tuple[int, float]]


def train_adversaries(
    env_config,
    frozen_victims: FrozenPolicy,
    cfg: TrainingConfig,
    out_dir: Path | None = None,
) -> AdversaryTrainingResult:
    """Phase 2: bystanders learn against frozen victims under the configured
    reward mode."""
    if not isinstance(frozen_victims, FrozenPolicy):
        raise ConfigError("adversary training accepts only frozen victim policies")
    env = make_env(env_config)
    if not env.agents(Party.ADVERSARY):
        raise ConfigError("environment has no bystander agents to train")
    frozen_victims.check_fits(env, Party.VICTIM)
    reward, reward_model = REWARDS[cfg.reward_mode][1](env, cfg)
    other = {Party.VICTIM: frozen_victims.as_controller()}
    policy, curve = train_party(env, Party.ADVERSARY, cfg, other, reward, out_dir)
    under = evaluate_win_rate(env_config, frozen_victims, policy, cfg.eval_episodes, cfg.seed)[0]
    return AdversaryTrainingResult(policy, reward_model, under, curve)


def evaluate_win_rate(
    env_config,
    victim_policy: FrozenPolicy,
    adversary_policy,
    episodes: int,
    seed: int,
) -> tuple[float, float]:
    """Greedy victim success rate plus a Wilson 95% half-width.

    adversary_policy may be a FrozenPolicy, the string "random" (bystanders
    present but acting uniformly), or None (bystanders absent).
    """
    if episodes < 1:
        raise ConfigError("evaluation needs at least one episode")
    if adversary_policy is None:
        env_config = replace(env_config, adversary_count=0)
    env = make_env(env_config)
    victim_policy.check_fits(env, Party.VICTIM)
    controllers: dict[Party, Controller] = {Party.VICTIM: victim_policy.as_controller()}
    if adversary_policy is not None:
        controllers[Party.ADVERSARY] = _bystander_controller(env, adversary_policy, seed, "eval")
    rate = float(evaluate_party(env, controllers, episodes, seed, "eval.episode").mean())
    return rate, wilson_half_width(rate, episodes)


def wilson_half_width(p_hat: float, n: int) -> float:
    """Half-width of the Wilson 95% score interval."""
    z = 1.959963984540054  # the standard normal's 97.5% quantile
    denom = 1.0 + z * z / n
    return (z * np.sqrt(p_hat * (1.0 - p_hat) / n + z * z / (4.0 * n * n))) / denom


# --- policy files -----------------------------------------------------------
#
# The one checkpoint format. A policy file is a version-1 npz holding one flat
# float64 array "p/<name>" per agent tensor (`<agent>.l<l>.w`/`.b`, agent by
# agent) and "__meta__", the bytes of a sorted-key JSON object:
#   {"version": 1, "params": {name: shape}, "fields": {"party": label,
#    "agents": [[name, dims], ...]}}
# The reader looks tensors up by name, never by their order in the file, and
# reads no other field (older files carry "stack_frames") or tensor.


def save_policy(path, policy: FrozenPolicy) -> None:
    """Write a frozen policy as a policy file; round-trips bit-exactly."""
    net = policy.net
    fields = {"party": policy.party.label, "agents": [[name, list(net.dims)] for name in net.names]}
    meta = {"version": 1, "params": {p.name: list(p.shape) for p in net.params()}, "fields": fields}
    arrays = {f"p/{p.name}": p.values for p in net.params()}
    arrays["__meta__"] = np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)
    np.savez(path, **arrays)


def load_policy(path) -> FrozenPolicy:
    """Read a policy file; any other file, empty, cut short or with meta of
    the wrong JSON types too, is a ConfigError naming the path, and a missing
    one an OSError. Each tensor is read by name into one net of the agents'
    dims, after its meta shape and its array's length are checked against the
    net's. check_fits refuses a net wider than the env's observation."""
    try:
        if Path(path).is_dir():
            raise ValueError("a directory")
        with open(path, "rb") as fh:
            data = np.load(fh)
            if not isinstance(data, np.lib.npyio.NpzFile):
                raise ValueError("not an npz archive")
            meta = json.loads(bytes(data["__meta__"]).decode())
            if meta.get("version") != 1 or "params" not in meta:
                raise ValueError("not a version 1 policy file")
            fields = meta["fields"]
            dims = {tuple(d) for _, d in fields["agents"]}
            if len(dims) != 1:
                raise ValueError(f"the agents' nets must share one set of dims, got {sorted(dims)}")
            net = MLP([name for name, _ in fields["agents"]], dims.pop(), None)
            for p in net.params():
                values = data[f"p/{p.name}"]
                if tuple(meta["params"][p.name]) != p.shape or values.shape != p.values.shape:
                    raise ValueError(
                        f"{p.name}: shape {meta['params'][p.name]}, {values.size} values, does not match dims {net.dims}"
                    )
                p.values[:] = values
            party = Party.from_label(fields["party"])
    except (KeyError, ValueError, TypeError, AttributeError, EOFError, zipfile.BadZipFile) as exc:
        raise ConfigError(f"{path} is not a frozen-policy checkpoint: {exc}") from None
    return FrozenPolicy(party, net)
