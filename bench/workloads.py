"""The benchmark's workloads. A round is a fixed list of seeded calls of the
program's public entry points, all derived from the run's --seed; every round
of a run repeats the same calls, so its outputs must repeat bit for bit.

- attack-estimation-skirmish: `train_adversaries` in estimation mode against
  the prepared frozen victims (the paper's proposed attack).
- train-victims-corridor: `train_victims` on corridor-med with bystanders
  acting at random (phase 1); no reward model, no skirmish env.
- evaluate-skirmish: the evaluation triple of `evaluation._run_grid_point`
  (trained, absent and random bystanders); nothing learns.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import checks
from bystander import training
from bystander.core import ContractViolation, Party, derive_seed, validate_trajectory
from bystander.envs import PRESETS, audit_neutrality, make_env
from bystander.rollout import RandomController, RolloutResult, run_episode
from bystander.training import FrozenPolicy, RewardMode, TrainingConfig, load_policy
from prepare import VICTIM_FLOOR

# floor on the prepared victims' no-attack win rate over one round's 100
# absent-bystander episodes; over seeds 0-49 it ranged 0.68-0.87
ABSENT_FLOOR = 0.55


@dataclass
class Inputs:
    victims: FrozenPolicy
    bystanders: FrozenPolicy
    manifest: dict

    @classmethod
    def load(cls, directory: Path) -> "Inputs":
        return cls(
            load_policy(directory / "victims.npz"),
            load_policy(directory / "bystanders.npz"),
            json.loads((directory / "inputs.json").read_text()),
        )

    def problems(self) -> list[str]:
        m = self.manifest
        found = [
            checks.checksum("prepared victims", m["victims"]["checksum"], self.victims.checksum()),
            checks.checksum("prepared bystanders", m["bystanders"]["checksum"], self.bystanders.checksum()),
            checks.floor("prepared victims, no attack", m["victims"]["no_attack_win_rate"], VICTIM_FLOOR),
        ]
        return [p for p in found if p]


def replay(env_cfg, victims: FrozenPolicy, adversary, episodes: int, seed: int) -> list[RolloutResult]:
    """Replays the episodes `evaluate_win_rate` plays, by its documented
    seeding, through `run_episode` alone."""
    if adversary is None:
        env_cfg = replace(env_cfg, adversary_count=0)
    env = make_env(env_cfg)
    controllers = {Party.VICTIM: victims.as_controller()}
    if adversary == "random":
        controllers[Party.ADVERSARY] = RandomController(
            np.random.default_rng(derive_seed(seed, "eval.random_adv", 0))
        )
    elif adversary is not None:
        controllers[Party.ADVERSARY] = adversary.as_controller()
    return [run_episode(env, controllers, derive_seed(seed, "eval.episode", k)) for k in range(episodes)]


def recount(label: str, reported: float, env_cfg, victims, adversary, episodes: int, seed: int) -> list[str]:
    """Win-rate recount plus neutrality and structure audits of the
    replayed episodes whenever bystanders are present."""
    results = replay(env_cfg, victims, adversary, episodes, seed)
    found = [checks.win_rate_recount(label, reported, [r.outcome.victim_success for r in results])]
    if adversary is not None:
        env = make_env(env_cfg)
        for r in results:
            try:
                audit_neutrality(env, r.trajectory)
            except ContractViolation as exc:
                found.append(f"{label}: neutrality audit failed on seed {r.trajectory.seed}: {exc}")
            report = validate_trajectory(r.trajectory, env.descriptor)
            if not report.ok:
                found.append(f"{label}: invalid trajectory: {report.violations[:3]}")
    return [p for p in found if p]


def params_checksum(params) -> str:
    h = hashlib.sha256()
    for p in params:
        h.update(p.values.tobytes())
    return h.hexdigest()


class Workload:
    name: str
    preset: str
    checkpoints: tuple[str, ...] = ()  # prepared files a set-up loads
    episodes_per_round: int
    # seconds one round takes on the reference machine (README); sets how
    # many rounds fit in --seconds
    nominal_round_s: float

    def __init__(self, seed: int, inputs: Inputs):
        self.inputs = inputs
        self.env_cfg = PRESETS[self.preset]

    def run_round(self):
        """The measured calls; returns what `outputs` reads."""
        raise NotImplementedError

    def outputs(self, result) -> dict:
        raise NotImplementedError

    def check_round(self, outputs: dict) -> list[str]:
        return []

    def check_reference(self, result, outputs: dict, calls: Counter) -> list[str]:
        """Checks on the round run with call counters installed."""
        raise NotImplementedError


class Training(Workload):
    """Rounds of many short seeded training calls: one seed's learned
    behaviour sets its episode lengths, so a single call's time varies by
    about a third between seeds; distinct sub-seeds average that out."""

    calls_per_round: int
    eval_legs: int  # evaluate_win_rate calls per training call

    def __init__(self, seed: int, inputs: Inputs):
        super().__init__(seed, inputs)
        self.cfgs = [
            self.config(derive_seed(seed, f"bench.{self.name}", j)) for j in range(self.calls_per_round)
        ]

    @property
    def episodes_per_round(self) -> int:
        return sum(c.episodes + self.eval_legs * c.eval_episodes for c in self.cfgs)

    def run_round(self):
        return [self.train(cfg) for cfg in self.cfgs]

    def expected_learner_steps(self) -> int:
        return sum(c.episodes - c.batch_size + 1 for c in self.cfgs)


class AttackEstimationSkirmish(Training):
    name = "attack-estimation-skirmish"
    preset = "skirmish-small"
    checkpoints = ("victims.npz",)
    eval_legs = 1
    calls_per_round = 8
    nominal_round_s = 8.0

    @staticmethod
    def config(seed: int) -> TrainingConfig:
        return TrainingConfig(
            episodes=16, batch_size=8, reward_mode=RewardMode.ESTIMATION, eval_interval=10**6,
            eval_episodes=4, seed=seed,
        )

    def train(self, cfg):
        return training.train_adversaries(self.env_cfg, self.inputs.victims, cfg)

    def outputs(self, result) -> dict:
        out = {}
        for j, r in enumerate(result):
            out[f"bystanders.{j}"] = r.policy.checksum()
            out[f"reward_model.{j}"] = params_checksum(r.reward_model.params())
            out[f"under_attack.{j}"] = r.under_attack_win_rate
        return out

    def check_round(self, outputs: dict) -> list[str]:
        # the victims were checked against the manifest when loaded, so this
        # compares their checksum before and after bystander training
        expected = self.inputs.manifest["victims"]["checksum"]
        problem = checks.checksum("frozen victims after training", expected, self.inputs.victims.checksum())
        return [problem] if problem else []

    def check_reference(self, result, outputs: dict, calls: Counter) -> list[str]:
        found = [
            checks.call_count("learner_step", calls["learner_step"], self.expected_learner_steps()),
            checks.call_count(
                "reward_model_update", calls["reward_model_update"], sum(c.episodes for c in self.cfgs)
            ),
        ]
        for j, (cfg, r) in enumerate(zip(self.cfgs, result)):
            found += recount(
                f"under_attack.{j}", outputs[f"under_attack.{j}"], self.env_cfg, self.inputs.victims,
                r.policy, cfg.eval_episodes, cfg.seed,
            )
        return [p for p in found if p]


class TrainVictimsCorridor(Training):
    name = "train-victims-corridor"
    preset = "corridor-med"
    eval_legs = 2
    calls_per_round = 28
    nominal_round_s = 8.2

    @staticmethod
    def config(seed: int) -> TrainingConfig:
        # epsilon decays over the whole call, as over the first 800 episodes
        # of a default run; greedy play of a barely trained net is what
        # varies most between seeds
        return TrainingConfig(
            episodes=16, batch_size=8, epsilon_decay_frac=1.0, eval_interval=10**6, eval_episodes=2,
            competence_floor=0.0, seed=seed,
        )

    def train(self, cfg):
        return training.train_victims(self.env_cfg, cfg)

    def outputs(self, result) -> dict:
        out = {}
        for j, r in enumerate(result):
            out[f"victims.{j}"] = r.policy.checksum()
            out[f"no_attack.{j}"] = r.no_attack_win_rate
            out[f"random_neutral.{j}"] = r.random_neutral_win_rate
        return out

    def check_reference(self, result, outputs: dict, calls: Counter) -> list[str]:
        found = [
            checks.call_count("learner_step", calls["learner_step"], self.expected_learner_steps()),
            checks.call_count("reward_model_update", calls["reward_model_update"], 0),
        ]
        for j, (cfg, r) in enumerate(zip(self.cfgs, result)):
            for label, adversary in (("no_attack", None), ("random_neutral", "random")):
                found += recount(
                    f"{label}.{j}", outputs[f"{label}.{j}"], self.env_cfg, r.policy, adversary,
                    cfg.eval_episodes, cfg.seed,
                )
        return [p for p in found if p]


class EvaluateSkirmish(Workload):
    """The evaluation triple of `evaluation._run_grid_point` at one
    evaluation seed."""

    name = "evaluate-skirmish"
    preset = "skirmish-small"
    checkpoints = ("victims.npz", "bystanders.npz")
    episodes = 100
    nominal_round_s = 3.0

    def __init__(self, seed: int, inputs: Inputs):
        super().__init__(seed, inputs)
        self.eval_seed = derive_seed(seed, "experiment.eval", 0)
        self.legs = {"under_attack": inputs.bystanders, "no_attack_absent": None, "no_attack_random": "random"}

    @property
    def episodes_per_round(self) -> int:
        return len(self.legs) * self.episodes

    def run_round(self):
        return [
            training.evaluate_win_rate(self.env_cfg, self.inputs.victims, adversary, self.episodes, self.eval_seed)
            for adversary in self.legs.values()
        ]

    def outputs(self, result) -> dict:
        out = {}
        for label, (rate, half_width) in zip(self.legs, result):
            out[label] = rate
            out[f"{label}.half_width"] = half_width
        return out

    def check_reference(self, result, outputs: dict, calls: Counter) -> list[str]:
        found = [
            checks.call_count("learner_step", calls["learner_step"], 0),
            checks.call_count("reward_model_update", calls["reward_model_update"], 0),
            checks.floor("no_attack_absent", outputs["no_attack_absent"], ABSENT_FLOOR),
        ]
        for label, adversary in self.legs.items():
            rate = outputs[label]
            found.append(checks.half_width(label, outputs[f"{label}.half_width"], rate, self.episodes))
            found += recount(
                label, rate, self.env_cfg, self.inputs.victims, adversary, self.episodes, self.eval_seed
            )
        return [p for p in found if p]


WORKLOADS = {w.name: w for w in (AttackEstimationSkirmish, TrainVictimsCorridor, EvaluateSkirmish)}
