"""Command-line entry point.

Exit codes: 0 success, 2 configuration/usage error, 3 missing dependency
(e.g. a checkpoint file), 4 training fault. All outputs land under the
output root that --out sets (default ./runs).

The config keys each run command reads, from --config and --set:
- train-victim: env.*, train.* but the bystander-reward fields
- train-adversary: env.*, train.* but competence_floor, victim_checkpoint
- evaluate: env.*, train.eval_episodes, victim_checkpoint,
  adversary_checkpoint (optional: a checkpoint, or "random")
- defend-retrain: env.*, train.* but the bystander-reward fields,
  victim_checkpoint, adversary_checkpoint
- run-experiment: train.* but reward_mode and victim_reward_access
  (ARM_FIELDS), which each attack arm of the grid sets, experiment.seeds,
  victim_checkpoint (optional)
Here env.* is env.preset and overrides of that preset's fields, and train.*
the fields of TrainingConfig but its seed, which --seed sets. The
bystander-reward fields (REWARD_FIELDS) are reward_mode,
victim_reward_access, r_fail, estimate_clip, warmup_episodes and the
model_* fields; phase 1 does not read them. A reward mode whose
training.REWARDS row names oracle channels, traditional and rule_immediate,
needs train.victim_reward_access=true. A command refuses any other key.
It checks its whole config, so a refused one writes nothing, then starts
its manifest and finalizes it as "done", or as "failed" with the error of
whatever stopped the run after the start, a bad checkpoint included.
Either way the manifest lists, sorted, the files under the run directory
that the run created or changed.

defend-retrain (rq5) is train-victim with the frozen attack of
adversary_checkpoint in place of random bystanders, on the same seed
streams. Its rq5_table.csv holds the original (before) and the retrained
(after) victims' win rates under_attack, with no_attack and with random
bystanders. Victims that miss train.competence_floor without bystanders
are a training fault, in either command; train-adversary trains no victims
and leaves the floor unread.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import (
    RunManifest,
    apply_overrides,
    build_env_config,
    build_experiment_seeds,
    build_training_config,
    config_to_text,
    load_config,
)
from .core import ConfigError, TrainingFault
from .evaluation import ExperimentSpec, run_defense_experiment, run_experiment
from .training import evaluate_win_rate, load_policy, save_policy, train_adversaries, train_victims, write_table

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEPENDENCY = 3
EXIT_TRAINING = 4

# the TrainingConfig fields each attack arm of run-experiment sets, and all
# those that only the bystanders' reward reads, which phase 1 leaves unread
ARM_FIELDS = ("reward_mode", "victim_reward_access")
REWARD_FIELDS = (
    *ARM_FIELDS, "r_fail", "estimate_clip", "warmup_episodes", "model_hidden", "model_learning_rate", "model_batch"
)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bystander",
        description="Train, attack, evaluate and verify bystander-agent adversarial policies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (
        ("train-victim", "train the victim party and freeze its policy"),
        ("train-adversary", "train bystanders against a frozen victim checkpoint"),
        ("evaluate", "win rate of a victim checkpoint, optionally under attack"),
        ("defend-retrain", "retrain victims against a frozen attack"),
        ("run-experiment", "run one of the rq1..rq4 sweeps"),
    ):
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--seed", type=int, default=0, help="master seed for all randomness")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config key (repeatable)")
        p.add_argument("--out", default="runs", help="output root (default ./runs)")
        if name == "run-experiment":
            p.add_argument("--experiment", required=True, help="rq1..rq4")
            p.add_argument("--workers", type=int, default=1, help="parallel grid workers")
    # the checks take no options: their seeds are fixed in checks.py
    sub.add_parser("oracle-check", help="mixer argmax checks and the bystander replay on both envs")
    sub.add_parser("grad-check", help="finite-difference gradient audit")
    return parser


def _required(kv: dict[str, str], key: str) -> Path:
    value = kv.pop(key, None)
    if not value:
        raise ConfigError(f"config key {key} is required and missing")
    return Path(value)


# A run command pops the config keys it reads, checks them and returns its
# work: a function of the run directory that writes the run's files and
# returns the lines to print.


def _train_victim(args, kv):
    env_cfg = build_env_config(kv)
    cfg = build_training_config(kv, seed=args.seed, leave=REWARD_FIELDS)

    def work(out: Path) -> list[str]:
        result = train_victims(env_cfg, cfg, out)
        policy_path = out / "victims.npz"
        save_policy(policy_path, result.policy)
        return [
            f"no-attack win rate: {result.no_attack_win_rate:.3f}",
            f"random-neutral win rate: {result.random_neutral_win_rate:.3f}",
            f"policy: {policy_path}",
        ]

    return work


def _train_adversary(args, kv):
    env_cfg = build_env_config(kv)
    cfg = build_training_config(kv, seed=args.seed, leave=("competence_floor",))
    victim_path = _required(kv, "victim_checkpoint")

    def work(out: Path) -> list[str]:
        result = train_adversaries(env_cfg, load_policy(victim_path), cfg, out)
        policy_path = out / "adversaries.npz"
        save_policy(policy_path, result.policy)
        return [f"under-attack win rate: {result.under_attack_win_rate:.3f}", f"policy: {policy_path}"]

    return work


def _evaluate(args, kv):
    env_cfg = build_env_config(kv)
    # the one training setting evaluation reads, checked as TrainingConfig checks it
    read = {key: kv.pop(key) for key in ("train.eval_episodes",) if key in kv}
    episodes = build_training_config(read, seed=args.seed).eval_episodes
    victim_path = _required(kv, "victim_checkpoint")
    attack = kv.pop("adversary_checkpoint", None) or None  # a checkpoint, "random", or None for absent

    def work(out: Path) -> list[str]:
        victims = load_policy(victim_path)
        adversary = attack if attack in (None, "random") else load_policy(attack)
        rate, half = evaluate_win_rate(env_cfg, victims, adversary, episodes, args.seed)
        write_table(out / "eval.csv", [("win_rate", "halfwidth", "episodes"), (rate, half, episodes)])
        return [f"win rate: {rate:.3f} +/- {half:.3f} ({episodes} episodes)"]

    return work


def _defend_retrain(args, kv):
    env_cfg = build_env_config(kv)
    cfg = build_training_config(kv, seed=args.seed, leave=REWARD_FIELDS)
    victim_path = _required(kv, "victim_checkpoint")
    adversary_path = _required(kv, "adversary_checkpoint")

    def work(out: Path) -> list[str]:
        table = run_defense_experiment(env_cfg, victim_path, adversary_path, cfg, out)
        return [f"{condition}: {before:.3f} -> {after:.3f}" for condition, (before, after) in table.items()]

    return work


def _run_experiment(args, kv):
    if args.workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {args.workers}")
    cfg = build_training_config(kv, seed=args.seed, leave=ARM_FIELDS)
    seeds = build_experiment_seeds(kv) or ExperimentSpec.seeds
    spec = ExperimentSpec(args.experiment, cfg, seeds, victim_checkpoint=kv.pop("victim_checkpoint", None))

    def work(out: Path) -> list[str]:
        table = run_experiment(spec, out, workers=args.workers)
        return [
            f"{row.label}: under attack {row.under_attack:.3f} "
            f"(no attack {row.no_attack_absent:.3f}, random {row.no_attack_random:.3f})"
            for row in table
        ]

    return work


_COMMANDS = {
    "train-victim": _train_victim,
    "train-adversary": _train_adversary,
    "evaluate": _evaluate,
    "defend-retrain": _defend_retrain,
    "run-experiment": _run_experiment,
}


def _run(args) -> int:
    """One run command: check the config, refusing the keys the command
    leaves unread, start the manifest in the run directory, work, and
    finalize the manifest as done or failed."""
    kv = load_config(args.config) if args.config else {}
    kv = apply_overrides(kv, args.overrides)
    unread = dict(kv)
    work = _COMMANDS[args.command](args, unread)
    if unread:
        raise ConfigError(f"{args.command} does not read config key(s) {', '.join(sorted(unread))}")
    command, directory = args.command, args.command
    if command == "run-experiment":
        command, directory = f"{command} {args.experiment}", f"experiment-{args.experiment}"
    out = Path(args.out) / directory
    manifest = RunManifest(command=command, config_text=config_to_text(kv), seed=args.seed)
    manifest.start(out / "manifest.json")
    try:
        lines = work(out)
    except BaseException as exc:
        manifest.finalize("failed", error=_failure(exc)[0])
        raise
    manifest.finalize()
    print("\n".join(lines))
    return EXIT_OK


def _check(args) -> int:
    from .checks import run_grad_checks, run_oracle_checks

    results = {"oracle-check": run_oracle_checks, "grad-check": run_grad_checks}[args.command]()
    for r in results:
        print(r.line())
    return EXIT_OK if all(r.ok for r in results) else EXIT_TRAINING


def _failure(exc: BaseException) -> tuple[str, int | None]:
    """The message a failed command reports and records, and its exit code
    (None for an error that propagates)."""
    for kinds, kind, code in (
        (ConfigError, "config error", EXIT_CONFIG),
        (FileNotFoundError, "dependency error", EXIT_DEPENDENCY),
        (TrainingFault, "training fault", EXIT_TRAINING),
    ):
        if isinstance(exc, kinds):
            return f"{kind}: {exc}", code
    return f"{type(exc).__name__}: {exc}", None


def dispatch(argv: list[str]) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return _run(args) if args.command in _COMMANDS else _check(args)
    except BaseException as exc:
        message, code = _failure(exc)
        print(message, file=sys.stderr)
        if code is None:
            raise
        return code


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
