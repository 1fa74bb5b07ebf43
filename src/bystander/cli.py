"""Command-line entry point.

Exit codes: 0 success, 2 configuration/usage error, 3 missing dependency
(e.g. checkpoint), 4 training fault. All outputs land under --out (or
$BYSTANDER_OUT, default ./runs); every run writes a manifest first and
finalizes it on completion, as "done" or as "failed" with the error.
"""

from __future__ import annotations

import argparse
import dataclasses
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
    output_root,
)
from .core import ConfigError, TrainingFault
from .evaluation import default_spec, run_defense_experiment, run_experiment
from .training import (
    TrainingFailed,
    evaluate_win_rate,
    load_policy,
    save_policy,
    train_adversaries,
    train_victims,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEPENDENCY = 3
EXIT_TRAINING = 4


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
        p.add_argument("--out", help="output directory (default $BYSTANDER_OUT or ./runs)")
        if name == "run-experiment":
            p.add_argument("--experiment", required=True, help="rq1..rq4")
            p.add_argument("--workers", type=int, default=1, help="parallel grid workers")
    # the checks take no options: their seeds are fixed in checks.py
    sub.add_parser("oracle-check", help="mixer argmax checks and the bystander replay on both envs")
    sub.add_parser("grad-check", help="finite-difference gradient audit")
    return parser


def _load_merged(args) -> dict[str, str]:
    kv = load_config(args.config) if args.config else {}
    return apply_overrides(kv, args.overrides)


def _start_manifest(args, kv: dict[str, str], out: Path, command: str) -> tuple[RunManifest, Path]:
    out.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(command=command, config_text=config_to_text(kv), seed=args.seed)
    path = out / "manifest.json"
    manifest.write(path)
    args.started.append((manifest, path))
    return manifest, path


def _require(kv: dict[str, str], key: str) -> Path:
    value = kv.get(key)
    if not value:
        raise FileNotFoundError(f"config key {key} is required and missing")
    path = Path(value)
    if not path.exists():
        raise FileNotFoundError(f"missing checkpoint: {path}")
    return path


def _cmd_train_victim(args) -> int:
    kv = _load_merged(args)
    env_cfg = build_env_config(kv)
    cfg = build_training_config(kv, seed=args.seed)
    out = output_root(args.out) / "train-victim"
    manifest, mpath = _start_manifest(args, kv, out, "train-victim")
    result = train_victims(env_cfg, cfg, out)
    policy_path = out / "victims.npz"
    save_policy(policy_path, result.policy)
    manifest.add_artifact(policy_path)
    for suffix in ("victim_train_learner_steps.csv", "victim_train_curve.csv"):
        manifest.add_artifact(out / suffix)
    manifest.finalize(mpath)
    print(f"no-attack win rate: {result.no_attack_win_rate:.3f}")
    print(f"random-neutral win rate: {result.random_neutral_win_rate:.3f}")
    print(f"policy: {policy_path}")
    return EXIT_OK


def _cmd_train_adversary(args) -> int:
    kv = _load_merged(args)
    env_cfg = build_env_config(kv)
    cfg = build_training_config(kv, seed=args.seed)
    victims = load_policy(_require(kv, "victim_checkpoint"))
    out = output_root(args.out) / "train-adversary"
    manifest, mpath = _start_manifest(args, kv, out, "train-adversary")
    result = train_adversaries(env_cfg, victims, cfg, out)
    policy_path = out / "adversaries.npz"
    save_policy(policy_path, result.policy)
    manifest.add_artifact(policy_path)
    for suffix in ("adversary_train_learner_steps.csv", "adversary_train_curve.csv"):
        manifest.add_artifact(out / suffix)
    manifest.finalize(mpath)
    print(f"under-attack win rate: {result.under_attack_win_rate:.3f}")
    print(f"policy: {policy_path}")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    kv = _load_merged(args)
    env_cfg = build_env_config(kv)
    cfg = build_training_config(kv, seed=args.seed)
    victims = load_policy(_require(kv, "victim_checkpoint"))
    adversary = None
    if kv.get("adversary_checkpoint") == "random":
        adversary = "random"
    elif kv.get("adversary_checkpoint"):
        adversary = load_policy(_require(kv, "adversary_checkpoint"))
    out = output_root(args.out) / "evaluate"
    manifest, mpath = _start_manifest(args, kv, out, "evaluate")
    rate, half = evaluate_win_rate(env_cfg, victims, adversary, cfg.eval_episodes, args.seed)
    (out / "eval.csv").write_text(
        "win_rate,halfwidth,episodes\n" f"{rate:.10g},{half:.10g},{cfg.eval_episodes}\n"
    )
    manifest.add_artifact(out / "eval.csv")
    manifest.finalize(mpath)
    print(f"win rate: {rate:.3f} +/- {half:.3f} ({cfg.eval_episodes} episodes)")
    return EXIT_OK


def _cmd_defend_retrain(args) -> int:
    kv = _load_merged(args)
    env_cfg = build_env_config(kv)
    cfg = build_training_config(kv, seed=args.seed)
    victim_path = _require(kv, "victim_checkpoint")
    adversary_path = _require(kv, "adversary_checkpoint")
    out = output_root(args.out) / "defend-retrain"
    manifest, mpath = _start_manifest(args, kv, out, "defend-retrain")
    result = run_defense_experiment(env_cfg, victim_path, adversary_path, cfg, out)
    manifest.add_artifact(out / "rq5_table.csv")
    manifest.add_artifact(out / "retrained_victims.npz")
    manifest.finalize(mpath)
    print(
        f"under attack: {result.before_under_attack:.3f} -> {result.after_under_attack:.3f}; "
        f"no attack: {result.before_no_attack:.3f} -> {result.after_no_attack:.3f}"
    )
    return EXIT_OK


def _cmd_run_experiment(args) -> int:
    kv = _load_merged(args)
    experiment_id = args.experiment
    cfg = build_training_config(kv, seed=args.seed)
    spec = default_spec(experiment_id, cfg, seeds=build_experiment_seeds(kv))
    if kv.get("victim_checkpoint"):
        spec = dataclasses.replace(spec, victim_checkpoint=kv["victim_checkpoint"])
    out = output_root(args.out) / f"experiment-{experiment_id}"
    manifest, mpath = _start_manifest(args, kv, out, f"run-experiment {experiment_id}")
    table = run_experiment(spec, out, workers=args.workers)
    for name in (f"{experiment_id}_table.csv", f"{experiment_id}_curves_long.csv"):
        manifest.add_artifact(out / name)
    if not spec.victim_checkpoint:
        for label, _ in spec.env_grid:
            manifest.add_artifact(out / f"victims_{label}.npz")
            manifest.add_artifact(out / f"victims_{label}.json")
    manifest.finalize(mpath)
    for row in table.rows:
        print(
            f"{row.label}: under attack {row.under_attack:.3f} "
            f"(no attack {row.no_attack_absent:.3f}, random {row.no_attack_random:.3f})"
        )
    return EXIT_OK


def _cmd_oracle_check(args) -> int:
    from .checks import run_oracle_checks

    results = run_oracle_checks()
    for r in results:
        print(r.line())
    return EXIT_OK if all(r.ok for r in results) else EXIT_TRAINING


def _cmd_grad_check(args) -> int:
    from .checks import run_grad_checks

    results = run_grad_checks()
    for r in results:
        print(r.line())
    return EXIT_OK if all(r.ok for r in results) else EXIT_TRAINING


_COMMANDS = {
    "train-victim": _cmd_train_victim,
    "train-adversary": _cmd_train_adversary,
    "evaluate": _cmd_evaluate,
    "defend-retrain": _cmd_defend_retrain,
    "run-experiment": _cmd_run_experiment,
    "oracle-check": _cmd_oracle_check,
    "grad-check": _cmd_grad_check,
}


def dispatch(argv: list[str]) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    args.started = []  # (manifest, path) of every manifest the command writes
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        return _fail(args, exc, "config error", EXIT_CONFIG)
    except FileNotFoundError as exc:
        return _fail(args, exc, "dependency error", EXIT_DEPENDENCY)
    except (TrainingFault, TrainingFailed) as exc:
        return _fail(args, exc, "training fault", EXIT_TRAINING)
    except BaseException as exc:
        _fail(args, exc, type(exc).__name__, None)
        raise


def _fail(args, exc: BaseException, kind: str, code: int | None) -> int | None:
    """Report a failed command and finalise the manifests it started."""
    message = f"{kind}: {exc}"
    print(message, file=sys.stderr)
    for manifest, path in args.started:
        if manifest.status == "running":
            manifest.finalize(path, "failed", error=message)
    return code


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
