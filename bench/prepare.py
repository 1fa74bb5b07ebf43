"""Input preparation: frozen phase-1 victims and trained bystanders for
skirmish-small, made by the program's own training entry points at fixed
seeds and cached in the checkout.

The cache key is a digest of the program's sources and of this file, so a
checkout prepares once and a changed program prepares again. Preparation
runs in its own process, so it counts in no metric of the runs that use it.

    python3 bench/prepare.py <output dir>
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "bench" / "out"

# victims clear this no-attack win rate over the 50 evaluation episodes of
# their training run (measured 0.82) or preparation fails
VICTIM_FLOOR = 0.8


def victim_config():
    from bystander.training import TrainingConfig

    return TrainingConfig(
        episodes=200, eval_interval=10**6, eval_episodes=50, competence_floor=VICTIM_FLOOR, seed=7
    )


def bystander_config():
    from bystander.training import RewardMode, TrainingConfig

    return TrainingConfig(
        episodes=200, reward_mode=RewardMode.ESTIMATION, eval_interval=10**6, eval_episodes=50, seed=11
    )


def source_key() -> str:
    h = hashlib.sha256()
    files = sorted((ROOT / "src" / "bystander").rglob("*.py")) + [Path(__file__).resolve()]
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def prepare(out_dir: Path) -> None:
    from bystander.envs import PRESETS
    from bystander.training import save_policy, train_adversaries, train_victims

    env_cfg = PRESETS["skirmish-small"]
    start = time.perf_counter()
    victims = train_victims(env_cfg, victim_config())
    adversaries = train_adversaries(env_cfg, victims.policy, bystander_config())
    save_policy(out_dir / "victims.npz", victims.policy)
    save_policy(out_dir / "bystanders.npz", adversaries.policy)
    manifest = {
        "env": "skirmish-small",
        "victims": {
            "checksum": victims.policy.checksum(),
            "no_attack_win_rate": victims.no_attack_win_rate,
            "random_neutral_win_rate": victims.random_neutral_win_rate,
            "config": asdict(victim_config()),
        },
        "bystanders": {
            "checksum": adversaries.policy.checksum(),
            "under_attack_win_rate": adversaries.under_attack_win_rate,
            "config": asdict(bystander_config()),
        },
        "prepare_s": time.perf_counter() - start,
    }
    (out_dir / "inputs.json").write_text(json.dumps(manifest, indent=2, sort_keys=True, default=str))


def ensure_inputs() -> Path:
    """Directory holding the prepared inputs, preparing them first if this
    checkout has none for the current sources."""
    target = OUT / f"inputs-{source_key()}"
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / "prepare.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (target / "inputs.json").exists():
            tmp = OUT / f"{target.name}.tmp{os.getpid()}"
            tmp.mkdir()
            subprocess.run([sys.executable, __file__, str(tmp)], check=True, stdout=sys.stderr)
            os.replace(tmp, target)
    return target


if __name__ == "__main__":
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    prepare(Path(sys.argv[1]))
