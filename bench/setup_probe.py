"""One set-up as a workload pays it in a fresh interpreter: import the
program, load the checkpoints the workload reads, make its environment.
Prints `ready` when the first episode could start.

    python3 bench/setup_probe.py <preset> [checkpoint.npz ...]
"""

import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bystander.envs import PRESETS, make_env  # noqa: E402
from bystander.training import load_policy  # noqa: E402

for path in sys.argv[2:]:
    load_policy(path)
make_env(PRESETS[sys.argv[1]])
print("ready", flush=True)
