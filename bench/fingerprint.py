"""Output fingerprint of every workload at one seed: the policy checksums and
win rates of a round and of the prepared inputs, with a digest over them.
A speed-up should leave it unchanged; it is information, not a gate.

    python3 bench/fingerprint.py [seed]

Runs each workload for its two minimum rounds (about a minute in all, plus
preparation on first use) and prints one JSON object.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main() -> int:
    seed = sys.argv[1] if len(sys.argv) > 1 else "1"
    names = [w["name"] for w in json.loads((BENCH.parent / "BENCHMARK.json").read_text())["workloads"]]
    results = {}
    for name in names:
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", seed, "--seconds", "0"]
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
        run = json.loads((BENCH / "out" / "runs" / f"{name}-seed{seed}-trace0.json").read_text())
        results[name] = {"outputs": run["outputs"], "problems": run["problems"]}
    results["inputs"] = {
        party: {k: v for k, v in run["inputs"][party].items() if k != "config"} for party in ("victims", "bystanders")
    }
    text = json.dumps(results, sort_keys=True)
    print(json.dumps({"sha256": hashlib.sha256(text.encode()).hexdigest(), **results}, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
