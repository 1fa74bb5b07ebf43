"""Benchmark of the bystander lab: one workload, one seed, one result line.

    python3 bench/run.py --workload evaluate-skirmish --seed 1 --seconds 25 --trace 0

A run prepares (or reuses) the frozen inputs, times fresh-interpreter
set-ups, then plays as many identical rounds of the workload's seeded calls
as --seconds allows at the nominal pace, the first with call counters, and
checks every output. The last line of standard output is a JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics of traced rounds with --trace 1. See
README.md for the estimator and the layer-to-metric map.
"""

import os
import sys
from pathlib import Path

# one BLAS thread: policy bits depend on the thread count
os.environ["OPENBLAS_NUM_THREADS"] = "1"
ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import prepare  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from bystander import training  # noqa: E402
from bystander.envs import Environment  # noqa: E402

SETUP_PROBES = 9
MIN_ROUNDS = 2

LAYER_TIMES = (
    "envs.reset", "envs.step", "envs.observe", "envs.available_actions", "envs.observe_party",
    "envs.masks_party", "envs.victim_task_reward", "rollout.run_episode", "rollout.controller_act",
    "training.FrozenPolicy.act", "training.train_party", "qmix.learner_step", "qmix.stack_batch",
    "qmix.td_targets", "rewards.reward_model_update", "rewards.EpisodeEstimator.step",
    "neural.LSTMCell.step", "neural.LSTMCell.backward_step", "neural.MLP.forward",
    "neural.MLP.backward", "neural.Adam.step",
)
LAYER_CALLS = (
    "envs.reset", "envs.step", "envs.observe", "envs.available_actions", "envs.state_lookup",
    "rollout.run_episode", "training.FrozenPolicy.act", "qmix.learner_step",
    "rewards.reward_model_update", "rewards.EpisodeEstimator.step", "neural.LSTMCell.step",
    "neural.LSTMCell.backward_step", "neural.MLP.forward", "neural.MLP.backward", "neural.Adam.step",
)


def setup_seconds(workload, inputs_dir: Path) -> list[float]:
    """Wall time from spawning a fresh interpreter to `ready`, per probe."""
    argv = [sys.executable, str(ROOT / "bench" / "setup_probe.py"), workload.preset]
    argv += [str(inputs_dir / name) for name in workload.checkpoints]
    samples = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as probe:
            line = probe.stdout.readline()
            elapsed = perf_counter() - start
            probe.stdout.read()
        if probe.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with code {probe.returncode}")
        samples.append(elapsed)
    return samples


def steal_ticks() -> int:
    with open("/proc/stat") as fh:
        return int(fh.readline().split()[8])


def blas_runtime() -> dict:
    """Thread count and core type of the OpenBLAS numpy actually loaded."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    return {"threads": get_threads(), "config": get_config().decode()}
    return {"threads": None, "config": None}


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


class Rounds:
    """Runs rounds of one workload, keeping their times, outputs and
    failures. The first round runs with call counters and becomes the
    reference the others must reproduce; its full checks run last, in
    `check_reference`, after the measuring window."""

    def __init__(self, workload):
        self.workload = workload
        self.reference: dict | None = None
        self.times: dict[str, list[float]] = {"plain": [], "traced": []}
        self.tracers: list[tracing.Tracer] = []
        self.rounds = 0
        self.failed_rounds = 0
        self.problems: list[str] = []
        self.env_steps = 0

    def _fail(self, found: list[str]) -> None:
        self.failed_rounds += 1
        self.problems += found

    def run(self, kind: str) -> None:
        """kind is "plain" (nothing wrapped) or "traced"."""
        wl = self.workload
        first = self.reference is None
        tracer = tracing.Tracer() if kind == "traced" else None
        calls: Counter = Counter()
        self.rounds += 1
        try:
            with tracing.Patches() as patches:
                if tracer is not None:
                    tracer.install(patches)
                if first:
                    patches.wrap(training, "learner_step", tracing.counting(calls, "learner_step"))
                    patches.wrap(training, "reward_model_update", tracing.counting(calls, "reward_model_update"))
                    patches.wrap(Environment, "step", tracing.counting(calls, "env_steps"))
                start = perf_counter()
                result = wl.run_round()
                elapsed = perf_counter() - start
            outputs = wl.outputs(result)
            found = wl.check_round(outputs)
            if not first:
                found.append(checks.same_outputs(self.reference, outputs))
            if tracer is not None and tracer.loss_rel_gaps:
                found.append(checks.loss_gaps(tracer.loss_rel_gaps))
            if tracer is not None and self.tracers:
                found.append(checks.same_outputs(self.tracers[0].calls, tracer.calls))
        except Exception:
            found = ["round raised:\n" + traceback.format_exc()]
        found = [p for p in found if p]
        if found:
            self._fail(found)
            return
        if first:
            self.reference, self._result, self._calls = outputs, result, calls
        if tracer is not None:
            self.tracers.append(tracer)
            elapsed -= tracer.excluded_s
        self.times[kind].append(elapsed)

    def check_reference(self) -> None:
        """Recounts, audits and call counts on the first round."""
        if self.reference is None:
            return
        try:
            found = self.workload.check_reference(self._result, self.reference, self._calls)
        except Exception:
            found = ["reference checks raised:\n" + traceback.format_exc()]
        self.env_steps = self._calls["env_steps"]
        if found:
            self._fail(found)


def layer_metrics(tracers: list[tracing.Tracer], episodes: int, untraced_s: float, traced_s: float) -> dict:
    """Per-layer figures per round: call counts (identical in every traced
    round) and medians of self time."""
    def med(values):
        return float(statistics.median(values))

    m = {}
    for name in LAYER_CALLS:
        m[f"{name}.calls"] = (med([t.calls[name] for t in tracers]), "count")
    for name in LAYER_TIMES:
        m[f"{name}.self_ms"] = (med([1000.0 * t.self_s[name] for t in tracers]), "ms")
    steps = med([t.calls["envs.step"] for t in tracers])
    m["envs.observe.calls_per_step"] = (med([t.calls["envs.observe"] for t in tracers]) / steps, "ratio")
    padded = med([t.padded_transitions for t in tracers])
    m["qmix.batch_fill"] = (med([t.real_transitions for t in tracers]) / padded if padded else 0.0, "ratio")
    m["rewards.unroll_steps"] = (med([t.unroll_steps for t in tracers]), "count")
    m["trace.episodes_per_s"] = (episodes / traced_s, "1/s")
    m["trace.untraced_episodes_per_s"] = (episodes / untraced_s, "1/s")
    m["trace.overhead_pct"] = (100.0 * (traced_s / untraced_s - 1.0), "%")
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    inputs_dir = prepare.ensure_inputs()
    inputs = workloads.Inputs.load(inputs_dir)
    wl = workloads.WORKLOADS[args.workload](args.seed, inputs)
    problems = inputs.problems()
    steal_start = steal_ticks()
    setup = [] if args.trace else setup_seconds(wl, inputs_dir)

    rounds = Rounds(wl)
    kinds = ("plain", "traced") if args.trace else ("plain",)
    # the round count follows from --seconds alone, never from the speed of
    # this run, so every run of a workload measures the same work
    per_kind = max(MIN_ROUNDS, int(args.seconds / (wl.nominal_round_s * len(kinds))))
    for i in range(per_kind * len(kinds)):
        rounds.run(kinds[i % len(kinds)])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rounds.check_reference()
    problems += rounds.problems + inputs.problems()

    times = rounds.times
    episodes = wl.episodes_per_round
    metrics = {}
    if args.trace and times["traced"] and times["plain"]:
        metrics = layer_metrics(rounds.tracers, episodes, statistics.mean(times["plain"]), statistics.mean(times["traced"]))
    elif not args.trace and times["plain"]:
        round_s = statistics.mean(times["plain"])
        metrics = {
            "episodes_per_s": (episodes / round_s, "1/s"),
            "env_steps_per_s": (rounds.env_steps / round_s, "1/s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    fingerprint = {
        "workload": wl.name,
        "seed": args.seed,
        "outputs": rounds.reference,
        "inputs": {k: inputs.manifest[k] for k in ("victims", "bystanders")},
        "commit": commit(),
        "source_key": prepare.source_key(),
        "numpy": np.__version__,
        "openblas": blas_runtime(),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "steal_ticks": steal_ticks() - steal_start,
        "round_s": times,
        "setup_s": setup,
        "problems": problems,
    }
    runs_dir = ROOT / "bench" / "out" / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    (runs_dir / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(fingerprint, indent=2, sort_keys=True, default=str)
    )
    for p in problems:
        print("CHECK FAILED:", p, file=sys.stderr)
    print(json.dumps({k: fingerprint[k] for k in ("round_s", "setup_s", "steal_ticks")}), file=sys.stderr)

    result = {
        "correct": not problems and bool(metrics),
        "attempted": episodes * rounds.rounds,
        "failed": episodes * rounds.failed_rounds,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
