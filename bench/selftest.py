"""Self-test of the benchmark, outside the repository's test suite.

1. Every check passes on genuine values and fails on a corrupted copy: a
   flipped win, an altered checksum, a learner count off by one, a perturbed
   loss, a perturbed half-width, a rate under its floor.
2. A smoke run plays a reference, a traced and a plain round of every
   workload, shrunk to one call of a few episodes, runs the reference
   checks, and requires exactly the per-layer metrics of BENCHMARK.json.

    python3 bench/selftest.py

Uses the prepared inputs, preparing them first (about 30 s) if needed.
"""

import json
from dataclasses import replace

import numpy as np

import checks
import prepare
import run
import workloads
from bystander.neural import Adam
from bystander.rewards import RewardModel, reward_model_update
from bystander.training import wilson_half_width


def expect(ok, broken) -> None:
    """ok must pass, broken must fail."""
    if ok is not None:
        raise AssertionError(f"check failed on genuine input: {ok}")
    if broken is None:
        raise AssertionError("check passed on corrupted input")


def check_the_checks() -> None:
    outcomes = [True, False, True, True]
    flipped = [not outcomes[0]] + outcomes[1:]
    expect(checks.win_rate_recount("rate", 0.75, outcomes), checks.win_rate_recount("rate", 0.75, flipped))

    digest = "37b6b1d2565b" + "0" * 52
    altered = "47b6b1d2565b" + "0" * 52
    expect(checks.checksum("policy", digest, digest), checks.checksum("policy", digest, altered))
    ref = {"victims": digest, "no_attack": 0.8}
    expect(checks.same_outputs(ref, dict(ref)), checks.same_outputs(ref, {**ref, "victims": altered}))
    expect(checks.same_outputs(ref, dict(ref)), checks.same_outputs(ref, {**ref, "no_attack": 0.81}))

    episodes, batch = 60, 32
    expected = episodes - batch + 1
    expect(checks.call_count("learner_step", 29, expected), checks.call_count("learner_step", 30, expected))
    expect(checks.call_count("learner_step", 29, expected), checks.call_count("learner_step", 28, expected))

    rng = np.random.default_rng(0)
    model = RewardModel(6, 8, rng)
    eps = [rng.normal(size=(t, 6)) for t in (3, 5, 4)]
    gts = [0.0, 20.0, 0.0]
    sums = model.episode_sums(eps)
    loss = reward_model_update(model, eps, gts, Adam(model.params()))
    expect(
        checks.loss_gaps([checks.loss_rel_gap(loss, sums, gts)]),
        checks.loss_gaps([checks.loss_rel_gap(loss * (1 + 1e-6), sums, gts)]),
    )

    hw = float(wilson_half_width(0.7, 100))
    expect(checks.half_width("rate", hw, 0.7, 100), checks.half_width("rate", hw * (1 + 1e-9), 0.7, 100))
    expect(checks.floor("absent", 0.7, 0.55), checks.floor("absent", 0.5, 0.55))
    print("checks: every check passes genuine and fails corrupted input")


def smoke() -> None:
    inputs = workloads.Inputs.load(prepare.ensure_inputs())
    declared = {m["name"] for m in json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(1, inputs)
        if isinstance(wl, workloads.Training):
            wl.cfgs = [replace(c, episodes=c.batch_size + 2, eval_episodes=3) for c in wl.cfgs[:1]]
        else:
            wl.episodes = 3
        rounds = run.Rounds(wl)
        for kind in ("plain", "traced", "plain"):
            rounds.run(kind)
        rounds.check_reference()
        if rounds.problems or rounds.failed_rounds:
            raise AssertionError(f"{name}: " + "\n".join(rounds.problems))
        m = run.layer_metrics(rounds.tracers, wl.episodes_per_round, rounds.times["plain"][0], rounds.times["traced"][0])
        if m.keys() != declared:
            raise AssertionError(f"{name}: per-layer metrics differ from BENCHMARK.json: {sorted(m.keys() ^ declared)}")
        print(f"smoke: {name} passed {rounds.rounds} rounds and emitted {len(m)} per-layer metrics")


if __name__ == "__main__":
    check_the_checks()
    smoke()
