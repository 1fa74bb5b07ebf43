"""The verification suites behind `oracle-check` and `grad-check`, run
directly rather than only through the code they audit."""

import dataclasses

import numpy as np
import pytest

from bystander import checks
from bystander.cli import EXIT_OK, EXIT_TRAINING, dispatch
from bystander.core import Party, StepOutcome
from bystander.envs import PRESETS, SkirmishEnv
from bystander.qmix import MixingNet
from bystander.rollout import RandomController, run_episode


def test_oracle_check_passes_every_check(capsys):
    assert dispatch(["oracle-check"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert all(line.startswith("[pass]") for line in lines)
    assert "[pass] mixer monotonicity (worst FD slope violation): residual 0.000e+00 (bound 1.0e-09)" in lines
    assert lines[-1].startswith("[pass] bystander replay against frozen victims (skirmish-small, corridor-small)")


def test_argmax_check_catches_a_nonmonotone_mixer(monkeypatch, capsys):
    # the mixer's output takes one agent's Q with a negative weight, so the
    # per-agent greedy actions no longer maximise the mixed value
    def nonmonotone(self, q, cond):
        weights = np.ones(q.shape[1])
        weights[-1] = -1.0
        return q @ weights, None

    monkeypatch.setattr(MixingNet, "forward", nonmonotone)
    assert checks.argmax_consistency_residual() > 1e-12
    assert dispatch(["oracle-check"]) == EXIT_TRAINING
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("[FAIL] decentralized vs exhaustive argmax value") for line in lines)


def test_bystander_replay_catches_a_nondeterministic_third_party(monkeypatch, capsys):
    # the scripted opponents idle at random, drawn from one stream that no
    # reset restarts, so the bystanders' actions no longer fix the episode
    unseeded = np.random.default_rng(0)
    scripted = SkirmishEnv._scripted_action

    def sometimes_idle(self, state, k, occupied):
        return 0 if unseeded.random() < 0.5 else scripted(self, state, k, occupied)

    monkeypatch.setattr(SkirmishEnv, "_scripted_action", sometimes_idle)
    assert checks.bystander_replay_residual(presets=("skirmish-small",)) > 0.5
    assert dispatch(["oracle-check"]) == EXIT_TRAINING
    assert capsys.readouterr().out.splitlines()[-1].startswith("[FAIL] bystander replay")


def test_bystander_replay_audits_neutrality(monkeypatch, capsys):
    # every step reports a bystander attack on a victim, and the states stay
    # as they were, so the replay still repeats the episode bit for bit
    resolve = SkirmishEnv._resolve

    def reporting(self, state, actions, occupied):
        nxt, outcome, events = resolve(self, state, actions, occupied)
        attack = (self.agents(Party.ADVERSARY)[0], self.agents(Party.VICTIM)[0], 1)
        return nxt, outcome, dataclasses.replace(events, attacks=(*events.attacks, attack))

    monkeypatch.setattr(SkirmishEnv, "_resolve", reporting)
    assert checks.bystander_replay_residual(presets=("skirmish-small",)) > 0.5
    assert dispatch(["oracle-check"]) == EXIT_TRAINING
    assert capsys.readouterr().out.splitlines()[-1].startswith("[FAIL] bystander replay")


def test_bystander_replay_audits_the_trajectory(monkeypatch, capsys):
    # every step has one failure signal more than the descriptor's paths,
    # played and replayed alike
    outcome = SkirmishEnv._outcome

    def one_too_many(self, nxt, victim_loss):
        out = outcome(self, nxt, victim_loss)
        return StepOutcome(out.terminal, out.victim_success, np.append(out.failure_signals, 0.0))

    monkeypatch.setattr(SkirmishEnv, "_outcome", one_too_many)
    assert checks.bystander_replay_residual(presets=("skirmish-small",)) > 0.5
    assert dispatch(["oracle-check"]) == EXIT_TRAINING
    assert capsys.readouterr().out.splitlines()[-1].startswith("[FAIL] bystander replay")


def test_a_replay_that_differs_only_in_a_state_is_a_miss():
    # the seed field of a state is observed by no party, so only the
    # recorded states can tell the two episodes apart
    env = SkirmishEnv(PRESETS["skirmish-small"])
    rng = np.random.default_rng(0)
    played = run_episode(env, {p: RandomController(rng) for p in (Party.VICTIM, Party.ADVERSARY)}, 0).trajectory
    assert checks._same_play(played, played)
    last = dataclasses.replace(played.states[-1], seed=played.states[-1].seed + 1)
    assert not checks._same_play(played, dataclasses.replace(played, states=played.states[:-1] + (last,)))


@pytest.mark.parametrize(
    "residual",
    [
        checks.mlp_gradient_residual,
        checks.packed_recurrent_gradient_residual,
        checks.mixer_gradient_residual,
        checks.episode_sum_gradient_residual,
    ],
)
def test_gradient_residuals_stay_under_their_bound(residual):
    # two of the ten seeds: the full grad-check takes several seconds
    assert residual(seeds=checks.GRAD_SEEDS[:2]) < 1e-4


def test_grad_check_over_its_bound_exits_as_training_fault(monkeypatch, capsys):
    over = checks.CheckResult("planted residual", 1.0, 1e-4)
    monkeypatch.setattr(checks, "run_grad_checks", lambda: [over])
    assert dispatch(["grad-check"]) == EXIT_TRAINING
    assert capsys.readouterr().out.splitlines() == [over.line()]
    assert over.line().startswith("[FAIL] planted residual")
