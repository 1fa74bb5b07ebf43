import dataclasses

import numpy as np
import pytest

from bystander.core import (
    AgentId,
    EpisodeTrajectory,
    Party,
    StepOutcome,
    StructuralError,
    derive_seed,
    validate_trajectory,
)
from bystander.envs import PRESETS, make_env


def outcome(terminal=False, success=False, signals=(0.0, 0.0)):
    return StepOutcome(terminal, success, np.asarray(signals, dtype=float))


def test_party_partition_and_ordering():
    assert Party.ADVERSARY < Party.VICTIM < Party.THIRD
    a = AgentId(Party.VICTIM, 0)
    assert a.key == "victim/0"
    assert AgentId(Party.ADVERSARY, 0) < AgentId(Party.VICTIM, 0)


def test_agent_index_must_be_nonnegative():
    with pytest.raises(ValueError):
        AgentId(Party.VICTIM, -1)


def test_outcome_exclusivity():
    with pytest.raises(ValueError):
        StepOutcome(False, True, np.zeros(2))
    with pytest.raises(ValueError):
        StepOutcome(True, False, np.array([-0.1, 0.0]))


def _trajectory(env, state, outcomes):
    """A trajectory that stays in `state`, every agent taking action 0."""
    parties = (Party.VICTIM, Party.ADVERSARY)
    steps = len(outcomes)
    return EpisodeTrajectory(
        obs={p: np.stack([env.observe_party(state, p)] * (steps + 1)) for p in parties},
        avail={p: np.stack([env.masks_party(state, p)] * (steps + 1)) for p in parties},
        actions={p: np.zeros((steps, len(env.agents(p))), dtype=int) for p in parties},
        states=(state,) * (steps + 1),
        outcomes=tuple(outcomes),
        seed=0,
    )


@pytest.fixture()
def skirmish():
    return make_env(PRESETS["skirmish-small"])


def test_one_step_terminal_trajectory_passes(skirmish):
    state = skirmish.reset(0)
    traj = _trajectory(skirmish, state, [outcome(terminal=True)])
    report = validate_trajectory(traj, skirmish.descriptor)
    assert report.ok, report.violations
    assert len(traj) == 1


def test_terminal_before_end_fails(skirmish):
    state = skirmish.reset(0)
    term = outcome(terminal=True)
    traj = _trajectory(skirmish, state, [term, term])
    report = validate_trajectory(traj, skirmish.descriptor)
    assert not report.ok
    assert any("terminal before end" in v for v in report.violations)
    # and a non-terminal tail is flagged too
    traj = _trajectory(skirmish, state, [outcome()])
    assert not validate_trajectory(traj, skirmish.descriptor).ok


def test_wrong_observation_shape_names_record(skirmish):
    state = skirmish.reset(0)
    traj = _trajectory(skirmish, state, [outcome(terminal=True)])
    bad = dataclasses.replace(traj, obs={**traj.obs, Party.VICTIM: np.zeros((2, 3, 17))})
    report = validate_trajectory(bad, skirmish.descriptor)
    assert not report.ok
    assert any(v.startswith("shape: victim obs (2, 3, 17)") for v in report.violations)
    # a misaligned array is refused the same way: obs must cover T+1 states
    short = dataclasses.replace(traj, avail={**traj.avail, Party.ADVERSARY: traj.avail[Party.ADVERSARY][:1]})
    report = validate_trajectory(short, skirmish.descriptor)
    assert any(v.startswith("shape: adversary avail") for v in report.violations)


def test_wrong_number_of_states_is_reported(skirmish):
    state = skirmish.reset(0)
    traj = _trajectory(skirmish, state, [outcome(), outcome(terminal=True)])
    for states in (traj.states[:-1], traj.states + (state,)):
        report = validate_trajectory(dataclasses.replace(traj, states=states), skirmish.descriptor)
        assert report.violations == (f"shape: {len(states)} states != 3",)


def test_unavailable_action_names_record_and_agent(skirmish):
    state = skirmish.reset(0)
    term = outcome(terminal=True)
    traj = _trajectory(skirmish, state, [outcome(), term])
    avail = traj.avail[Party.VICTIM].copy()
    avail[1, 2] = False
    actions = traj.actions[Party.ADVERSARY].copy()
    n_act = skirmish.descriptor.n_actions(Party.ADVERSARY)
    actions[0, 1] = n_act
    bad = dataclasses.replace(
        traj, avail={**traj.avail, Party.VICTIM: avail}, actions={**traj.actions, Party.ADVERSARY: actions}
    )
    assert validate_trajectory(bad, skirmish.descriptor).violations == (
        f"record 0: adversary/1 action {n_act} not available",
        "record 1: victim/2 has no available action",
        "record 1: victim/2 action 0 not available",
    )


def test_joint_action_is_each_partys_row_of_the_step(skirmish):
    traj = _trajectory(skirmish, skirmish.reset(0), [outcome(terminal=True)])
    traj.actions[Party.VICTIM][0] = [4, 5, 6]
    joint = traj.joint_action(0)
    assert list(joint) == [Party.VICTIM, Party.ADVERSARY]
    np.testing.assert_array_equal(joint[Party.VICTIM], [4, 5, 6])
    np.testing.assert_array_equal(joint[Party.ADVERSARY], [0, 0])


def test_empty_trajectory_is_structural_error(skirmish):
    with pytest.raises(StructuralError):
        validate_trajectory(_trajectory(skirmish, skirmish.reset(0), []), skirmish.descriptor)


def test_derive_seed_stable_and_distinct():
    assert derive_seed(7, "train", 3) == derive_seed(7, "train", 3)
    assert derive_seed(7, "train", 3) != derive_seed(7, "train", 4)
    assert derive_seed(7, "train", 3) != derive_seed(7, "eval", 3)
    assert derive_seed(8, "train", 3) != derive_seed(7, "train", 3)
