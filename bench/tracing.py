"""Wrapping of the program's public functions from outside the program.

Every wrap is undone when its `Patches` context exits, so untraced rounds run
the program exactly as shipped. The tracer keeps call counts and self time
(duration minus the time of traced calls nested inside) in memory.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from contextlib import AbstractContextManager
from time import perf_counter

import checks
from bystander import neural, qmix, rewards, rollout, training
from bystander.envs import CorridorEnv, CorridorState, Environment, SkirmishEnv, SkirmishState


class Patches(AbstractContextManager):
    """Attribute replacements that are all restored on exit, newest first."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object, bool]] = []

    def wrap(self, owner, attr: str, make) -> None:
        """Replace owner.attr by make(original)."""
        # vars() so that an inherited method is restored by deleting the
        # subclass override instead of copying the base method down
        had = attr in vars(owner)
        self._saved.append((owner, attr, vars(owner)[attr] if had else None, had))
        setattr(owner, attr, make(getattr(owner, attr)))

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, value, had = self._saved.pop()
            if had:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)


def counting(calls: Counter, name: str):
    """Wrapper maker that only counts calls, for runs that must not pay for
    timing."""

    def make(fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    return make


class Tracer:
    """Per-function call counts and self time, plus the derived ratios the
    benchmark reports (batch fill, reward-model unroll steps, loss gaps)."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self._child_s: list[float] = []
        self.excluded_s = 0.0
        self.real_transitions = 0
        self.padded_transitions = 0
        self.unroll_steps = 0
        self._update_depth = 0
        self.loss_rel_gaps: list[float] = []
        self._paused = False

    def timed(self, name: str):
        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if self._paused:
                    return fn(*args, **kwargs)
                stack = self._child_s
                stack.append(0.0)
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    spent = perf_counter() - start
                    children = stack.pop()
                    self.calls[name] += 1
                    self.self_s[name] += spent - children
                    if stack:
                        stack[-1] += spent

            return traced

        return make

    def _exclude(self, seconds: float) -> None:
        """Charge time spent on the benchmark's own checks to nobody."""
        self.excluded_s += seconds
        if self._child_s:
            self._child_s[-1] += seconds

    def _batch_fill(self, fn):
        @functools.wraps(fn)
        def stacked(episodes):
            batch = fn(episodes)
            self.real_transitions += int(batch.mask.sum())
            self.padded_transitions += int(batch.mask.size)
            return batch

        return stacked

    def _lstm_step(self, fn):
        @functools.wraps(fn)
        def step(*args, **kwargs):
            if self._update_depth:
                self.unroll_steps += 1
            return fn(*args, **kwargs)

        return step

    def _checked_update(self, fn):
        """Before each reward-model update, recompute the loss it should
        return from RewardModel.episode_sums; the recomputation is excluded
        from every timing."""

        @functools.wraps(fn)
        def update(model, episodes, ground_truths, optimizer):
            start = perf_counter()
            self._paused = True
            try:
                sums = model.episode_sums(episodes)
            finally:
                self._paused = False
            self._exclude(perf_counter() - start)
            self._update_depth += 1
            try:
                loss = fn(model, episodes, ground_truths, optimizer)
            finally:
                self._update_depth -= 1
            self.loss_rel_gaps.append(checks.loss_rel_gap(loss, sums, ground_truths))
            return loss

        return update

    def install(self, patches: Patches) -> None:
        """Wrap every layer boundary the benchmark reports on."""
        t = self.timed
        for cls in (SkirmishEnv, CorridorEnv):
            for attr in ("reset", "observe", "available_actions", "victim_task_reward"):
                patches.wrap(cls, attr, t(f"envs.{attr}"))
        for attr in ("step", "observe_party", "masks_party"):
            patches.wrap(Environment, attr, t(f"envs.{attr}"))
        patches.wrap(SkirmishState, "unit", counting(self.calls, "envs.state_lookup"))
        patches.wrap(CorridorState, "vehicle", counting(self.calls, "envs.state_lookup"))

        patches.wrap(training, "run_episode", t("rollout.run_episode"))
        for cls in (rollout.EpsilonGreedyController, rollout.RandomController, training.FrozenController):
            patches.wrap(cls, "act", t("rollout.controller_act"))
        patches.wrap(training.FrozenPolicy, "act", t("training.FrozenPolicy.act"))
        patches.wrap(training, "train_party", t("training.train_party"))

        patches.wrap(training, "learner_step", t("qmix.learner_step"))
        patches.wrap(qmix, "stack_batch", lambda fn: t("qmix.stack_batch")(self._batch_fill(fn)))
        patches.wrap(qmix, "td_targets", t("qmix.td_targets"))

        patches.wrap(
            training,
            "reward_model_update",
            lambda fn: self._checked_update(t("rewards.reward_model_update")(fn)),
        )
        patches.wrap(rewards.EpisodeEstimator, "step", t("rewards.EpisodeEstimator.step"))

        patches.wrap(neural.LSTMCell, "step", lambda fn: self._lstm_step(t("neural.LSTMCell.step")(fn)))
        patches.wrap(neural.LSTMCell, "backward_step", t("neural.LSTMCell.backward_step"))
        patches.wrap(neural.MLP, "forward", t("neural.MLP.forward"))
        patches.wrap(neural.MLP, "backward", t("neural.MLP.backward"))
        patches.wrap(neural.Adam, "step", t("neural.Adam.step"))
