"""The benchmark's contract with the program. It wraps program attributes by
name, and it recounts and audits replayed episodes through the program's
rollout and audit functions; a refactor that breaks either would otherwise
show only in benchmark runs."""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
_MISSING = object()


def test_benchmark_tracer_hooks_resolve_and_are_undone(monkeypatch):
    """Every wrap resolves, and leaving the context restores the originals."""
    # only `tracing` is imported: bench/run.py sets environment variables on import
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")

    before = []
    original_wrap = tracing.Patches.wrap

    def recording_wrap(self, owner, attr, make):
        before.append((owner, attr, vars(owner).get(attr, _MISSING)))
        original_wrap(self, owner, attr, make)

    monkeypatch.setattr(tracing.Patches, "wrap", recording_wrap)
    with tracing.Patches() as patches:
        tracing.Tracer().install(patches)
        assert before
        for owner, attr, value in before:
            assert vars(owner)[attr] is not value, f"{owner.__name__}.{attr} was not wrapped"
    for owner, attr, value in before:
        assert vars(owner).get(attr, _MISSING) is value, f"{owner.__name__}.{attr} was not restored"


def test_benchmark_tracer_reaches_every_learner_hook(monkeypatch):
    """In a traced victim training run, the batch stacking, the TD targets,
    the agent nets' backward pass and the optimizer step are each reached
    once per learner step: a learner that computed one of them inline would
    leave its layer reading 0."""
    from bystander.envs import PRESETS
    from bystander.training import TrainingConfig, train_victims

    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    cfg = TrainingConfig(seed=3, episodes=6, batch_size=2, eval_interval=10**6, eval_episodes=2, competence_floor=0.0)
    tracer = tracing.Tracer()
    with tracing.Patches() as patches:
        tracer.install(patches)
        train_victims(PRESETS["skirmish-small"], cfg)
    steps = tracer.calls["qmix.learner_step"]
    assert steps == cfg.episodes - cfg.batch_size + 1
    for name in ("qmix.stack_batch", "qmix.td_targets", "neural.MLP.backward", "neural.Adam.step"):
        assert tracer.calls[name] == steps, name
        assert tracer.self_s[name] > 0, name
    assert 0 < tracer.real_transitions <= tracer.padded_transitions


def test_benchmark_recount_holds_for_trained_and_random_bystanders(monkeypatch):
    """`workloads.recount` replays evaluation episodes through `run_episode`
    and audits them with `audit_neutrality` and `validate_trajectory`, as
    the benchmark's reference rounds do; here on tiny trained victims with
    bystanders absent, random and trained."""
    from bystander.envs import PRESETS
    from bystander.training import TrainingConfig, evaluate_win_rate, train_adversaries, train_victims

    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    env_cfg = PRESETS["skirmish-small"]
    tiny = dict(episodes=4, batch_size=2, eval_interval=10**6, eval_episodes=2, competence_floor=0.0)
    victims = train_victims(env_cfg, TrainingConfig(seed=3, **tiny)).policy
    bystanders = train_adversaries(env_cfg, victims, TrainingConfig(seed=5, **tiny)).policy
    episodes, seed = 3, 11
    for label, adversary in (("absent", None), ("random", "random"), ("trained", bystanders)):
        reported = evaluate_win_rate(env_cfg, victims, adversary, episodes, seed)[0]
        assert workloads.recount(label, reported, env_cfg, victims, adversary, episodes, seed) == []
        wrong = workloads.recount(label, reported + 0.5, env_cfg, victims, adversary, episodes, seed)
        assert len(wrong) == 1 and "recount" in wrong[0]
