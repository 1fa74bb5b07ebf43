"""The benchmark wraps program attributes by name; a refactor that removes one
would break only traced benchmark runs. This resolves every wrap and checks
that leaving the context restores the originals, without playing a round."""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
_MISSING = object()


def test_benchmark_tracer_hooks_resolve_and_are_undone(monkeypatch):
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
