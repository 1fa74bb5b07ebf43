"""Correctness checks the benchmark applies to the program's outputs.

Each check takes plain values and returns None when it holds or a message
saying what is wrong, so `selftest.py` can feed it corrupted inputs. The
expected values are recomputed here, apart from the program: the Wilson
interval from its textbook formula, win rates from a recount of replayed
episodes, losses from the model's own episode sums.
"""

from __future__ import annotations

from statistics import NormalDist
from typing import Mapping, Sequence

# two-sided 95% normal quantile
WILSON_Z = NormalDist().inv_cdf(0.975)
# tolerances for values recomputed in another order of float operations
HALF_WIDTH_RTOL = 1e-12
LOSS_RTOL = 1e-9


def wilson_half_width(rate: float, n: int) -> float:
    z2 = WILSON_Z * WILSON_Z
    return WILSON_Z * (rate * (1.0 - rate) / n + z2 / (4.0 * n * n)) ** 0.5 / (1.0 + z2 / n)


def same_outputs(reference: Mapping, outputs: Mapping) -> str | None:
    """Repeated seeded calls must reproduce every checksum and win rate."""
    diff = sorted(k for k in reference.keys() | outputs.keys() if reference.get(k) != outputs.get(k))
    if diff:
        return "repeated call differs from the first in " + ", ".join(diff)
    return None


def checksum(name: str, expected: str, actual: str) -> str | None:
    if actual != expected:
        return f"{name} checksum is {actual[:12]}, expected {expected[:12]}"
    return None


def win_rate_recount(label: str, reported: float, outcomes: Sequence[bool]) -> str | None:
    if not outcomes:
        return f"{label}: no episodes to recount"
    recount = sum(outcomes) / len(outcomes)
    if reported != recount:
        return f"{label}: reported win rate {reported!r} != recount {recount!r} over {len(outcomes)} episodes"
    return None


def half_width(label: str, reported: float, rate: float, n: int) -> str | None:
    expect = wilson_half_width(rate, n)
    if abs(reported - expect) > HALF_WIDTH_RTOL * expect:
        return f"{label}: half-width {reported!r} != Wilson {expect!r}"
    return None


def call_count(name: str, calls: int, expected: int) -> str | None:
    if calls != expected:
        return f"{name} called {calls} times, expected {expected}"
    return None


def loss_rel_gap(loss: float, sums: Sequence[float], ground_truths: Sequence[float]) -> float:
    """Relative gap between a returned reward-model loss and the mean squared
    episode-sum error recomputed from the sums taken before the update."""
    expect = sum((float(s) - float(g)) ** 2 for s, g in zip(sums, ground_truths)) / len(sums)
    return abs(loss - expect) / max(abs(expect), 1e-300)


def loss_gaps(gaps: Sequence[float]) -> str | None:
    worst = max(gaps, default=0.0)
    if not gaps or not worst <= LOSS_RTOL:
        return f"reward-model loss differs from the recomputed episode-sum error by {worst!r} relative ({len(gaps)} updates)"
    return None


def floor(label: str, rate: float, minimum: float) -> str | None:
    if not rate >= minimum:
        return f"{label}: win rate {rate!r} below the floor {minimum}"
    return None
