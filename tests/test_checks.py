"""The verification suites behind `oracle-check` and `grad-check`, run
directly rather than only through the code they audit."""

import pytest

from bystander import checks
from bystander.cli import EXIT_OK, EXIT_TRAINING, dispatch


def test_oracle_check_passes_all_five_checks(capsys):
    assert dispatch(["oracle-check"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    assert all(line.startswith("[pass]") for line in lines)


@pytest.mark.parametrize(
    "residual",
    [
        checks.mlp_gradient_residual,
        checks.recurrent_gradient_residual,
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
