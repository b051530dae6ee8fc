"""The narrative demo scripts run to completion in process."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_shared_beam_residual_is_the_path_power(capsys):
    # Demo 02 forces a shared beam carrying half of user 1's power: the
    # residual is that power, not its square (a dense covariance passed as
    # the factor would print 0.250).
    runpy.run_path(str(DEMOS[1]), run_name="__main__")
    assert "instead: residual = 0.500" in capsys.readouterr().out
