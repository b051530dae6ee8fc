"""The narrative demo scripts and the README's Python examples run to
completion in process."""

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


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


def test_readme_python_blocks_run_in_order(capsys):
    # Later blocks use the names earlier ones define, as a reader runs them.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
    assert len(blocks) >= 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert "bits per probing round" in capsys.readouterr().out
