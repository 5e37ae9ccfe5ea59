"""Every demo's main() runs at its defaults, so a library name that a demo
imports or calls cannot be removed or renamed without failing the suite."""

import importlib.util
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert {d.stem for d in DEMOS} >= {"cycle_robustness", "poisson_solve",
                                       "smoother_tour"}


@pytest.mark.parametrize("path", DEMOS, ids=lambda d: d.stem)
def test_demo_main_runs(path, capsys):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.main()
    assert capsys.readouterr().out.strip()
