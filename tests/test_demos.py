"""Every script in ``demos/`` runs to completion against the current API."""

import os
import runpy

import pytest

DEMOS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "demos")


@pytest.mark.parametrize("name", sorted(n for n in os.listdir(DEMOS)
                                        if n.endswith(".py")))
def test_demo_runs(name, capsys):
    runpy.run_path(os.path.join(DEMOS, name), run_name="__main__")
    assert capsys.readouterr().out
