"""The print-only demos run end to end against the current API."""

import pathlib
import runpy

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


# the other demos write CSV files next to themselves, so they stay out
@pytest.mark.parametrize("name", ["special_functions_tour.py", "closed_form_audit.py", "long_time_laws.py"])
def test_print_only_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
