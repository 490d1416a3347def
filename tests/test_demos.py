"""The demos run end to end against the current API."""

import csv
import pathlib
import re
import runpy
import shutil

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["special_functions_tour.py", "closed_form_audit.py", "long_time_laws.py"])
def test_print_only_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out


def _run_copy(name, tmp_path):
    """Run a copy of a demo in tmp_path, where it writes its CSV files."""
    shutil.copy(DEMOS / name, tmp_path / name)
    runpy.run_path(str(tmp_path / name), run_name="__main__")


def _header_and_rows(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_ohmic_decay_curves_demo(tmp_path, capsys):
    _run_copy("ohmic_decay_curves.py", tmp_path)
    out = capsys.readouterr().out
    for label in ("quantum", "classical"):
        assert re.search(r"%s regime: DL below Exp on all \d+ mid-decay points: True" % label, out)
        for cutoff in ("abrupt", "drude", "exp"):
            header, rows = _header_and_rows(tmp_path / ("decay_%s_%s.csv" % (label, cutoff)))
            assert header == ["t", "magnitude", "phase"]
            assert len(rows) == 250


def test_sub_super_ohmic_demo(tmp_path, capsys):
    _run_copy("sub_super_ohmic.py", tmp_path)
    out = capsys.readouterr().out
    # one line per (regime, cutoff), each printing |rho| for s = 1/2, 1, 3/2
    lines = re.findall(r"\|rho\| = (\S+) \(s=1/2\) > (\S+) \(s=1\) > (\S+) \(s=3/2\)", out)
    assert len(lines) == 6
    for m12, m1, m32 in lines:
        assert float(m12) > float(m1) > float(m32)
    for label in ("quantum", "classical"):
        for cutoff in ("abrupt", "drude", "exp"):
            for s10 in (5, 10, 15):
                header, rows = _header_and_rows(tmp_path / ("decay_%s_%s_s%02d.csv" % (label, cutoff, s10)))
                assert header == ["t", "magnitude"]
                assert len(rows) == 200


def test_spectral_densities_demo(tmp_path, capsys):
    _run_copy("spectral_densities.py", tmp_path)
    out = capsys.readouterr().out
    assert "agree to better than 0.2%" in out
    for name in ("spectra_lam1e3.csv", "spectra_lam1e6.csv"):
        header, rows = _header_and_rows(tmp_path / name)
        assert header == ["omega", "J_abrupt", "J_DL", "J_exp"]
        assert len(rows) == 300
    # the spread at Lam = 1e6 is the printed claim
    spread = float(re.search(r"Lam = 1e\+06: .* below w = 1e3: (\S+)", out).group(1))
    assert spread < 2e-3
