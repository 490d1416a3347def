import json
import os

import numpy as np
import pytest

from qbmag import cli
from qbmag.cli import ConfigError, parse_config
from qbmag.validation import ValidationReport

CURVE_CFG = """
s=1
cutoff=abrupt
lam=1e3
omega0=10
omega_c=1
omega_th=0.01
regime=low
dx=1
dy=1
t_points=30
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_parse_config_basics():
    cfg = parse_config("s=1\ncutoff=exp\nlam=10\n# comment\n\nomega0=2\n")
    assert cfg == {"s": 1.0, "cutoff": "exp", "lam": 10.0, "omega0": 2.0}
    cfg = parse_config("omega_c=1\nomega_c=10\n")
    assert cfg["omega_c"] == [1.0, 10.0]
    with pytest.raises(ConfigError):
        parse_config("nonsense=1\n")
    with pytest.raises(ConfigError):
        parse_config("t_points=5\nt_points=9\n")  # not sweepable
    with pytest.raises(ConfigError):
        parse_config("lam=abc\n")


def test_curve_csv_format_and_determinism(tmp_path):
    cfg = write(tmp_path, "c.cfg", CURVE_CFG)
    out1 = str(tmp_path / "a.csv")
    out2 = str(tmp_path / "b.csv")
    assert cli.main(["curve", "--config", cfg, "--out", out1]) == 0
    assert cli.main(["curve", "--config", cfg, "--out", out2]) == 0
    b1, b2 = open(out1, "rb").read(), open(out2, "rb").read()
    assert b1 == b2
    lines = b1.decode().splitlines()
    assert lines[0] == cli.CURVE_HEADER
    assert len(lines) == 31
    # floats round-trip exactly through the standard parser
    row = lines[1].split(",")
    for cell in row[:7]:
        assert repr(float(cell)) == cell
    assert row[7] in ("quadrature", "closed")
    assert row[8] in set("0123")


def test_curve_gamma_zero_magnitudes(tmp_path):
    cfg = write(tmp_path, "g0.cfg", CURVE_CFG + "gamma=0\n")
    out = str(tmp_path / "g0.csv")
    assert cli.main(["curve", "--config", cfg, "--out", out]) == 0
    rows = [line.split(",") for line in open(out).read().splitlines()[1:]]
    assert all(float(r[1]) == 1.0 for r in rows)


def test_curve_missing_key_exit_2(tmp_path):
    cfg = write(tmp_path, "bad.cfg", "lam=10\n")
    assert cli.main(["curve", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    assert cli.main(["curve", "--config", str(tmp_path / "absent.cfg"), "--out", "x"]) == 2


def test_spectra_columns_and_convergence(tmp_path):
    cfg = write(tmp_path, "s.cfg", "lam=1e6\nomega_min=1\nomega_max=1e3\nomega_points=50\n")
    out = str(tmp_path / "s.csv")
    assert cli.main(["spectra", "--config", cfg, "--out", out]) == 0
    lines = open(out).read().splitlines()
    assert lines[0] == cli.SPECTRA_HEADER
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    j = data[:, 1:]
    spread = (j.max(axis=1) - j.min(axis=1)) / j.min(axis=1)
    assert np.max(spread) < 0.002  # converged cutoffs at Lam = 1e6
    # beyond the cutoff only the abrupt model vanishes
    cfg2 = write(tmp_path, "s2.cfg", "lam=1e3\nomega_min=2e3\nomega_max=5e3\nomega_points=5\n")
    out2 = str(tmp_path / "s2.csv")
    assert cli.main(["spectra", "--config", cfg2, "--out", out2]) == 0
    data2 = np.array([[float(x) for x in line.split(",")] for line in open(out2).read().splitlines()[1:]])
    assert np.all(data2[:, 1] == 0.0)
    assert np.all(data2[:, 2] > 0) and np.all(data2[:, 3] > 0)


def test_spectra_powerlaw_slopes(tmp_path):
    for s, expect in ((0.5, 0.5), (1.0, 1.0), (1.5, 1.5)):
        cfg = write(
            tmp_path,
            "p%s.cfg" % s,
            "lam=1e3\ns=%g\nomega_min=0.01\nomega_max=1\nomega_points=40\n" % s,
        )
        out = str(tmp_path / ("p%s.csv" % s))
        assert cli.main(["spectra", "--config", cfg, "--out", out]) == 0
        data = np.array([[float(x) for x in line.split(",")] for line in open(out).read().splitlines()[1:]])
        slope = np.polyfit(np.log(data[:, 0]), np.log(data[:, 3]), 1)[0]
        assert abs(slope - expect) < 0.01


def test_sweep_manifest_and_files(tmp_path):
    cfg = write(
        tmp_path,
        "sw.cfg",
        "s=0.5\ns=1\ns=1.5\ncutoff=abrupt\ncutoff=drude\ncutoff=exp\n"
        "lam=1e3\nomega0=10\nomega_c=1\nomega_th=0.01\nregime=low\nt_points=12\n",
    )
    out = str(tmp_path / "sweepdir")
    assert cli.main(["sweep", "--config", cfg, "--out", out]) == 0
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert sorted(manifest["axes"]) == ["cutoff", "s"]
    assert len(manifest["points"]) == 9
    assert all(p["status"] == "ok" for p in manifest["points"])
    files = {p["file"] for p in manifest["points"]}
    assert len(files) == 9
    for f in files:
        assert os.path.exists(os.path.join(out, f))


def test_sweep_empty_axes_single_point(tmp_path):
    cfg = write(tmp_path, "one.cfg", CURVE_CFG)
    out = str(tmp_path / "one")
    assert cli.main(["sweep", "--config", cfg, "--out", out]) == 0
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert manifest["axes"] == []
    assert len(manifest["points"]) == 1


def test_sweep_cap(tmp_path):
    lines = "".join("omega_c=%d\n" % k for k in range(30))
    cfg = write(tmp_path, "cap.cfg", CURVE_CFG + lines + "sweep_cap=10\n")
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "d")]) == 2


def test_validate_fast_report_roundtrip(tmp_path):
    out = str(tmp_path / "report.json")
    code = cli.main(["validate", "--level", "fast", "--out", out])
    assert code == 0  # fast level passes on a fresh build
    text = open(out).read()
    rep = ValidationReport.from_json(text)
    assert rep.to_json() + "\n" == text
    assert {c.name for c in rep.checks} >= {"specfun-si-ci", "dynamics-mode-identities", "criterion-1"}
    assert all(c.status == "pass" for c in rep.checks)


def test_validate_full_exit_reflects_criterion_2(tmp_path):
    # exit 0 iff all checks pass; the full level contains the criterion-2
    # pi-factor finding, which is reported as a failure by design
    out = str(tmp_path / "full.json")
    code = cli.main(["validate", "--level", "full", "--out", out])
    assert code == 1
    rep = ValidationReport.from_json(open(out).read())
    assert rep.acceptance_complete()
    failing = [c.name for c in rep.checks if c.status != "pass"]
    assert failing == ["criterion-2"]


def test_curve_nonfinite_parameter_exit_2(tmp_path, capsys):
    cfg = write(tmp_path, "nan.cfg", CURVE_CFG.replace("omega0=10", "omega0=nan"))
    assert cli.main(["curve", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    assert "omega0 must be finite" in capsys.readouterr().err


def test_curve_exact_regime(tmp_path):
    text = "s=1\ncutoff=exp\nlam=50\nomega0=5\nomega_c=2\nomega_th=17\nregime=exact\ndx=1\ndy=0.8\nt_points=40\n"
    cfg = write(tmp_path, "exact.cfg", text)
    out = str(tmp_path / "exact.csv")
    assert cli.main(["curve", "--config", cfg, "--out", out]) == 0
    lines = open(out).read().splitlines()
    assert lines[0] == cli.CURVE_HEADER
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 40
    mags = np.array([float(r[1]) for r in rows])
    assert np.all(np.isfinite(mags) & (mags > 0.0) & (mags <= 1.0))
    assert {r[7] for r in rows} == {"quadrature"} and {r[8] for r in rows} == {"0"}
