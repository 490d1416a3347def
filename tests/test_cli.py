import json
import os
from pathlib import Path

import numpy as np
import pytest

from qbmag import cli, decoherence
from qbmag.bath import Cutoff, SpectralDensity, spectral_density
from qbmag.cli import ConfigError, parse_config
from qbmag.errors import ConvergenceError
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
    b1, b2 = Path(out1).read_bytes(), Path(out2).read_bytes()
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
    rows = [line.split(",") for line in Path(out).read_text().splitlines()[1:]]
    assert all(float(r[1]) == 1.0 for r in rows)


def test_curve_missing_key_exit_2(tmp_path):
    cfg = write(tmp_path, "bad.cfg", "lam=10\n")
    assert cli.main(["curve", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    assert cli.main(["curve", "--config", str(tmp_path / "absent.cfg"), "--out", "x"]) == 2


def test_spectra_columns_and_convergence(tmp_path):
    cfg = write(tmp_path, "s.cfg", "lam=1e6\nomega_min=1\nomega_max=1e3\nomega_points=50\n")
    out = str(tmp_path / "s.csv")
    assert cli.main(["spectra", "--config", cfg, "--out", out]) == 0
    lines = Path(out).read_text().splitlines()
    assert lines[0] == cli.SPECTRA_HEADER
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    j = data[:, 1:]
    spread = (j.max(axis=1) - j.min(axis=1)) / j.min(axis=1)
    assert np.max(spread) < 0.002  # converged cutoffs at Lam = 1e6
    # beyond the cutoff only the abrupt model vanishes
    cfg2 = write(tmp_path, "s2.cfg", "lam=1e3\nomega_min=2e3\nomega_max=5e3\nomega_points=5\n")
    out2 = str(tmp_path / "s2.csv")
    assert cli.main(["spectra", "--config", cfg2, "--out", out2]) == 0
    data2 = np.array([[float(x) for x in line.split(",")] for line in Path(out2).read_text().splitlines()[1:]])
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
        data = np.array([[float(x) for x in line.split(",")] for line in Path(out).read_text().splitlines()[1:]])
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
    manifest = json.loads(Path(out, "manifest.json").read_text())
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
    manifest = json.loads(Path(out, "manifest.json").read_text())
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
    text = Path(out).read_text()
    rep = ValidationReport.from_json(text)
    assert rep.to_json() + "\n" == text
    assert {c.name for c in rep.checks} >= {"specfun-si-ci", "dynamics-mode-identities", "criterion-1"}
    assert all(c.status == "pass" for c in rep.checks)


def test_validate_full_exit_reflects_criterion_2(full_validation):
    # exit 0 iff all checks pass; the full level contains the criterion-2
    # pi-factor finding, which is reported as a failure by design
    assert full_validation.exit_code == 1
    rep = full_validation.report
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
    lines = Path(out).read_text().splitlines()
    assert lines[0] == cli.CURVE_HEADER
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 40
    mags = np.array([float(r[1]) for r in rows])
    assert np.all(np.isfinite(mags) & (mags > 0.0) & (mags <= 1.0))
    assert {r[7] for r in rows} == {"quadrature"} and {r[8] for r in rows} == {"0"}


def _repr_cell(x):
    return repr(float(x))


def _reference_curve_csv(series):
    # one repr(float(.)) per cell, the format the writer must reproduce
    lines = [cli.CURVE_HEADER]
    for i in range(len(series.times)):
        cells = [series.times[i], series.magnitude[i], series.phase[i]]
        cells += [series.lambda1[i].real, series.lambda1[i].imag]
        cells += [series.lambda2[i].real, series.lambda2[i].imag]
        tail = [series.method[i], str(int(series.err_flag[i]))]
        lines.append(",".join([_repr_cell(c) for c in cells] + tail))
    return "\n".join(lines) + "\n"


def test_curve_csv_matches_per_cell_repr():
    nan = float("nan")
    series = decoherence.CurveSeries(
        times=np.array([0.0, 1e-3, 0.1 + 0.2, 700.0]),
        magnitude=np.array([1.0, 0.5, nan, decoherence.UNDERFLOW_CLAMP]),
        phase=np.array([-0.0, 1.0 / 3.0, nan, -2.5e-17]),
        lambda1=np.array([0j, complex(5e-324, -0.0), complex(nan, nan), complex(1e300, 1.0)]),
        lambda2=np.array([complex(-0.0, 0.0), complex(-1e-12, 7.0), complex(nan, 0.0), 2.0 - 3.5j]),
        method=("quadrature", "closed", "quadrature", "quadrature"),
        err_flag=np.array(
            [decoherence.FLAG_OK, decoherence.FLAG_FALLBACK, decoherence.FLAG_ERROR, decoherence.FLAG_CLAMPED]
        ),
        est_error=np.zeros(4),
    )
    text = cli._curve_csv(series)
    assert text == _reference_curve_csv(series)
    assert text.splitlines()[1] == "0.0,1.0,-0.0,0.0,0.0,-0.0,0.0,quadrature,0"
    assert text.splitlines()[3].startswith("0.30000000000000004,nan,nan,nan,nan,nan,0.0,")
    assert text.splitlines()[4].split(",")[1] == "1e-300"


def test_curve_and_spectra_files_match_per_cell_repr(tmp_path):
    cfg = parse_config(CURVE_CFG)
    out = str(tmp_path / "c.csv")
    assert cli.run_curve(cfg, out) == 0
    sys_params, sd, regime, sep, grid, method = cli._build_objects(cli._scalar_config(cfg))
    series = decoherence.curve(sys_params, sd, regime, sep, grid, method)
    assert Path(out).read_text() == _reference_curve_csv(series)

    out = str(tmp_path / "s.csv")
    assert cli.run_spectra(parse_config("lam=3\ns=1.5\nomega_min=0.5\nomega_points=9\n"), out) == 0
    omega = np.logspace(np.log10(0.5), np.log10(15.0), 9)
    cols = [spectral_density(SpectralDensity(1.5, c, 3.0), omega) for c in Cutoff]
    want = [cli.SPECTRA_HEADER] + [
        ",".join(_repr_cell(v) for v in (w, a, b, c)) for w, a, b, c in zip(omega, *cols)
    ]
    assert Path(out).read_text() == "\n".join(want) + "\n"


def test_sweep_records_each_point_failure(tmp_path, monkeypatch):
    real_curve = cli.curve

    def curve(sys_params, sd, *args):
        if sd.cutoff is Cutoff.DRUDE_LORENTZ:
            raise ConvergenceError("kernel quadrature did not converge")
        return real_curve(sys_params, sd, *args)

    monkeypatch.setattr(cli, "curve", curve)
    cfg = parse_config(CURVE_CFG.replace("t_points=30", "t_points=8") + "cutoff=drude\ns=-1\n")
    out = str(tmp_path / "sweep")
    assert cli.run_sweep(cfg, out, workers=1) == 3
    status = {
        (p["params"]["s"], p["params"]["cutoff"]): p["status"]
        for p in json.loads(Path(out, "manifest.json").read_text())["points"]
    }
    assert status[(1.0, "abrupt")] == "ok"
    assert status[(1.0, "drude")] == "error: kernel quadrature did not converge"
    assert status[(-1.0, "abrupt")].startswith("config-error: ")
    assert status[(-1.0, "drude")].startswith("config-error: ")


def test_sweep_lets_a_non_qbmag_exception_through(tmp_path, monkeypatch):
    # only the documented error types are recorded per point; anything else
    # is a defect and must not be filed as a numerical error
    def curve(*args):
        raise ZeroDivisionError("defect")

    monkeypatch.setattr(cli, "curve", curve)
    with pytest.raises(ZeroDivisionError):
        cli.run_sweep(parse_config(CURVE_CFG), str(tmp_path / "sweep"), workers=1)


@pytest.mark.parametrize(
    "text, match",
    [
        (CURVE_CFG + "lam 10\n", "expected key=value"),
        (CURVE_CFG.replace("t_points=30", "t_points=2.5"), "must be an integer"),
        (CURVE_CFG + "omega_c=2\n", "only the sweep subcommand sweeps"),
        (CURVE_CFG.replace("lam=1e3\n", ""), "missing required key 'lam'"),
        (CURVE_CFG.replace("cutoff=abrupt", "cutoff=gauss"), "gauss"),
        (CURVE_CFG.replace("regime=low", "regime=warm"), "warm"),
        (CURVE_CFG + "t_min=0.5\nt_max=0.1\n", "t_min < t_max"),
        (CURVE_CFG + "t_min=0\n", "log grid needs t_min > 0"),
        (CURVE_CFG + "grid=cubic\n", "grid must be"),
        (CURVE_CFG + "method=exactly\n", "method must be"),
    ],
)
def test_curve_config_errors_exit_2(tmp_path, capsys, text, match):
    cfg = write(tmp_path, "bad.cfg", text)
    assert cli.main(["curve", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and match in err


def test_curve_numerical_error_exit_3(tmp_path, capsys, monkeypatch):
    def curve(*args):
        raise ConvergenceError("tail did not stabilise")

    monkeypatch.setattr(cli, "curve", curve)
    cfg = write(tmp_path, "c.cfg", CURVE_CFG)
    assert cli.main(["curve", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 3
    assert "numerical error: tail did not stabilise" in capsys.readouterr().err


def test_linear_grids(tmp_path):
    cfg = write(tmp_path, "lin.cfg", CURVE_CFG + "grid=linear\nt_min=0\nt_max=0.02\n")
    out = str(tmp_path / "lin.csv")
    assert cli.main(["curve", "--config", cfg, "--out", out]) == 0
    rows = [line.split(",") for line in Path(out).read_text().splitlines()[1:]]
    assert [float(r[0]) for r in rows] == np.linspace(0.0, 0.02, 30).tolist()
    assert float(rows[0][1]) == 1.0 and {r[8] for r in rows} == {"0"}

    cfg = write(tmp_path, "lin_s.cfg", "lam=3\nomega_grid=linear\nomega_min=0.5\nomega_max=6\nomega_points=12\n")
    out = str(tmp_path / "lin_s.csv")
    assert cli.main(["spectra", "--config", cfg, "--out", out]) == 0
    omega = [float(line.split(",")[0]) for line in Path(out).read_text().splitlines()[1:]]
    assert omega == np.linspace(0.5, 6.0, 12).tolist()
