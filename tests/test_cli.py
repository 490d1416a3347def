import collections
import json
import os
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

from qbmag import cli, decoherence, dynamics
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


# t_max one ulp above t_min
COLLAPSED_CFG = CURVE_CFG.replace("t_points=30", "t_min=1\nt_max=1.0000000000000002\nt_points=5")
COLLAPSED_GOT = "t_min = 1.0, t_max = 1.0000000000000002, t_points = 5"

DRUDE_CFG = CURVE_CFG.replace("s=1\ncutoff=abrupt", "s=%g\ncutoff=drude").replace("regime=low", "regime=%s")


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


def _row_format_csv(header, row_format, columns):
    # the writer's earlier form: one %-format per row over Python values
    columns = [np.asarray(c).tolist() if isinstance(c, np.ndarray) else list(c) for c in columns]
    return "\n".join([header] + [row_format % row for row in zip(*columns)]) + "\n"


def test_csv_columns_match_the_row_format():
    # each float column takes one repr per cell and each row one join; the
    # bytes are those of "%r,...,%s,%d" % row, on cells where repr changes
    # notation (1e16, 1e-5), signed zeros, nan, inf, the smallest subnormal
    # and the 1e-300 clamp
    edge = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, decoherence.UNDERFLOW_CLAMP, 1e16, 9999999999999998.0,
            1e-5, 1.0000000000000002e-5, 9.999999999999999e-05, 0.1 + 0.2, -1e300, 1.7976931348623157e308]
    rng = np.random.default_rng(12)
    cols = [np.array(edge)[rng.permutation(len(edge))] for _ in range(7)]
    lambdas = np.empty((2, len(edge)), dtype=complex)  # no inf * 1j, which is nan
    lambdas.real, lambdas.imag = cols[3::2], cols[4::2]
    series = decoherence.CurveSeries(
        times=cols[0],
        magnitude=cols[1],
        phase=cols[2],
        lambda1=lambdas[0],
        lambda2=lambdas[1],
        method=tuple(["quadrature", "closed"][i % 3 == 1] for i in range(len(edge))),
        err_flag=np.arange(len(edge)) % 4,
        est_error=np.zeros(len(edge)),
    )
    want = _row_format_csv(cli.CURVE_HEADER, "%r,%r,%r,%r,%r,%r,%r,%s,%d", [*cols, series.method, series.err_flag])
    text = cli._curve_csv(series)
    assert text == want and text == _reference_curve_csv(series)
    cells = [line.split(",") for line in text.splitlines()[1:]]
    assert {row[8] for row in cells} == {"0", "1", "2", "3"} and {row[7] for row in cells} == {"quadrature", "closed"}
    times = {row[0] for row in cells}
    assert {"-0.0", "nan", "inf", "-inf", "5e-324", "1e-300", "1e+16", "1e-05", "9.999999999999999e-05"} <= times

    out = cli._csv(cli.SPECTRA_HEADER, [cli._reprs(c) for c in cols[:4]])
    assert out == _row_format_csv(cli.SPECTRA_HEADER, "%r,%r,%r,%r", cols[:4])


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
    # a sweep computes each pass of points with one decoherence._curves_many call
    real_curves = cli._curves_many

    def curves(sys_params, baths, *args):
        if any(sd.cutoff is Cutoff.DRUDE_LORENTZ for sd, _, _ in baths):
            raise ConvergenceError("kernel quadrature did not converge")
        return real_curves(sys_params, baths, *args)

    monkeypatch.setattr(cli, "_curves_many", curves)
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


def test_sweep_keeps_a_kernel_error_to_its_own_points(tmp_path, monkeypatch):
    # s = 0.5 and 1.5 share a pass; when it raises, each kernel runs alone,
    # so only the kernel that raised reports the error
    real_curves = cli._curves_many
    calls = []

    def curves(sys_params, baths, *args):
        calls.append([sd.s for sd, _, _ in baths])
        if any(sd.s == 1.5 for sd, _, _ in baths):
            raise ConvergenceError("kernel quadrature did not converge")
        return real_curves(sys_params, baths, *args)

    monkeypatch.setattr(cli, "_curves_many", curves)
    cfg = parse_config(DRUDE_CFG.replace("t_points=30", "t_points=8") % (0.5, "low") + "s=1.5\ndx=0.4\n")
    out = tmp_path / "sweep"
    assert cli.run_sweep(cfg, str(out), workers=1) == 3
    assert calls == [[0.5, 1.5], [0.5], [1.5]]
    points = json.loads(Path(out, "manifest.json").read_text())["points"]
    status = {(p["params"]["s"], p["params"]["dx"]): p["status"] for p in points}
    assert status == {
        (0.5, 1.0): "ok",
        (0.5, 0.4): "ok",
        (1.5, 1.0): "error: kernel quadrature did not converge",
        (1.5, 0.4): "error: kernel quadrature did not converge",
    }
    # run_curve does not go through cli._curves_many
    _per_point_sweep(cfg, str(tmp_path / "want"))
    want = _tree(tmp_path / "want")
    for p in points[:2]:
        assert Path(out, p["file"]).read_bytes() == want[p["file"]]


def test_sweep_reports_a_non_integrable_point_as_config_error(tmp_path):
    cfg = parse_config(DRUDE_CFG.replace("t_points=30", "t_points=8") % (1.5, "low") + "s=2.5\n")
    out = str(tmp_path / "sweep")
    assert cli.run_sweep(cfg, out, workers=1) == 3
    status = {p["params"]["s"]: p["status"] for p in json.loads(Path(out, "manifest.json").read_text())["points"]}
    assert status[1.5] == "ok"
    assert status[2.5].startswith("config-error: ") and "not integrable" in status[2.5]


def test_sweep_lets_a_non_qbmag_exception_through(tmp_path, monkeypatch):
    # only the documented error types are recorded per point; anything else
    # is a defect and must not be filed as a numerical error
    def curves(*args):
        raise ZeroDivisionError("defect")

    monkeypatch.setattr(cli, "_curves_many", curves)
    with pytest.raises(ZeroDivisionError):
        cli.run_sweep(parse_config(CURVE_CFG), str(tmp_path / "sweep"), workers=1)


# the bench sweep's shape: 36 short curves in 18 groups that differ only in dx
BENCH_SWEEP_CFG = """
s=0.5
s=1
s=1.5
cutoff=abrupt
cutoff=drude
cutoff=exp
regime=high
regime=low
lam=1200
omega0=8
omega_c=3
omega_th=20
dx=0.7
dx=1.3
dy=0.9
t_min=8.333333333333334e-07
t_max=0.016666666666666666
t_points=24
"""

# dx and dy axes over two cutoffs at method=closed: the Drude-Lorentz closed
# forms overflow past Lam t = 700, so its later rows fall back (err_flag 2)
# and some of its curves fail (err_flag 3); dx=nan makes per-point config
# errors inside otherwise valid groups.  The two omega_th share a pass; the
# cutoffs do not
MIXED_SWEEP_CFG = """
cutoff=drude
cutoff=exp
regime=high
method=closed
s=1
lam=200
omega0=10
omega_c=1
omega_th=37
omega_th=13
dx=0.8
dx=nan
dx=0
dy=1.1
dy=-0.0
dy=0
t_max=5
t_points=40
"""


def _per_point_sweep(cfg, out_dir):
    """Files and manifest as written one run_curve per point."""
    merged = dict(cli._DEFAULTS)
    merged.update(cfg)
    merged.pop("sweep_cap")
    names, points = cli._sweep_points(merged)
    os.makedirs(out_dir)
    entries = []
    for i, point in enumerate(points):
        fname = "point_%04d.csv" % i
        try:
            status = "ok" if cli.run_curve(point, os.path.join(out_dir, fname)) == 0 else "numerical-error"
        except ConfigError as exc:
            status = "config-error: %s" % exc
        params = {k: point[k] for k in sorted(point) if k in cli._SWEEPABLE or k in names}
        entries.append({"file": fname, "params": params, "status": status})
    manifest = json.dumps({"axes": names, "points": entries}, indent=2, sort_keys=True)
    Path(out_dir, "manifest.json").write_text(manifest + "\n")


def _tree(directory):
    return {name: Path(directory, name).read_bytes() for name in sorted(os.listdir(directory))}


@pytest.fixture
def count_passes(monkeypatch):
    """Separations per kernel of each cli._curves_many call, one call per
    moment pass."""
    passes = []
    real_curves = cli._curves_many

    def curves(sys_params, baths, *args):
        passes.append([len(seps) for _, _, seps in baths])
        return real_curves(sys_params, baths, *args)

    monkeypatch.setattr(cli, "_curves_many", curves)
    return passes


@pytest.fixture
def count_pools(monkeypatch):
    made = []
    real = cli.ProcessPoolExecutor

    def pool(max_workers):
        made.append(max_workers)
        return real(max_workers=max_workers)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", pool)
    return made


@pytest.mark.parametrize("force_pool", [False, True], ids=["serial", "pool"])
def test_grouped_sweep_matches_per_point_curves(tmp_path, monkeypatch, count_pools, count_passes, force_pool):
    cfg = parse_config(MIXED_SWEEP_CFG)
    _per_point_sweep(cfg, str(tmp_path / "want"))
    want = _tree(tmp_path / "want")
    statuses = [p["status"] for p in json.loads(want["manifest.json"])["points"]]
    assert len(statuses) == 36 and statuses.count("ok") == 16 and statuses.count("numerical-error") == 8
    assert statuses.count("config-error: dx must be finite, got nan") == 12
    flags = {line.rsplit(",", 1)[1] for name, text in want.items() if name.endswith(".csv")
             for line in text.decode().splitlines()[1:]}
    assert "2" in flags
    if force_pool:
        monkeypatch.setattr(cli, "_POOL_BREAK_EVEN_S", 0.0)
    assert cli.run_sweep(cfg, str(tmp_path / "got"), workers=2 if force_pool else 1) == 3
    assert _tree(tmp_path / "got") == want
    assert count_pools == ([2] if force_pool else [])
    # one pass per cutoff over its two omega_th kernels of six finite
    # separations each; on the pool path only the first pass runs in this
    # process, and the two kernels left go to the two workers one each
    assert count_passes == ([[6, 6]] if force_pool else [[6, 6]] * 2)


def test_bench_sized_sweep_runs_in_process(tmp_path, monkeypatch, count_passes):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started for a small sweep")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
    cfg = parse_config(BENCH_SWEEP_CFG)
    assert cli.run_sweep(cfg, str(tmp_path / "sweep"), workers=2) == 0
    points = json.loads(Path(tmp_path, "sweep", "manifest.json").read_text())["points"]
    assert len(points) == 36 and all(p["status"] == "ok" for p in points)
    # one moment pass per cutoff: its six (s, regime) kernels share a layout
    assert count_passes == [[2] * 6] * 3


# the bench sweep at seed 7: s x cutoff x regime x dx, 36 points in 18
# kernels and 3 panel layouts
BENCH7_SWEEP_CFG = """
s=0.5
s=1
s=1.5
cutoff=abrupt
cutoff=drude
cutoff=exp
regime=high
regime=low
lam=1630.8668016070894
omega_th=73.4974162306718
omega0=15.962342424413483
omega_c=2.639468304910623
dx=0.5052653045655747
dx=1.3212284183827663
dy=1.373553445396262
t_min=6.131708604372715e-07
t_max=0.012263417208745431
t_points=24
"""

# gamma x omega_th in the low regime, which reads neither in its layout;
# gamma = 0 takes no pass, and the abrupt grid runs past Lam t = 36.  Each
# cutoff's 12 kernels take two passes of 6 (``cli._PASS_KERNELS``)
LOW_GAMMA_SWEEP_CFG = """
s=0.5
s=1.5
cutoff=abrupt
cutoff=drude
gamma=0
gamma=0.4
gamma=1.3
omega_th=0
omega_th=5
regime=low
lam=300
omega0=8
omega_c=3
dx=0.7
dy=0.9
t_max=0.3
t_points=16
"""

# the exact regime shares the exp layout with the high regime
EXACT_SWEEP_CFG = """
cutoff=exp
cutoff=abrupt
regime=high
regime=exact
omega_th=5
omega_th=17
s=1
lam=50
omega0=10
omega_c=1
dx=0.8
t_max=0.2
t_points=8
"""

# the Ohmic Drude-Lorentz pole sum falls back past Lam t = 700; its
# quadrature pass shares the layout of the s = 0.5 kernels
CLOSED_SWEEP_CFG = """
s=0.5
s=1
cutoff=drude
regime=high
regime=low
omega_th=13
omega_th=37
method=closed
lam=200
omega0=10
omega_c=1
dx=1.1
t_max=5
t_points=30
"""


# kernels that differ only in a signed zero: the low regime reads omega_th
# nowhere, yet 0 and -0.0 build two regimes, so the four kernels stay apart
# in their one pass
SIGNED_ZERO_SWEEP_CFG = """
s=0.5
s=1.5
cutoff=abrupt
regime=low
omega_th=0
omega_th=-0.0
lam=50
omega0=10
omega_c=1
dx=0.7
t_points=12
"""


@pytest.mark.parametrize(
    "text, passes",
    [
        (BENCH7_SWEEP_CFG, [[2] * 6] * 3),
        (LOW_GAMMA_SWEEP_CFG, [[1] * 6] * 4),
        (EXACT_SWEEP_CFG, [[1] * 4, [1] * 2, [1] * 2]),
        (CLOSED_SWEEP_CFG, [[1] * 8]),
        (SIGNED_ZERO_SWEEP_CFG, [[1] * 4]),
    ],
    ids=["s-cutoff-regime-dx", "gamma-omega_th-low", "exact", "closed-fallback", "signed-zero-omega_th-low"],
)
def test_sweep_points_are_their_curves(tmp_path, count_passes, text, passes):
    # every point file is run_curve's on that point's config, byte for
    # byte, whichever kernels shared its pass
    cfg = parse_config(text)
    _per_point_sweep(cfg, str(tmp_path / "want"))
    want = _tree(tmp_path / "want")
    statuses = {p["status"] for p in json.loads(want["manifest.json"])["points"]}
    assert cli.run_sweep(cfg, str(tmp_path / "got"), workers=1) == (0 if statuses == {"ok"} else 3)
    assert _tree(tmp_path / "got") == want
    assert count_passes == passes
    flags = {line.rsplit(",", 1)[1] for name, data in want.items() if name.endswith(".csv")
             for line in data.decode().splitlines()[1:]}
    # the pole sum's rows past its window fall back (and some overflow,
    # ROADMAP item 5); every other point is ok
    assert statuses == ({"ok", "numerical-error"} if "closed" in text else {"ok"})
    assert ("2" in flags) == ("closed" in text)


def test_sweep_passes_share_edges_and_weights(tmp_path, monkeypatch):
    # the bench sweep at seed 7 lays out its panels and evaluates F1, F2
    # once per layout (3) instead of once per kernel (18), with the same
    # kernel calls, one per kernel; each kernel's plan is built for its
    # pass key and for its pass
    calls = collections.Counter()

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    factory = decoherence._reference_kernel_fn
    monkeypatch.setattr(decoherence, "_kernel_for", counted("plan", decoherence._kernel_for))
    monkeypatch.setattr(dynamics, "_panel_edges", counted("edges", dynamics._panel_edges))
    monkeypatch.setattr(dynamics, "f_weight", counted("f_weight", dynamics.f_weight))
    monkeypatch.setattr(decoherence, "_reference_kernel_fn", lambda *a: counted("kernel", factory(*a)))
    cfg = parse_config(BENCH7_SWEEP_CFG)
    assert cli.run_sweep(cfg, str(tmp_path / "shared"), workers=1) == 0
    shared = dict(calls)
    calls.clear()
    # one pass per kernel, as each kernel's own curve takes it
    monkeypatch.setattr(cli, "_pass_key", lambda *bath: object())
    assert cli.run_sweep(cfg, str(tmp_path / "alone"), workers=1) == 0
    assert shared == {"plan": 36, "edges": 3, "f_weight": 6, "kernel": 18}
    assert dict(calls) == {"plan": 18, "edges": 18, "f_weight": 36, "kernel": 18}
    assert _tree(tmp_path / "shared") == _tree(tmp_path / "alone")


def test_sweep_pool_writes_the_in_process_bytes(tmp_path, monkeypatch, count_pools, count_passes):
    # workers get the built points of each pass and build its plans
    # themselves; the first pass runs here and the other two in the pool
    cfg = write(tmp_path, "bench.cfg", BENCH7_SWEEP_CFG)
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "serial"), "--workers", "1"]) == 0
    monkeypatch.setattr(cli, "_POOL_BREAK_EVEN_S", 0.0)
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "pool"), "--workers", "2"]) == 0
    assert count_pools == [2] and count_passes == [[2] * 6] * 4
    assert _tree(tmp_path / "pool") == _tree(tmp_path / "serial")


# 12 kernels of one layout: s x gamma at one cutoff and regime
ONE_LAYOUT_SWEEP_CFG = """
s=0.5
s=1
s=1.5
gamma=0.2
gamma=0.5
gamma=0.9
gamma=1.3
cutoff=exp
regime=high
lam=50
omega0=10
omega_c=1
omega_th=17
dx=0.7
t_max=0.2
t_points=8
"""


def test_sweep_cuts_a_large_layout_into_bounded_passes(tmp_path, count_passes):
    # a pass holds at most _PASS_KERNELS kernels, so 12 kernels of one
    # layout take two passes of 6
    assert cli._PASS_KERNELS == 8
    cfg = parse_config(ONE_LAYOUT_SWEEP_CFG)
    _per_point_sweep(cfg, str(tmp_path / "want"))
    assert cli.run_sweep(cfg, str(tmp_path / "got"), workers=1) == 0
    assert _tree(tmp_path / "got") == _tree(tmp_path / "want")
    assert count_passes == [[1] * 6] * 2


def test_sweep_of_one_layout_runs_in_the_pool(tmp_path, monkeypatch, count_pools, count_passes):
    # the first pass runs here; its layout's 6 kernels left go to the two
    # workers in two chunks of 3, and the files are the in-process ones
    cfg = parse_config(ONE_LAYOUT_SWEEP_CFG)
    assert cli.run_sweep(cfg, str(tmp_path / "serial"), workers=1) == 0
    count_passes.clear()
    monkeypatch.setattr(cli, "_POOL_BREAK_EVEN_S", 0.0)
    assert cli.run_sweep(cfg, str(tmp_path / "pool"), workers=2) == 0
    assert count_pools == [2] and count_passes == [[1] * 6]
    assert _tree(tmp_path / "pool") == _tree(tmp_path / "serial")


def test_pool_chunks_give_every_worker_one():
    # chunks keep their layout and order; there are at least
    # min(workers, kernels) of them
    passes = [(i, "grid", "method", list(kernels)) for i, kernels in enumerate(["abcdefgh", "ij", "k"])]
    for workers in range(1, 14):
        chunks = cli._pool_chunks(passes, workers)
        assert [k for chunk in chunks for k in chunk[3]] == list("abcdefghijk")
        assert all(set(chunk[3]) <= set(passes[chunk[0]][3]) and chunk[:3] == passes[chunk[0]][:3] for chunk in chunks)
        assert len(chunks) >= min(workers, 11) and all(chunk[3] for chunk in chunks)


# 18 kernels of two separations: s x cutoff x omega0, cutoff in the order
# the config lists it; the three s of one (cutoff, omega0) share a panel
# layout, so the sweep takes 6 passes
PLANNER_SWEEP_CFG = """
s=0.5
s=1
s=1.5
cutoff=%s
cutoff=%s
omega0=5
omega0=7
omega0=9
dx=0.7
dx=1.3
regime=high
lam=50
omega_c=1
omega_th=17
t_max=0.2
t_points=8
"""

#: CPU seconds per kernel of an exact-regime sweep on these axes, in units of
#: the pool's break-even B = cli._POOL_BREAK_EVEN_S, so that every planner
#: scenario below keeps its decisions whatever B is.  Measured on a 2-vCPU
#: machine: 8-10 ms per abrupt kernel, about 39 ms per exp kernel, which is
#: 0.045 B and 0.195 B at B = 0.2 s
_GROUP_COST = {"abrupt": 0.045, "exp": 0.195}


def _planned_sweep(tmp_path, monkeypatch, cfg, cost):
    """(pool sizes, kernels of each chunk handed to the pool) of a 2-worker
    sweep whose kernels cost ``cost[cutoff]`` CPU seconds each on a fake
    clock, so the choice does not depend on this machine's speed; the files
    must equal a 1-worker sweep's."""
    assert cli.run_sweep(cfg, str(tmp_path / "serial"), workers=1) == 0
    clock = [0.0]
    real_group = cli._run_sweep_group

    def charged(record):
        # a pass costs what its kernels cost, each read off its bath
        out = real_group(record)
        clock[0] += sum(cost[sd.cutoff.value] for sd, _, _ in record[3])
        return out

    made, handed = [], []

    class SpyPool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, groups):
            groups = list(groups)
            handed.append([len(chunk[3]) for chunk in groups])
            return map(fn, groups)

    monkeypatch.setattr(cli, "time", types.SimpleNamespace(thread_time=lambda: clock[0]))
    monkeypatch.setattr(cli, "_run_sweep_group", charged)
    monkeypatch.setattr(cli, "ProcessPoolExecutor", SpyPool)
    assert cli.run_sweep(cfg, str(tmp_path / "planned"), workers=2) == 0
    assert _tree(tmp_path / "planned") == _tree(tmp_path / "serial")
    return made, handed


def _in_break_evens(cost):
    """``cost`` per cutoff in seconds, from its values in units of B."""
    return {cutoff: share * cli._POOL_BREAK_EVEN_S for cutoff, share in cost.items()}


@pytest.mark.parametrize("order, pooled", [(("abrupt", "exp"), [3, 3]), (("exp", "abrupt"), [3] * 5)])
def test_sweep_planner_rates_every_group_done(tmp_path, monkeypatch, order, pooled):
    # a pass of three abrupt kernels costs 0.135 B, one of three exp kernels
    # 0.585 B.  With the exp passes first, 15 kernels are left at 0.195 B
    # each, 2.9 B, and go to the pool, one pass a chunk.  With the abrupt
    # passes first the mean after 3 abrupt passes and 1 exp pass is 0.0825 B
    # a kernel, 0.495 B for the 6 kernels left; the last pass's 0.195 B a
    # kernel, 1.17 B, pays for the pool
    cfg = parse_config(PLANNER_SWEEP_CFG % order)
    assert _planned_sweep(tmp_path, monkeypatch, cfg, _in_break_evens(_GROUP_COST)) == ([2], [pooled])


def test_sweep_planner_keeps_a_cheap_sweep_in_process(tmp_path, monkeypatch):
    # at 0.005 B a kernel the 15 kernels left after the first pass never pay
    cfg = parse_config(PLANNER_SWEEP_CFG % ("exp", "abrupt"))
    cost = _in_break_evens({"exp": 0.005, "abrupt": 0.005})
    assert _planned_sweep(tmp_path, monkeypatch, cfg, cost) == ([], [])


def test_sweep_planner_keeps_work_below_the_break_even_in_process(tmp_path, monkeypatch):
    # 15 kernels left after the first pass at 1/60 s each: 0.25 s of rated
    # work, which two workers on two cores do not finish sooner (see the
    # measurements at cli._POOL_BREAK_EVEN_S)
    cfg = parse_config(PLANNER_SWEEP_CFG % ("exp", "abrupt"))
    assert _planned_sweep(tmp_path, monkeypatch, cfg, {"exp": 1.0 / 60.0, "abrupt": 1.0 / 60.0}) == ([], [])


def test_sweep_planner_keeps_a_last_group_in_process(tmp_path, monkeypatch):
    # one group left cannot run in parallel with anything
    cfg = parse_config(CURVE_CFG + "cutoff=exp\ndx=0.5\n")
    cost = _in_break_evens({"exp": 5.0, "abrupt": 5.0})
    assert _planned_sweep(tmp_path, monkeypatch, cfg, cost) == ([], [])


def _sweep_workers(tmp_path, monkeypatch, argv_extra=()):
    seen = []
    monkeypatch.setattr(cli, "run_sweep", lambda cfg, out, workers: seen.append(workers) or 0)
    cfg = write(tmp_path, "w.cfg", CURVE_CFG)
    code = cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "d")] + list(argv_extra))
    return code, seen


@pytest.mark.parametrize("value", ["0", "-4"])
def test_sweep_workers_flag_below_1_exit_2(tmp_path, monkeypatch, capsys, value):
    assert _sweep_workers(tmp_path, monkeypatch, ["--workers", value]) == (2, [])
    assert capsys.readouterr().err.startswith("config error: --workers must be at least 1")


def test_sweep_worker_count_defaults(tmp_path, monkeypatch):
    assert _sweep_workers(tmp_path, monkeypatch) == (0, [os.cpu_count() or 1])
    assert _sweep_workers(tmp_path, monkeypatch, ["--workers", "1"]) == (0, [1])


def test_sweep_workers_ignore_the_environment(tmp_path, monkeypatch):
    # --workers is the one setting of the pool's size
    monkeypatch.setenv("QBM_WORKERS", "3")
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert _sweep_workers(tmp_path, monkeypatch) == (0, [5])


@pytest.mark.parametrize(
    "text, match",
    [
        (CURVE_CFG + "lam 10\n", "expected key=value"),
        (CURVE_CFG.replace("t_points=30", "t_points=2.5"), "must be an integer"),
        (CURVE_CFG + "omega_c=2\n", "only the sweep subcommand sweeps"),
        (CURVE_CFG.replace("lam=1e3\n", ""), "missing required key 'lam'"),
        (CURVE_CFG.replace("cutoff=abrupt", "cutoff=gauss"), "gauss"),
        (CURVE_CFG.replace("regime=low", "regime=warm"), "warm"),
        # a thermal frequency 2 k_B T / hbar is never negative, in any regime
        (CURVE_CFG.replace("omega_th=0.01", "omega_th=-1"), "omega_th must be >= 0"),
        (CURVE_CFG + "t_min=0.5\nt_max=0.1\n", "t_min < t_max"),
        (CURVE_CFG + "t_min=0\n", "log grid needs t_min > 0"),
        (CURVE_CFG + "grid=cubic\n", "grid must be"),
        (CURVE_CFG + "method=exactly\n", "method must be"),
        # Drude-Lorentz kernels not integrable at tau = 0
        (DRUDE_CFG % (2.0, "low"), "not integrable"),
        (DRUDE_CFG % (2.5, "low"), "not integrable"),
        (DRUDE_CFG % (3.2, "high"), "not integrable"),
        # no curve depends on the mass, so it is not a key; nor on hbar but
        # through gamma / hbar, so qbmag works in units with hbar = 1
        (CURVE_CFG + "m=2\n", "unknown key 'm'"),
        (CURVE_CFG + "hbar=2\n", "unknown key 'hbar'"),
    ],
)
def test_curve_config_errors_exit_2(tmp_path, capsys, text, match):
    cfg = write(tmp_path, "bad.cfg", text)
    assert cli.main(["curve", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and match in err


@pytest.mark.parametrize(
    "command, text, match",
    [
        ("curve", CURVE_CFG + "t_max=inf\n", "t_min < t_max"),
        ("curve", CURVE_CFG + "t_min=nan\n", "t_min < t_max"),
        ("curve", CURVE_CFG + "method=closd\n", "method must be"),
        ("spectra", "lam=3\nomega_max=inf\n", "omega_min < omega_max"),
        ("spectra", "lam=3\nomega_min=0\n", "log grid needs omega_min > 0"),
        ("spectra", "lam=3\nomega_grid=cubic\n", "omega_grid must be"),
        ("spectra", "lam=3\nomega_min=4\nomega_max=2\n", "omega_min < omega_max"),
        ("spectra", "lam=-3\n", "cutoff frequency must be > 0"),
        # the default spans are empty: omega from 1 to 5 Lam for Lam <= 0.2,
        # t from 1e-3/Lam to min(1, 700/Lam) for Lam <= 1e-3
        ("spectra", "lam=0.1\n", "got omega_min = 1.0 (default), omega_max = 0.5 (default), omega_points = 400 (default)"),
        ("curve", CURVE_CFG.replace("lam=1e3", "lam=1e-4"), "got t_min = 10.0 (default), t_max = 1.0 (default), t_points = 30"),
        # five points on a span of one ulp repeat some, in either spacing
        ("curve", COLLAPSED_CFG, "the t grid repeats points; it must be strictly increasing, got " + COLLAPSED_GOT),
        ("curve", COLLAPSED_CFG + "grid=linear\n", "the t grid repeats points"),
        ("spectra", "lam=3\nomega_min=1\nomega_max=1.0000000000000002\nomega_points=5\n", "the omega grid repeats points"),
    ],
)
def test_invalid_grid_or_method_exit_2_without_warning(tmp_path, capsys, command, text, match):
    cfg = write(tmp_path, "bad.cfg", text)
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and match in err
    assert not out.exists()


def test_sweep_reports_a_collapsed_grid_as_config_error(tmp_path):
    out = tmp_path / "sweep"
    assert cli.run_sweep(parse_config(COLLAPSED_CFG + "s=0.5\n"), str(out), workers=1) == 3
    statuses = [p["status"] for p in json.loads(Path(out, "manifest.json").read_text())["points"]]
    assert statuses == ["config-error: the t grid repeats points; it must be strictly increasing, got " + COLLAPSED_GOT] * 2
    assert sorted(os.listdir(out)) == ["manifest.json"]


# a grid from 1e-300 to 1e308 needs more panels of at most pi / (Lam + A' + B')
# than an int64 counts
OVERFLOW_CFG = CURVE_CFG.replace("lam=1e3", "lam=50").replace("t_points=30", "t_min=1e-300\nt_max=1e308")


def test_curve_whose_panels_overflow_exits_3(tmp_path, capsys):
    cfg = write(tmp_path, "huge.cfg", OVERFLOW_CFG)
    out = tmp_path / "x.csv"
    assert cli.main(["curve", "--config", cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err == "numerical error: the time grid needs more panels than an int64 counts, up to inf\n"
    assert not out.exists()


def test_sweep_reports_panel_overflow_per_point(tmp_path):
    out = tmp_path / "sweep"
    assert cli.run_sweep(parse_config(OVERFLOW_CFG + "dx=2\n"), str(out), workers=1) == 3
    statuses = [p["status"] for p in json.loads(Path(out, "manifest.json").read_text())["points"]]
    assert statuses == ["error: the time grid needs more panels than an int64 counts, up to inf"] * 2


# a subnormal first time under a Drude-Lorentz kernel, whose floor 0 would
# ladder the grid interval [5e-324, t_2] by doublings from 5e-324
SUBNORMAL_CFG = CURVE_CFG.replace("cutoff=abrupt", "cutoff=drude").replace("lam=1e3", "lam=50").replace(
    "t_points=30", "t_min=5e-324\nt_max=1"
)


def test_curve_from_a_subnormal_time_exits_without_traceback(tmp_path, capsys):
    # the Drude-Lorentz ladder's powers would overflow: a numerical error,
    # exit 3, where maxlen / first overflowed and np.repeat raised (exit 1)
    cfg = write(tmp_path, "sub.cfg", SUBNORMAL_CFG)
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["curve", "--config", cfg, "--out", str(out)]) == 3
    err = "numerical error: the time grid starts too close to 0: a ladder of panels from 5e-324 climbs past the float range\n"
    assert capsys.readouterr().err == err
    assert not out.exists()
    # the abrupt and exponential kernels' floor 1/Lam takes no ladder there,
    # and they are finite at tau = 0, so each gives a curve
    for cutoff in ("abrupt", "exp"):
        cfg = write(tmp_path, "sub.cfg", SUBNORMAL_CFG.replace("cutoff=drude", "cutoff=" + cutoff))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["curve", "--config", cfg, "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 200 and rows[0].startswith("5e-324,") and ",nan," not in out.read_text()


# a first time whose head panels under a Drude-Lorentz kernel put a Gauss
# node at tau = 0, where nu diverges, though the ladder still fits
SUBNORMAL_HEAD_CFG = SUBNORMAL_CFG.replace("t_min=5e-324", "t_min=2e-309")


def test_curve_whose_head_node_rounds_to_0_exits_without_warning(tmp_path, capsys):
    # every row read NaN, with a RuntimeWarning, where the node met nu(0)
    cfg = write(tmp_path, "sub.cfg", SUBNORMAL_HEAD_CFG)
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["curve", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical error: the time grid starts too close to 0: ") and err.count("\n") == 1
        assert not out.exists()
        sweep = tmp_path / "sweep"
        assert cli.run_sweep(parse_config(SUBNORMAL_HEAD_CFG + "dx=2\n"), str(sweep), workers=1) == 3
    statuses = [p["status"] for p in json.loads(Path(sweep, "manifest.json").read_text())["points"]]
    assert statuses == ["error: " + err.split(": ", 1)[1].rstrip("\n")] * 2


def test_sweep_point_that_sets_hbar_is_a_config_error(tmp_path):
    # a config passed as a dict skips parse_config; each point refuses the key
    cfg = dict(parse_config(CURVE_CFG + "dx=2\n"), hbar=2.0)
    out = tmp_path / "sweep"
    assert cli.run_sweep(cfg, str(out), workers=1) == 3
    statuses = [p["status"] for p in json.loads(Path(out, "manifest.json").read_text())["points"]]
    assert statuses == ["config-error: unknown key 'hbar'"] * 2
    assert sorted(os.listdir(out)) == ["manifest.json"]


def test_atomic_write_cleans_up_after_a_failed_replace(tmp_path, monkeypatch):
    target = tmp_path / "out.csv"
    target.write_text("old\n")

    def fail(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(cli.os, "replace", fail)
    with pytest.raises(OSError, match="replace refused"):
        cli._atomic_write(str(target), "new\n")
    assert target.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]


@pytest.mark.parametrize(
    "command, out",
    [
        ("curve", "missing/x.csv"),
        ("spectra", "missing/x.csv"),
        ("validate", "missing/report.json"),
        ("validate", "taken.txt/report.json"),
        # a file named by an existing directory, a sweep's directory by a file
        ("curve", "taken"),
        ("sweep", "taken.txt"),
    ],
)
def test_unwritable_out_exit_2(tmp_path, capsys, monkeypatch, command, out):
    # an --out that cannot be written is a one-line config error, not a
    # traceback and exit 1, which means a failed validation; it is found
    # before any curve, spectrum, sweep pass or validation runs
    def never(*args, **kwargs):
        raise AssertionError("work done for an unwritable --out")

    for name in ("curve", "spectral_density", "_curves_many", "run_checks"):
        monkeypatch.setattr(cli, name, never)
    (tmp_path / "taken.txt").write_text("kept\n")
    (tmp_path / "taken").mkdir()
    argv = [command, "--out", str(tmp_path / out)]
    if command != "validate":
        argv += ["--config", write(tmp_path, "c.cfg", "lam=3\n" if command == "spectra" else CURVE_CFG)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write %s: " % (tmp_path / out)) and err.count("\n") == 1
    assert (tmp_path / "taken.txt").read_text() == "kept\n" and not any((tmp_path / "taken").iterdir())
    assert not [p.name for p in tmp_path.rglob(".qbmag-*")]


@pytest.fixture
def umask_022():
    old = os.umask(0o022)
    yield
    os.umask(old)


def _mode(path):
    return os.stat(path).st_mode & 0o777


def test_outputs_get_the_mode_of_a_new_file(tmp_path, umask_022):
    # every output file reads 0o666 & ~umask, as open(path, "w") would make
    # it, also where it replaces a file of that mode
    curve = tmp_path / "c.csv"
    assert cli.run_curve(parse_config(CURVE_CFG), str(curve)) == 0
    assert _mode(curve) == 0o644
    curve.chmod(0o644)
    assert cli.run_curve(parse_config(CURVE_CFG), str(curve)) == 0
    assert _mode(curve) == 0o644

    sweep = tmp_path / "sweep"
    cfg = parse_config(CURVE_CFG.replace("t_points=30", "t_points=8") + "dy=0.5\n")
    assert cli.run_sweep(cfg, str(sweep), workers=1) == 0
    files = sorted(p.name for p in sweep.iterdir())
    assert len(files) == 3 and "manifest.json" in files
    assert {_mode(sweep / name) for name in files} == {0o644}

    spectra = tmp_path / "s.csv"
    assert cli.run_spectra(parse_config("lam=3\ns=1.5\nomega_points=9\n"), str(spectra)) == 0
    assert _mode(spectra) == 0o644

    report = tmp_path / "report.json"
    assert cli.run_validate("fast", str(report)) == 0
    assert _mode(report) == 0o644
    assert not [p.name for p in tmp_path.rglob(".qbmag-*")]


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
