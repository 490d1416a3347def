"""Command-line front end: decay curves, spectra, parameter sweeps, validation.

Configs are flat ``key=value`` text files; a key repeated on several lines
turns into a sweep axis for the ``sweep`` subcommand.  Frequencies are in
units of gamma/m, times in m/gamma, separations in sqrt(hbar/gamma); the
internal scales gamma = hbar = m = 1 are overridable per config.

Exit codes: 0 success, 1 validation failure, 2 config error, 3 numerical
error (partial output is kept with the err_flag column set).
"""

import argparse
import itertools
import json
import os
import sys as _sys
import tempfile
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .bath import LAM_TAU_MAX, Cutoff, RegimeKind, SpectralDensity, ThermalRegime, spectral_density
from .decoherence import FLAG_ERROR, Separation, curve
from .dynamics import SystemParams
from .errors import QbmagError
from .validation import run_checks

CURVE_HEADER = "t,magnitude,phase,lambda1_re,lambda1_im,lambda2_re,lambda2_im,method,err_flag"
SPECTRA_HEADER = "omega,J_abrupt,J_DL,J_exp"

_SWEEPABLE = ("s", "cutoff", "lam", "gamma", "omega0", "omega_c", "omega_th", "regime", "dx", "dy")

_FLOAT_KEYS = {
    "s", "lam", "gamma", "omega0", "omega_c", "omega_th", "dx", "dy", "m", "hbar",
    "t_min", "t_max", "omega_min", "omega_max",
}
_INT_KEYS = {"t_points", "omega_points", "sweep_cap"}
_STR_KEYS = {"cutoff", "regime", "grid", "method", "omega_grid"}

_DEFAULTS = {
    "s": 1.0,
    "cutoff": "abrupt",
    "gamma": 1.0,
    "omega_th": 0.0,
    "dx": 1.0,
    "dy": 1.0,
    "m": 1.0,
    "hbar": 1.0,
    "grid": "log",
    "method": "quadrature",
    "omega_min": 1.0,
    "omega_points": 400,
    "omega_grid": "log",
    "sweep_cap": 10_000,
}


class ConfigError(ValueError):
    pass


def parse_config(text):
    """Flat key=value lines -> dict; repeated keys accumulate into lists."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected key=value, got %r" % (lineno, raw))
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key in _FLOAT_KEYS:
            try:
                parsed = float(val)
            except ValueError:
                raise ConfigError("line %d: %s must be a number, got %r" % (lineno, key, val))
        elif key in _INT_KEYS:
            try:
                parsed = int(val)
            except ValueError:
                raise ConfigError("line %d: %s must be an integer" % (lineno, key))
        elif key in _STR_KEYS:
            parsed = val
        else:
            raise ConfigError("line %d: unknown key %r" % (lineno, key))
        if key in out:
            if key not in _SWEEPABLE:
                raise ConfigError("line %d: key %r repeated but is not sweepable" % (lineno, key))
            prev = out[key]
            out[key] = (prev if isinstance(prev, list) else [prev]) + [parsed]
        else:
            out[key] = parsed
    return out


def _scalar_config(cfg):
    merged = dict(_DEFAULTS)
    merged.update(cfg)
    for key, val in merged.items():
        if isinstance(val, list):
            raise ConfigError("key %r has multiple values; only the sweep subcommand sweeps" % key)
    if "lam" not in merged:
        raise ConfigError("missing required key 'lam'")
    return merged


def _build_objects(cfg):
    for req in ("omega0", "omega_c", "regime"):
        if req not in cfg:
            raise ConfigError("missing required key %r" % req)
    try:
        cutoff = Cutoff(cfg["cutoff"])
        rkind = RegimeKind(cfg["regime"])
    except ValueError as exc:
        raise ConfigError(str(exc))
    try:
        sd = SpectralDensity(cfg["s"], cutoff, cfg["lam"], cfg["gamma"])
        regime = ThermalRegime(rkind, cfg["omega_th"])
        sys_params = SystemParams(
            omega0=cfg["omega0"],
            omega_c=cfg["omega_c"],
            m=cfg["m"],
            gamma=cfg["gamma"],
            hbar=cfg["hbar"],
            omega_th=cfg["omega_th"],
        )
        sep = Separation(cfg["dx"], cfg["dy"])
    except QbmagError as exc:
        raise ConfigError(str(exc))
    t_min = cfg.get("t_min", 1e-3 / cfg["lam"])
    t_max = cfg.get("t_max", min(1.0, LAM_TAU_MAX / cfg["lam"]))
    n = cfg.get("t_points", 200)
    if not (0 <= t_min < t_max) or n < 2:
        raise ConfigError("need 0 <= t_min < t_max and t_points >= 2")
    if cfg["grid"] == "log":
        if t_min <= 0:
            raise ConfigError("log grid needs t_min > 0")
        grid = np.logspace(np.log10(t_min), np.log10(t_max), n)
    elif cfg["grid"] == "linear":
        grid = np.linspace(t_min, t_max, n)
    else:
        raise ConfigError("grid must be 'log' or 'linear'")
    if cfg["method"] not in ("quadrature", "closed"):
        raise ConfigError("method must be 'quadrature' or 'closed'")
    return sys_params, sd, regime, sep, grid, cfg["method"]


def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".qbmag-")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _floats(values):
    """Python floats, whose %r is the shortest round-tripping repr."""
    return np.asarray(values, dtype=float).tolist()


def _csv(header, row_format, columns):
    return "\n".join([header] + [row_format % row for row in zip(*columns)]) + "\n"


def _curve_csv(series):
    return _csv(
        CURVE_HEADER,
        "%r,%r,%r,%r,%r,%r,%r,%s,%d",
        [
            _floats(series.times),
            _floats(series.magnitude),
            _floats(series.phase),
            _floats(series.lambda1.real),
            _floats(series.lambda1.imag),
            _floats(series.lambda2.real),
            _floats(series.lambda2.imag),
            series.method,
            np.asarray(series.err_flag, dtype=int).tolist(),
        ],
    )


def run_curve(cfg, out_path):
    sys_params, sd, regime, sep, grid, method = _build_objects(_scalar_config(cfg))
    series = curve(sys_params, sd, regime, sep, grid, method)
    _atomic_write(out_path, _curve_csv(series))
    return 3 if np.any(series.err_flag == FLAG_ERROR) else 0


def run_spectra(cfg, out_path):
    merged = _scalar_config(cfg)
    omega_max = merged.get("omega_max", 5.0 * merged["lam"])
    n = merged["omega_points"]
    if merged["omega_grid"] == "log":
        omega = np.logspace(np.log10(merged["omega_min"]), np.log10(omega_max), n)
    else:
        omega = np.linspace(merged["omega_min"], omega_max, n)
    sds = [
        SpectralDensity(merged["s"], c, merged["lam"], merged["gamma"])
        for c in (Cutoff.ABRUPT, Cutoff.DRUDE_LORENTZ, Cutoff.EXPONENTIAL)
    ]
    cols = [_floats(spectral_density(sd, omega)) for sd in sds]
    _atomic_write(out_path, _csv(SPECTRA_HEADER, "%r,%r,%r,%r", [_floats(omega)] + cols))
    return 0


def _sweep_points(cfg):
    axes = [(k, v) for k, v in cfg.items() if isinstance(v, list)]
    fixed = {k: v for k, v in cfg.items() if not isinstance(v, list)}
    names = [k for k, _ in axes]
    values = [v for _, v in axes]
    points = []
    for combo in itertools.product(*values) if axes else [()]:
        point = dict(fixed)
        point.update(dict(zip(names, combo)))
        points.append(point)
    return names, points


def _run_sweep_point(args):
    point, path = args
    try:
        code = run_curve(point, path)
        return "ok" if code == 0 else "numerical-error"
    except ConfigError as exc:
        return "config-error: %s" % exc
    except QbmagError as exc:
        return "error: %s" % exc


def run_sweep(cfg, out_dir, workers):
    merged = dict(_DEFAULTS)
    merged.update(cfg)
    cap = merged.pop("sweep_cap")
    names, points = _sweep_points(merged)
    if len(points) > cap:
        raise ConfigError("sweep has %d points, above the cap %d" % (len(points), cap))
    os.makedirs(out_dir, exist_ok=True)
    tasks = []
    entries = []
    for i, point in enumerate(points):
        fname = "point_%04d.csv" % i
        tasks.append((point, os.path.join(out_dir, fname)))
        entries.append(
            {
                "file": fname,
                "params": {k: point[k] for k in sorted(point) if k in _SWEEPABLE or k in names},
            }
        )
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            statuses = list(pool.map(_run_sweep_point, tasks))
    else:
        statuses = [_run_sweep_point(t) for t in tasks]
    for entry, status in zip(entries, statuses):
        entry["status"] = status
    manifest = json.dumps({"axes": names, "points": entries}, indent=2, sort_keys=True)
    _atomic_write(os.path.join(out_dir, "manifest.json"), manifest + "\n")
    return 0 if all(s == "ok" for s in statuses) else 3


def run_validate(level, out_path):
    report = run_checks(level)
    _atomic_write(out_path, report.to_json() + "\n")
    for c in report.checks:
        print("%-28s %s" % (c.name, c.status.upper()))
    print("report written to %s" % out_path)
    return 0 if report.passed else 1


def _read_config(path):
    if path is None:
        return {}
    try:
        with open(path) as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError("cannot read config: %s" % exc)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="qbmag", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("curve", "spectra", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        if name == "sweep":
            p.add_argument("--workers", type=int, default=None)
    pv = sub.add_parser("validate")
    pv.add_argument("--level", choices=("fast", "full"), default="fast")
    pv.add_argument("--out", default="validation_report.json")
    args = parser.parse_args(argv)

    try:
        if args.command == "validate":
            return run_validate(args.level, args.out)
        cfg = _read_config(args.config)
        if args.command == "curve":
            return run_curve(cfg, args.out)
        if args.command == "spectra":
            return run_spectra(cfg, args.out)
        workers = args.workers
        if workers is None:
            workers = int(os.environ.get("QBM_WORKERS", "0")) or (os.cpu_count() or 1)
        return run_sweep(cfg, args.out, workers)
    except ConfigError as exc:
        print("config error: %s" % exc, file=_sys.stderr)
        return 2
    except QbmagError as exc:
        print("numerical error: %s" % exc, file=_sys.stderr)
        return 3


if __name__ == "__main__":
    _sys.exit(main())
