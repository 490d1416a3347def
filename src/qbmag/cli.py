"""Command-line front end: decay curves, spectra, parameter sweeps, validation.

Configs are flat ``key=value`` text files; a key repeated on several lines
turns into a sweep axis for the ``sweep`` subcommand.  Frequencies are in
units of gamma/m, times in m/gamma, separations in sqrt(hbar/gamma), with
hbar = 1; gamma = 1 is overridable per config, and a coupling at another
hbar is the config's gamma/hbar.

One builder makes the time grid of ``curve`` and ``sweep`` and the
frequency grid of ``spectra``; a bad grid or method is a config error, a
grid whose points collapse into repeats included.

A sweep builds each point on its own and keeps one record per moment
pass, (sys, grid, method, kernels), each kernel (sd, regime, [(index,
path, sep)]).  A built point joins the kernel keyed on its objects: the
repr of its system, spectral density and regime, its grid's bytes and its
method, so -0.0 and 0.0 stay apart.  A new kernel joins the pass that
``decoherence._pass_key`` names, a key the sweep compares and does not
read; one ``decoherence._curves_many`` call per pass lays out the panels,
nodes and F1, F2 once and integrates each kernel on them.  A pass holds at
most ``_PASS_KERNELS`` kernels; a larger one is cut into passes of
near-equal size.  Every point's file is its ``curve`` file byte for byte,
whichever kernels shared its pass.

Passes run in this process, and after each one the CPU time per kernel is
rated: the mean over every pass done, or the last pass's where that is
higher.  Once the rate times the kernels left exceeds the pool's
break-even, and two or more kernels are left, the passes left are cut into
chunks, pass records of one pass's kernels each, at least one per worker
where there are enough kernels, and go to a process pool, whose workers
build the plans themselves.  ``--workers`` (default: every core) caps the
pool; a ``--workers`` below 1 is a config error.  Every point file and the
manifest are the same whichever way the passes ran.

Every output is written to a hidden ``.qbmag-*`` file next to it, which
then replaces it.  One function opens that file, and each command opens
and removes one before its work, so an --out that the write would refuse
is refused first: an --out of ``curve``, ``spectra`` or ``validate`` must
name a file, and a sweep checks ``manifest.json`` in its directory once it
has made it.

Exit codes: 0 success, 1 validation failure, 2 config error (an --out that
cannot be written, config text that is not UTF-8 and a grid numpy cannot
build included, found before any work), 3 numerical error (partial output
is kept with the err_flag column set).
"""

import argparse
import itertools
import json
import os
import sys as _sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .bath import Cutoff, SpectralDensity, ThermalRegime, require_integrable, spectral_density
from .decoherence import FLAG_ERROR, METHODS, Separation, _curves_many, _default_span, _pass_key, curve
from .dynamics import SystemParams
from .errors import QbmagError
from .validation import run_checks

CURVE_HEADER = "t,magnitude,phase,lambda1_re,lambda1_im,lambda2_re,lambda2_im,method,err_flag"
SPECTRA_HEADER = "omega,J_abrupt,J_DL,J_exp"

_SWEEPABLE = ("s", "cutoff", "lam", "gamma", "omega0", "omega_c", "omega_th", "regime", "dx", "dy")

#: seconds of sweep work left, as the planner rates it, above which a
#: process pool finishes sooner than this process.  run_sweep of 36 exact
#: curves of 200 points (Lam = 50, Omega_th = 17, 3 s x abrupt, exp x 3
#: omega0 x 2 dx: six passes, 0.27-0.30 s in one process), each run in a
#: fresh process on a 2-vCPU Xeon VM, medians of 15 pairs unless noted:
#:   a 2-worker pool from the 2nd pass (0.24 s left, 9 runs)   0.213 s vs 0.272 s
#:   from the 5th pass, where 0.2 s starts it (0.18 s left)     0.280 s vs 0.288 s
#:     (faster in 9 of 15 pairs, with four times the quartile spread)
#:   the planner at 0.2 s pooled 3 of 15 runs, which took       0.31-0.39 s vs 0.30 s
#: The pool adds 40-100 ms to its share of the work, so it pays only past
#: about 0.2 s of work, and 0.3 s keeps the pool to the sweeps where it
#: clearly does.  The bench sweep's passes total a few ms, so it stays in
#: this process either way
_POOL_BREAK_EVEN_S = 0.3

#: the most kernels in one moment pass.  A pass holds the moments and curves
#: of all its kernels until it writes them, so this bounds a sweep's memory
#: whatever its size, and the work it runs in this process before the
#: planner can hand the rest to the pool; by eight kernels a pass has shared
#: most of its panel set-up
_PASS_KERNELS = 8

_FLOAT_KEYS = {
    "s", "lam", "gamma", "omega0", "omega_c", "omega_th", "dx", "dy",
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
    "grid": "log",
    "method": "quadrature",
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
        # a config passed as a dict, as a sweep's points are, skips parse_config
        if key not in _FLOAT_KEYS | _INT_KEYS | _STR_KEYS:
            raise ConfigError("unknown key %r" % key)
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
        sd = SpectralDensity(cfg["s"], cfg["cutoff"], cfg["lam"], cfg["gamma"])
        regime = ThermalRegime(cfg["regime"], cfg["omega_th"])
        require_integrable(sd, regime)
        sys_params = SystemParams(omega0=cfg["omega0"], omega_c=cfg["omega_c"])
        sep = Separation(cfg["dx"], cfg["dy"])
    except (QbmagError, ValueError) as exc:  # ValueError: an unknown cutoff or regime name
        raise ConfigError(str(exc))
    grid = _grid(cfg, "t", "grid", *_default_span(sd))
    if cfg["method"] not in METHODS:
        raise ConfigError("method must be one of %s" % ", ".join(map(repr, METHODS)))
    return sys_params, sd, regime, sep, grid, cfg["method"]


def _grid(cfg, var, spacing_key, lo, hi, n):
    """The grid of ``var`` ('t' or 'omega'): ``var``_points points (default n)
    from ``var``_min to ``var``_max (defaults lo, hi), spaced as the key
    ``spacing_key`` says; ConfigError unless 0 <= min < max, both finite,
    numpy can build the points and they are strictly increasing (too many
    points on too short a span repeat some), naming the values in effect
    and which of them are defaults."""
    keys = (var + "_min", var + "_max", var + "_points")
    lo, hi, n = values = [cfg.get(key, default) for key, default in zip(keys, (lo, hi, n))]
    got = ", ".join("%s = %r%s" % (key, v, "" if key in cfg else " (default)") for key, v in zip(keys, values))
    if not (0 <= lo < hi < np.inf) or n < 2:
        raise ConfigError("need finite 0 <= %s_min < %s_max and %s_points >= 2, got %s" % (var, var, var, got))
    if cfg[spacing_key] not in ("log", "linear"):
        raise ConfigError("%s must be 'log' or 'linear'" % spacing_key)
    if cfg[spacing_key] == "log" and lo <= 0:
        raise ConfigError("log grid needs %s_min > 0" % var)
    try:  # a point count numpy cannot hold
        grid = np.logspace(np.log10(lo), np.log10(hi), n) if cfg[spacing_key] == "log" else np.linspace(lo, hi, n)
    except (ValueError, MemoryError) as exc:
        raise ConfigError("cannot build the %s grid (%s), got %s" % (var, exc, got))
    if not (grid[1:] > grid[:-1]).all():
        raise ConfigError("the %s grid repeats points; it must be strictly increasing, got %s" % (var, got))
    return grid


def _open_temp(path):
    """A new hidden file ``.qbmag-<hex>`` next to ``path``, open for writing
    with the mode open(path, "w") gives, 0o666 & ~umask: (fd, its name).
    ConfigError where ``path`` names a directory (an empty base name, as in
    '' or 'dir/', or an existing directory) or the open fails (a missing or
    unwritable directory)."""
    if not os.path.basename(path) or os.path.isdir(path):
        raise ConfigError("cannot write %s: it names a directory" % path)
    tmp = os.path.join(os.path.dirname(path), ".qbmag-" + os.urandom(8).hex())
    try:
        return os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), tmp
    except OSError as exc:
        raise ConfigError("cannot write %s: %s" % (path, exc.strerror))


def _require_writable(path):
    """ConfigError unless ``_atomic_write`` can open its temp file for
    ``path``, found by opening and removing one; the commands check this
    before their work."""
    fd, tmp = _open_temp(path)
    os.close(fd)
    os.unlink(tmp)


def _atomic_write(path, text):
    fd, tmp = _open_temp(path)
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _reprs(values):
    """The shortest round-tripping repr of each value as a Python float."""
    return list(map(repr, np.asarray(values, dtype=float).tolist()))


def _csv(header, columns):
    """CSV text of equal-length columns of cell strings."""
    return "\n".join([header, *map(",".join, zip(*columns))]) + "\n"


def _curve_csv(series):
    return _csv(
        CURVE_HEADER,
        [
            _reprs(series.times),
            _reprs(series.magnitude),
            _reprs(series.phase),
            _reprs(series.lambda1.real),
            _reprs(series.lambda1.imag),
            _reprs(series.lambda2.real),
            _reprs(series.lambda2.imag),
            series.method,
            list(map(str, np.asarray(series.err_flag, dtype=int).tolist())),
        ],
    )


def run_curve(cfg, out_path):
    _require_writable(out_path)
    sys_params, sd, regime, sep, grid, method = _build_objects(_scalar_config(cfg))
    series = curve(sys_params, sd, regime, sep, grid, method)
    _atomic_write(out_path, _curve_csv(series))
    return 3 if np.any(series.err_flag == FLAG_ERROR) else 0


def run_spectra(cfg, out_path):
    _require_writable(out_path)
    merged = _scalar_config(cfg)
    try:  # one column per cutoff, in the header's order
        sds = [SpectralDensity(merged["s"], c, merged["lam"], merged["gamma"]) for c in Cutoff]
    except QbmagError as exc:
        raise ConfigError(str(exc))
    omega = _grid(merged, "omega", "omega_grid", 1.0, 5.0 * merged["lam"], 400)
    cols = [_reprs(spectral_density(sd, omega)) for sd in sds]
    _atomic_write(out_path, _csv(SPECTRA_HEADER, [_reprs(omega)] + cols))
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


def _run_sweep_group(record):
    """One moment pass, (sys, grid, method, kernels) with kernels
    [(sd, regime, [(index, path, sep)])] -> [(index, status)].  One
    ``_curves_many`` call serves every kernel; if it raises a package error,
    each kernel is run in a pass of its own, so the error stays with the
    points of the kernel that raised it."""
    sys_params, grid, method, kernels = record
    baths = [(sd, regime, [sep for _, _, sep in points]) for sd, regime, points in kernels]
    try:
        series = _curves_many(sys_params, baths, grid, method)
    except QbmagError as exc:
        if len(kernels) > 1:
            return [status for one in kernels for status in _run_sweep_group((sys_params, grid, method, [one]))]
        return [(index, "error: %s" % exc) for _, _, points in kernels for index, _, _ in points]
    statuses = []
    for (_, _, points), curves in zip(kernels, series):
        for (index, path, _), one in zip(points, curves):
            _atomic_write(path, _curve_csv(one))
            statuses.append((index, "numerical-error" if np.any(one.err_flag == FLAG_ERROR) else "ok"))
    return statuses


def _split(record, size):
    """The pass ``record`` cut in order into the fewest passes of at most
    ``size`` kernels each, of near-equal size."""
    *common, kernels = record
    parts = -(-len(kernels) // size)
    return [(*common, kernels[len(kernels) * i // parts : len(kernels) * (i + 1) // parts]) for i in range(parts)]


def _pool_chunks(passes, workers):
    """The passes left, cut into chunks of kernels of one pass each, at
    least min(workers, kernels) of them, so that every worker has one."""
    size = max(1, sum(len(one[3]) for one in passes) // workers)
    return [chunk for one in passes for chunk in _split(one, size)]


def run_sweep(cfg, out_dir, workers):
    merged = dict(_DEFAULTS)
    merged.update(cfg)
    cap = merged.pop("sweep_cap")
    names, points = _sweep_points(merged)
    if len(points) > cap:
        raise ConfigError("sweep has %d points, above the cap %d" % (len(points), cap))
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:  # a file of that name, or an unwritable parent
        raise ConfigError("cannot write %s: %s" % (out_dir, exc.strerror))
    _require_writable(os.path.join(out_dir, "manifest.json"))
    kernels = {}
    shared = {}
    entries = []
    results = []
    for i, point in enumerate(points):
        fname = "point_%04d.csv" % i
        params = {k: point[k] for k in sorted(point) if k in _SWEEPABLE or k in names}
        entries.append({"file": fname, "params": params})
        # each point is built on its own, so a bad separation stays that
        # point's config error
        try:
            sys_params, sd, regime, sep, grid, method = _build_objects(_scalar_config(point))
        except ConfigError as exc:
            results.append((i, "config-error: %s" % exc))
            continue
        # the built objects name the kernel; repr keeps -0.0 and 0.0 apart
        key = repr(sys_params), grid.tobytes(), method, repr(sd), repr(regime)
        if key not in kernels:
            kernels[key] = sd, regime, []
            # a pass record holds its grid once, whichever points share it
            record = shared.setdefault(_pass_key(sys_params, sd, regime, grid, method), (sys_params, grid, method, []))
            record[3].append(kernels[key])
        kernels[key][2].append((i, os.path.join(out_dir, fname), sep))
    passes = [one for record in shared.values() for one in _split(record, _PASS_KERNELS)]
    total = left = len(kernels)
    # CPU time of this thread, so other processes preempting it do not read
    # as work (wall time started 2-worker pools in bench sweeps of ~50 ms)
    start = last = time.thread_time()
    rate = 0.0
    for done, one in enumerate(passes):
        if workers > 1 and left > 1 and rate * left > _POOL_BREAK_EVEN_S:
            chunks = _pool_chunks(passes[done:], workers)
            with ProcessPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
                for statuses in pool.map(_run_sweep_group, chunks):
                    results += statuses
            break
        results += _run_sweep_group(one)
        left -= len(one[3])
        now = time.thread_time()
        # CPU seconds per kernel: the mean over the passes done, or the last
        # pass's, so costly kernels late in a sweep still reach the pool
        rate = max((now - start) / (total - left), (now - last) / len(one[3]))
        last = now
    for index, status in results:
        entries[index]["status"] = status
    manifest = json.dumps({"axes": names, "points": entries}, indent=2, sort_keys=True)
    _atomic_write(os.path.join(out_dir, "manifest.json"), manifest + "\n")
    return 0 if all(e["status"] == "ok" for e in entries) else 3


def run_validate(level, out_path):
    _require_writable(out_path)
    report = run_checks(level)
    _atomic_write(out_path, report.to_json() + "\n")
    for c in report.checks:
        print("%-28s %s" % (c.name, c.status.upper()))
    print("report written to %s" % out_path)
    return 0 if report.passed else 1


def _read_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_config(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("cannot read config: %s" % exc)


def _worker_count(arg):
    """The pool's upper bound: ``--workers``, else every core."""
    if arg is None:
        return os.cpu_count() or 1
    if arg < 1:
        raise ConfigError("--workers must be at least 1, got %d" % arg)
    return arg


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
        return run_sweep(cfg, args.out, _worker_count(args.workers))
    except ConfigError as exc:
        print("config error: %s" % exc, file=_sys.stderr)
        return 2
    except QbmagError as exc:
        print("numerical error: %s" % exc, file=_sys.stderr)
        return 3


if __name__ == "__main__":
    _sys.exit(main())
