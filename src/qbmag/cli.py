"""Command-line front end: decay curves, spectra, parameter sweeps, validation.

Configs are flat ``key=value`` text files; a key repeated on several lines
turns into a sweep axis for the ``sweep`` subcommand.  Frequencies are in
units of gamma/m, times in m/gamma, separations in sqrt(hbar/gamma); the
scales gamma = hbar = 1 are overridable per config.  m is not a key: no
output of these commands depends on it.

One builder makes the time grid of ``curve`` and ``sweep`` and the
frequency grid of ``spectra``; a bad grid or method is a config error.

A sweep groups its points by layout, then by kernel, then by separation.
The points that differ only in the separation (dx, dy) share one kernel;
the kernels whose passes share a panel layout (``decoherence._layout``,
read off each kernel's plan) on one grid, one set of modes and one method
share one moment pass (``decoherence._curves_many``), which lays out the
panels, nodes and F1, F2 once and integrates each kernel on them.  A pass
holds at most ``_PASS_KERNELS`` kernels; a larger layout group is cut into
passes of near-equal size.  Every point's file is its ``curve`` file byte
for byte, whichever kernels shared its pass.

Passes run in this process, and after each one the CPU time per kernel is
rated: the mean over every pass done, or the last pass's where that is
higher.  Once the rate times the kernels left exceeds the pool's
break-even, and two or more kernels are left, the passes left are cut into
chunks of one layout, at least one per worker where there are enough
kernels, and go to a process pool, whose workers build the plans
themselves.  ``--workers`` (default: every core) caps the pool; a
``--workers`` below 1 is a config error.  Every point file and the
manifest are the same whichever way the passes ran.

Exit codes: 0 success, 1 validation failure, 2 config error (an --out that
cannot be written included, found before any work), 3 numerical error
(partial output is kept with the err_flag column set).
"""

import argparse
import errno
import itertools
import json
import os
import sys as _sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .bath import Cutoff, SpectralDensity, ThermalRegime, require_integrable, spectral_density
from .decoherence import FLAG_ERROR, METHODS, Separation, _curves_many, _default_span, _layout, curve
from .dynamics import SystemParams
from .errors import QbmagError
from .validation import run_checks

CURVE_HEADER = "t,magnitude,phase,lambda1_re,lambda1_im,lambda2_re,lambda2_im,method,err_flag"
SPECTRA_HEADER = "omega,J_abrupt,J_DL,J_exp"

_SWEEPABLE = ("s", "cutoff", "lam", "gamma", "omega0", "omega_c", "omega_th", "regime", "dx", "dy")

#: keys a sweep point may vary within one group; every other value fixes
#: the kernel and hence the time moments
_SEPARATION_KEYS = ("dx", "dy")

#: seconds of sweep work left above which a process pool finishes sooner
#: than this process.  Medians of run_sweep with one moment pass per point
#: on a 2-vCPU Xeon VM, one process vs a 2-worker pool:
#:   the bench sweep config (36 points x 24 times)      49 ms vs  95 ms
#:   the same 36 points on the default 200-point grid  124 ms vs 177 ms
#:   36 exact-regime curves of 200 points               0.73 s vs 0.46 s
#: Each pool time is about its serial time over two plus 70-115 ms of
#: start-up and dispatch, so two workers break even at twice that cost.
_POOL_BREAK_EVEN_S = 0.2

#: the most kernels in one moment pass.  A pass holds the moments and curves
#: of all its kernels until it writes them, so this bounds a sweep's memory
#: whatever its size, and the work it runs in this process before the
#: planner can hand the rest to the pool; by eight kernels a pass has shared
#: most of its panel set-up
_PASS_KERNELS = 8

_FLOAT_KEYS = {
    "s", "lam", "gamma", "omega0", "omega_c", "omega_th", "dx", "dy", "hbar",
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
    "hbar": 1.0,
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
        sys_params = SystemParams(omega0=cfg["omega0"], omega_c=cfg["omega_c"], hbar=cfg["hbar"])
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
    naming the values in effect and which of them are defaults."""
    keys = (var + "_min", var + "_max", var + "_points")
    lo, hi, n = values = [cfg.get(key, default) for key, default in zip(keys, (lo, hi, n))]
    if not (0 <= lo < hi < np.inf) or n < 2:
        got = ", ".join("%s = %r%s" % (key, v, "" if key in cfg else " (default)") for key, v in zip(keys, values))
        raise ConfigError("need finite 0 <= %s_min < %s_max and %s_points >= 2, got %s" % (var, var, var, got))
    if cfg[spacing_key] == "log":
        if lo <= 0:
            raise ConfigError("log grid needs %s_min > 0" % var)
        return np.logspace(np.log10(lo), np.log10(hi), n)
    if cfg[spacing_key] == "linear":
        return np.linspace(lo, hi, n)
    raise ConfigError("%s must be 'log' or 'linear'" % spacing_key)


def _require_writable(path):
    """ConfigError unless ``path`` can name an output file: not a directory,
    in an existing directory this process may write.  The commands check it
    before their work; ``_atomic_write`` keeps its own checks for a path
    that changes in between."""
    if os.path.isdir(path):
        raise ConfigError("cannot write %s: it is a directory" % path)
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
        raise ConfigError("cannot write %s: %s" % (path, os.strerror(code)))
    if not os.access(parent, os.W_OK | os.X_OK):
        raise ConfigError("cannot write %s: %s" % (path, os.strerror(errno.EACCES)))


def _atomic_write(path, text):
    if os.path.isdir(path):
        raise ConfigError("cannot write %s: it is a directory" % path)
    # a unique temp name next to path, of the mode open(path, "w") gives: 0o666 & ~umask
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), ".qbmag-" + os.urandom(8).hex())
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # a missing or unwritable directory
        raise ConfigError("cannot write %s: %s" % (path, exc.strerror))
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


def _group_key(point):
    """The point's config without its separation; repr keeps -0.0 and 0.0
    apart, which a float comparison would not."""
    return tuple((k, repr(point[k])) for k in sorted(point) if k not in _SEPARATION_KEYS)


def _pass_key(objs):
    """What the points of one moment pass share: the modes and hbar, the
    grid, the method and the panel layout of the bath's pass; repr and the
    grid's bytes keep -0.0 and 0.0 apart."""
    sys_params, sd, regime, _, grid, method = objs
    return repr(sys_params), grid.tobytes(), method, _layout(sd, regime, grid, method)


def _run_sweep_group(kernels):
    """Kernel groups of one moment pass, each [(index, path, objects)] of
    built points that differ only in dx, dy -> [(index, status)].  One
    ``_curves_many`` call serves them all; if it raises a package error, each
    kernel group is run on its own, so the error stays with the points of
    the kernel that raised it."""
    sys_params, _, _, _, grid, method = kernels[0][0][2]
    baths = [(points[0][2][1], points[0][2][2], [objs[3] for _, _, objs in points]) for points in kernels]
    try:
        series = _curves_many(sys_params, baths, grid, method)
    except QbmagError as exc:
        if len(kernels) > 1:
            return [status for points in kernels for status in _run_sweep_group([points])]
        return [(index, "error: %s" % exc) for index, _, _ in kernels[0]]
    statuses = []
    for points, curves in zip(kernels, series):
        for (index, path, _), one in zip(points, curves):
            _atomic_write(path, _curve_csv(one))
            statuses.append((index, "numerical-error" if np.any(one.err_flag == FLAG_ERROR) else "ok"))
    return statuses


def _split(items, parts):
    """``items`` cut in order into ``parts`` runs of near-equal length."""
    return [items[len(items) * i // parts : len(items) * (i + 1) // parts] for i in range(parts)]


def _pool_chunks(passes, workers):
    """The passes left, cut into chunks of kernels of one layout each, at
    least min(workers, kernels) of them, so that every worker has one."""
    size = max(1, sum(map(len, passes)) // workers)
    return [chunk for one in passes for chunk in _split(one, -(-len(one) // size))]


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
    kernels = {}
    grids = {}
    entries = []
    results = []
    for i, point in enumerate(points):
        fname = "point_%04d.csv" % i
        entries.append(
            {
                "file": fname,
                "params": {k: point[k] for k in sorted(point) if k in _SWEEPABLE or k in names},
            }
        )
        # each point is built on its own, so a bad separation stays that
        # point's config error
        try:
            sys_params, sd, regime, sep, grid, method = _build_objects(_scalar_config(point))
        except ConfigError as exc:
            results.append((i, "config-error: %s" % exc))
            continue
        # the points share each distinct grid, so the built points hold
        # O(points + grids x grid points), not O(points x grid points)
        grid = grids.setdefault(grid.tobytes(), grid)
        objs = sys_params, sd, regime, sep, grid, method
        kernels.setdefault(_group_key(point), []).append((i, os.path.join(out_dir, fname), objs))
    layouts = {}
    for group in kernels.values():
        layouts.setdefault(_pass_key(group[0][2]), []).append(group)
    passes = [one for group in layouts.values() for one in _split(group, -(-len(group) // _PASS_KERNELS))]
    total = left = sum(map(len, passes))
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
        left -= len(one)
        now = time.thread_time()
        # CPU seconds per kernel: the mean over the passes done, or the last
        # pass's, so costly kernels late in a sweep still reach the pool
        rate = max((now - start) / (total - left), (now - last) / len(one))
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
    if path is None:
        return {}
    try:
        with open(path) as fh:
            return parse_config(fh.read())
    except OSError as exc:
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
