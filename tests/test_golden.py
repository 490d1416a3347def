"""Golden-output guard: decay curves must match the committed CSVs.

The CSVs under tests/data/golden/ were written by ``cli.run_curve`` before
the time integration was consolidated into one engine.  A refactor counts as
output-preserving when every column agrees to 1e-12 relative.  lambda2 gets
the cancellation allowance 1e3 eps / ((A'^2 - B'^2) t^2): F2 is a difference
of two O(u) terms, so at small t its last digits are rounding noise.

Regenerate (only when an output change is intended and documented) the
goldens it moves, by name, with
``PYTHONPATH=src python tests/test_golden.py drude_high_s1_closed_fallback``;
with no names every golden is rewritten.
"""

import math
import os
import sys

import numpy as np
import pytest

from qbmag import cli

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden")

RTOL = 1e-12

_BASE = {
    "lam": 200.0,
    "omega0": 10.0,
    "omega_c": 1.0,
    "omega_th": 37.0,
    "gamma": 1.0,
    "dx": 0.8,
    "dy": 1.1,
    "t_points": 40,
}


def _configs():
    out = {}
    for cutoff in ("abrupt", "drude", "exp"):
        for regime in ("high", "low"):
            for s in (0.5, 1.0, 1.5):
                name = "%s_%s_s%g" % (cutoff, regime, s)
                out[name] = dict(_BASE, cutoff=cutoff, regime=regime, s=s)
    # the closed Ohmic Drude-Lorentz forms overflow past Lam t = 700, so this
    # grid pins the per-point fallback to the quadrature path, and the panel
    # rule of the pole-sum kernel up to Lam t = 700
    out["drude_high_s1_closed_fallback"] = dict(
        _BASE, cutoff="drude", regime="high", s=1.0, method="closed", t_max=1000.0 / _BASE["lam"]
    )
    return out


CONFIGS = _configs()


def _read(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == cli.CURVE_HEADER
    rows = [ln.split(",") for ln in lines[1:]]
    num = np.array([[float(x) for x in r[:7]] for r in rows])
    return num, [r[7] for r in rows], [int(r[8]) for r in rows]


def _close(got, want, allowance=0.0):
    scale = np.maximum(np.abs(got), np.abs(want))
    return np.abs(got - want) <= (RTOL + allowance) * scale


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_curve_matches_golden(name, tmp_path):
    cfg = CONFIGS[name]
    path = str(tmp_path / "curve.csv")
    cli.run_curve(cfg, path)
    got, got_method, got_flag = _read(path)
    want, want_method, want_flag = _read(os.path.join(GOLDEN_DIR, name + ".csv"))
    assert got.shape == want.shape
    assert got_method == want_method
    assert got_flag == want_flag
    t = want[:, 0]
    split = cfg["omega_c"] * math.sqrt(4.0 * cfg["omega0"] ** 2 + cfg["omega_c"] ** 2)
    cancel = 1e3 * np.finfo(float).eps / (split * t * t)
    for col in range(7):
        allowance = cancel if col in (5, 6) else 0.0
        ok = _close(got[:, col], want[:, col], allowance)
        # NaN marks an err_flag 3 point; it must stay NaN
        ok |= np.isnan(got[:, col]) & np.isnan(want[:, col])
        assert np.all(ok), "%s column %s differs at t=%s" % (
            name,
            cli.CURVE_HEADER.split(",")[col],
            t[~ok],
        )


def _write_goldens(names):
    unknown = set(names) - set(CONFIGS)
    if unknown:
        raise SystemExit("unknown golden names: %s" % ", ".join(sorted(unknown)))
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name in names or CONFIGS:
        cli.run_curve(CONFIGS[name], os.path.join(GOLDEN_DIR, name + ".csv"))


if __name__ == "__main__":
    _write_goldens(sys.argv[1:])
