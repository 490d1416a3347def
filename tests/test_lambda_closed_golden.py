"""Golden-output guard for the analytic coefficients ``lambda_closed``.

tests/data/golden/lambda_closed.csv holds both variants for every Ohmic
cutoff x {high, low} combination at four times including t = 0, plus
exponential-cutoff rows at a tiny omega0 (B' ~ 1e-14) that reach the
small-argument limits of the validated lambda1 forms.  Values are written as
shortest round-trip floats; an empty lambda2 cell means no closed form.

Every printed row is also anchored to the same displays evaluated with
40-digit mpmath Si/Ci: the float arithmetic of a display is the same on both
sides, so the gap isolates the error of ``specfun``.

Regenerate (only when an output change is intended and documented) with
``PYTHONPATH=src python tests/test_lambda_closed_golden.py``; it prints every
cell whose repr changes, with its distance to the mpmath evaluation before
and after.  A regeneration that only moves Si/Ci values may move printed
exponential cells only, each by <= 1e-13 relative, and no cell may end
farther from its mpmath evaluation than max(its old distance, 1e-13).
"""

import contextlib
import csv
import os

import mpmath
import pytest

from qbmag import coefficients
from qbmag.bath import Cutoff, RegimeKind, SpectralDensity, ThermalRegime
from qbmag.dynamics import SystemParams

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden", "lambda_closed.csv")

RTOL = 1e-14
# the curve goldens' RTOL, for the printed cells against their mpmath evaluation
ANCHOR_RTOL = 1e-12
# printed cells whose display cancels its Si/Ci terms, with their own bound:
# at t = 0.004, Ci((Lam - z) t) - Ci((Lam + z) t) + log((Lam + z)/(Lam - z))
# cancels to O(t^2), which turns scipy's 1e-16 on Ci into 5.1e-11 of lambda2
ANCHOR_BOUNDS = {("printed", "abrupt", "high", "10.0", "0.004", "l2_re"): 1e-10}

HEADER = ["variant", "cutoff", "regime", "omega0", "t", "l1_re", "l1_im", "l2_re", "l2_im", "method"]

_OMEGA_C = 1.0
_LAM = 300.0
_GAMMA = 1.4
_OMEGA_TH = 13.0


def _cases():
    out = []
    for variant in ("validated", "printed"):
        for cutoff in (Cutoff.ABRUPT, Cutoff.DRUDE_LORENTZ, Cutoff.EXPONENTIAL):
            for rkind in (RegimeKind.HIGH_TEMPERATURE, RegimeKind.LOW_TEMPERATURE):
                for t in (0.0, 0.004, 0.08, 0.5):
                    out.append((variant, cutoff, rkind, 10.0, t))
        for rkind in (RegimeKind.HIGH_TEMPERATURE, RegimeKind.LOW_TEMPERATURE):
            out.append((variant, Cutoff.EXPONENTIAL, rkind, 1e-7, 0.08))
    return out


def _evaluate(variant, cutoff, rkind, omega0, t):
    sys = SystemParams(omega0=omega0, omega_c=_OMEGA_C)
    sd = SpectralDensity(1.0, cutoff, _LAM, _GAMMA)
    return coefficients.lambda_closed(sys, sd, ThermalRegime(rkind, _OMEGA_TH), t, variant)


def _row(case):
    variant, cutoff, rkind, omega0, t = case
    lp = _evaluate(*case)
    l2 = ["", ""] if lp.lambda2 is None else [repr(lp.lambda2.real), repr(lp.lambda2.imag)]
    return [variant, cutoff.value, rkind.value, repr(omega0), repr(t),
            repr(lp.lambda1.real), repr(lp.lambda1.imag)] + l2 + [lp.method]


def _read():
    with open(GOLDEN, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == HEADER
    return rows[1:]


def _distance(got, want):
    """Relative distance of two cells; an empty cell (no closed form) is
    at distance 0 from another empty cell and inf from any number."""
    if got == "" or want == "":
        return 0.0 if got == want else float("inf")
    g, w = float(got), float(want)
    scale = max(abs(g), abs(w))
    return abs(g - w) / scale if scale else 0.0


@contextlib.contextmanager
def _mpmath_sici():
    """Swap coefficients.Si/Ci for 40-digit mpmath values rounded to complex
    doubles; mpmath's Ci takes the upper side of its cut, as specfun does."""

    def wrap(fn):
        def call(z):
            z = complex(z)
            with mpmath.workdps(40):
                return complex(fn(mpmath.mpc(z.real, z.imag)))

        return call

    saved = coefficients.Si, coefficients.Ci
    coefficients.Si, coefficients.Ci = wrap(mpmath.si), wrap(mpmath.ci)
    try:
        yield
    finally:
        coefficients.Si, coefficients.Ci = saved


def _anchors(cases):
    """mpmath-Si/Ci rows of the printed cases, keyed by their first five cells."""
    with _mpmath_sici():
        return {tuple(r[:5]): r for r in map(_row, cases) if r[0] == "printed"}


def _case_id(case):
    return "-".join(str(getattr(x, "value", x)) for x in case)


@pytest.mark.parametrize("case", _cases(), ids=_case_id)
def test_lambda_closed_matches_golden(case):
    got = _row(case)
    want = {tuple(r[:5]): r for r in _read()}[tuple(got[:5])]
    for col in range(5, 9):
        assert _distance(got[col], want[col]) <= RTOL, "%s: %r != %r" % (HEADER[col], got[col], want[col])
    assert got[9] == want[9]


@pytest.mark.parametrize("case", [c for c in _cases() if c[0] == "printed"], ids=_case_id)
def test_printed_golden_matches_mpmath_sici(case):
    ((key, anchor),) = _anchors([case]).items()
    want = {tuple(r[:5]): r for r in _read()}[key]
    for col in range(5, 9):
        bound = ANCHOR_BOUNDS.get(key + (HEADER[col],), ANCHOR_RTOL)
        gap = _distance(want[col], anchor[col])
        assert gap <= bound, "%s: golden %r, mpmath Si/Ci %r (%.1e)" % (HEADER[col], want[col], anchor[col], gap)


def _write_golden():
    old = {tuple(r[:5]): r for r in _read()}
    rows = [_row(c) for c in _cases()]
    anchors = _anchors(_cases())
    with open(GOLDEN, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(HEADER)
        out.writerows(rows)
    for row in rows:
        key = tuple(row[:5])
        for col in range(5, 9):
            was = old.get(key, [""] * len(HEADER))[col]
            if row[col] == was:
                continue
            anchor = anchors.get(key)
            gaps = ("%.1e -> %.1e" % (_distance(was, anchor[col]), _distance(row[col], anchor[col]))
                    if anchor else "no mpmath anchor")
            print("%s %s: %s -> %s (mpmath distance %s)" % (",".join(key), HEADER[col], was, row[col], gaps))


if __name__ == "__main__":
    _write_golden()
