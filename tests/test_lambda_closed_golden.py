"""Golden-output guard for the analytic coefficients ``lambda_closed``.

tests/data/golden/lambda_closed.csv holds both variants for every Ohmic
cutoff x {high, low} combination at four times including t = 0, plus
exponential-cutoff rows at a tiny omega0 (B' ~ 1e-14) that reach the
small-argument limits of the validated lambda1 forms.  Values are written as
shortest round-trip floats; an empty lambda2 cell means no closed form.

Regenerate (only when an output change is intended and documented) with
``PYTHONPATH=src python tests/test_lambda_closed_golden.py``.
"""

import csv
import os

import pytest

from qbmag import coefficients
from qbmag.bath import Cutoff, RegimeKind, SpectralDensity, ThermalRegime
from qbmag.dynamics import SystemParams

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden", "lambda_closed.csv")

RTOL = 1e-14

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


def _close(got, want):
    if want == "":
        return got == ""
    g, w = float(got), float(want)
    return abs(g - w) <= RTOL * max(abs(g), abs(w))


@pytest.mark.parametrize("case", _cases(), ids=lambda c: "-".join(str(getattr(x, "value", x)) for x in c))
def test_lambda_closed_matches_golden(case):
    got = _row(case)
    want = {tuple(r[:5]): r for r in _read()}[tuple(got[:5])]
    for col in range(5, 9):
        assert _close(got[col], want[col]), "%s: %r != %r" % (HEADER[col], got[col], want[col])
    assert got[9] == want[9]


def _write_golden():
    with open(GOLDEN, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(HEADER)
        out.writerows(_row(c) for c in _cases())


if __name__ == "__main__":
    _write_golden()
