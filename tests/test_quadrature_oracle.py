"""The defining-integral quadrature oracle (``bath._kernel_quadrature``).

tests/data/oracle_pins.json holds nu and eta over cutoff x s x regime x
Lam tau, written by the oracle before its integrands were fused and its
tail batched; the rewrite returned every value bit for bit on the machine
that wrote them.  Other numpy, scipy and libm builds round differently, so
the values are held to 1e-13 relative.  Rewrite the file, after a change
that is meant to move the values, with ``PYTHONPATH=src python
tests/test_quadrature_oracle.py``.
"""

import json
import os
import sys

import numpy as np
import pytest

from qbmag import _rules, bath
from qbmag.bath import Cutoff, RegimeKind, SpectralDensity, ThermalRegime
from qbmag.errors import ConvergenceError, QbmagError

PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "oracle_pins.json")
LAM, GAMMA, OTH = 50.0, 1.0, 17.0
PIN_S = (0.3, 0.5, 1.0, 1.5, 2.5)
PIN_X = (0.0, 1e-3, 0.07, 1.0, 15.0, 120.0)


def _pin_cases():
    """(cutoff, s, regime, kind, Lam tau): nu in every regime at PIN_X, eta at PIN_X past 0."""
    for cutoff in Cutoff:
        for s in PIN_S:
            for rkind in RegimeKind:
                for x in PIN_X:
                    yield cutoff.value, s, rkind.value, "cos", x
            for x in PIN_X[1:]:
                yield cutoff.value, s, "low", "sin", x


def _oracle(cutoff, s, rkind, kind, x):
    """The oracle's value, or the name of the QbmagError it raises."""
    sd = SpectralDensity(s, Cutoff(cutoff), LAM, GAMMA)
    try:
        return bath._kernel_quadrature(sd, ThermalRegime(rkind, OTH), x / LAM, kind)
    except QbmagError as err:
        return type(err).__name__


def _load_pins():
    with open(PINS) as fh:
        return [tuple(row) for row in json.load(fh)]


def test_pins_cover_the_grid():
    assert [list(row[:5]) for row in _load_pins()] == [list(case) for case in _pin_cases()]


def test_oracle_matches_pinned_values():
    """Each value within 1e-13 of its pin, relative to the pin or, below 1%
    of its kernel's largest pin, to that 1%: a value that cancels down to
    the rounding of its terms keeps no relative digits."""
    pins = _load_pins()
    scale = {}
    for cutoff, s, rkind, kind, x, want in pins:
        if not isinstance(want, str):
            key = cutoff, s, rkind, kind
            scale[key] = max(scale.get(key, 0.0), abs(want))
    bad = []
    for cutoff, s, rkind, kind, x, want in pins:
        got = _oracle(cutoff, s, rkind, kind, x)
        if isinstance(want, str) or isinstance(got, str):
            ok = got == want
        else:
            ok = abs(got - want) <= 1e-13 * max(abs(want), 1e-2 * scale[cutoff, s, rkind, kind])
        if not ok:
            bad.append((cutoff, s, rkind, kind, x, want, got))
    assert not bad


def _euler_transform(partials):
    """The transform the incremental diagonal replaces: the partial sums
    averaged pairwise, row after row, down to one value."""
    row = list(partials)
    while len(row) > 1:
        row = [0.5 * (row[i] + row[i + 1]) for i in range(len(row) - 1)]
    return row[0]


@pytest.mark.parametrize("seed", range(20))
def test_euler_diagonal_is_the_repeated_average_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 61))
    terms = rng.uniform(0.1, 1.0, n) * (-1.0) ** np.arange(n) * rng.lognormal(0.0, 3.0)
    partials = np.cumsum(terms).tolist()
    diagonal = []
    for i, partial in enumerate(partials):
        diagonal = bath._euler_step(diagonal, partial)
        assert len(diagonal) == min(i + 1, bath._EULER_DEPTH)
        assert diagonal[-1] == _euler_transform(partials[max(0, i + 1 - bath._EULER_DEPTH) : i + 1])


def test_tail_stops_at_its_segment_cap(monkeypatch):
    """With no tolerance the tail never settles: it raises ConvergenceError
    after at most _TAIL_MAX_SEGMENTS segments past the first, the last
    batch cut short (the cap is not a multiple of the batch)."""
    monkeypatch.setattr(bath, "_TAIL_RTOL", 0.0)
    monkeypatch.setattr(bath, "_TAIL_FLOOR", 0.0)
    monkeypatch.setattr(bath, "_TAIL_MAX_SEGMENTS", 3 * bath._TAIL_BATCH + 5)
    segments = []
    gauss = _rules._gauss_segments
    monkeypatch.setattr(_rules, "_gauss_segments", lambda fn, edges: segments.append(edges.size - 1) or gauss(fn, edges))
    sd = SpectralDensity(1.0, Cutoff.DRUDE_LORENTZ, LAM, GAMMA)
    with pytest.raises(ConvergenceError):
        bath.noise_kernel_quadrature(sd, ThermalRegime(RegimeKind.LOW_TEMPERATURE), 1.0 / LAM)
    assert segments[0] == 1
    assert sum(segments[1:]) == bath._TAIL_MAX_SEGMENTS
    assert max(segments) <= bath._TAIL_BATCH


def _reference(sd, regime, kind, tau):
    if kind == "sin":
        return bath.dissipation_kernel_reference(sd, tau)
    if regime.kind is RegimeKind.EXACT:
        low = bath.noise_kernel_reference(sd, ThermalRegime(RegimeKind.LOW_TEMPERATURE), tau)
        return low + float(bath._bose_kernel_fn(sd, regime.omega_th)(tau))
    return bath.noise_kernel_reference(sd, regime, tau)


@pytest.mark.parametrize("cutoff", list(Cutoff))
@pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
def test_oracle_at_tiny_tau_is_right_or_raises(cutoff, s):
    """nu and eta at tau down to the smallest double: within 1e-10 of the
    closed transform (the exact regime: plus the Bose term), or the
    documented RangeError, and no warning (warnings are errors here).
    Values below the smallest normal double keep fewer digits."""
    sd = SpectralDensity(s, cutoff, LAM, GAMMA)
    cases = [(ThermalRegime(k, OTH), "cos") for k in RegimeKind] + [(bath._LOW, "sin")]
    for regime, kind in cases:
        for tau in (1e-200, 1e-300, 1e-310, 5e-324):
            try:
                got = bath._kernel_quadrature(sd, regime, tau, kind)
            except QbmagError as err:
                assert type(err).__name__ == "RangeError", (regime, kind, tau, err)
                continue
            want = _reference(sd, regime, kind, tau)
            assert abs(got - want) <= 1e-10 * abs(want) + sys.float_info.min, (regime, kind, tau, got, want)


def test_exponential_envelope_is_zero_past_its_underflow():
    sd = SpectralDensity(1.0, Cutoff.EXPONENTIAL, LAM, GAMMA)
    assert bath.spectral_density(sd, 745.0 * LAM) > 0.0
    assert bath.spectral_density(sd, np.array([746.0 * LAM, 1e300])).tolist() == [0.0, 0.0]


if __name__ == "__main__":
    rows = [list(case) + [_oracle(*case)] for case in _pin_cases()]
    with open(PINS, "w") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n")
