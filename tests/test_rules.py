"""The fixed quadrature rules of ``qbmag._rules``: their degrees of
exactness, the Filon weights and their Bessel functions against mpmath, and
sums whose rows depend only on their own argument."""

import ast
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from qbmag import _rules, bath
from qbmag.bath import Cutoff, RegimeKind, SpectralDensity, ThermalRegime
from test_quadrature_oracle import GAMMA, LAM, OTH

EPS = np.finfo(float).eps

#: every Gauss-Legendre rule, by size
LEGENDRE = {
    12: (_rules._GLX, _rules._GLW),
    16: (_rules._GX16, _rules._GW16),
    24: (_rules._DRUDE_TAIL_X, _rules._DRUDE_TAIL_W),
}


def _legendre_moments(k):
    # int_-1^1 x^k dx
    return np.where(k % 2 == 0, 2.0 / (k + 1.0), 0.0)


@pytest.mark.parametrize("n", sorted(LEGENDRE))
def test_gauss_legendre_rules_integrate_monomials(n):
    # exact for degree <= 2n - 1; the 2n terms of each sum have |w x^k| <= w,
    # and the weights sum to 2, so the rounding is below 2n eps
    x, w = LEGENDRE[n]
    assert x.size == w.size == n and not (x.flags.writeable or w.flags.writeable)
    k = np.arange(2 * n)
    moments = (w * x ** k[:, None]).sum(axis=1)
    assert np.max(np.abs(moments - _legendre_moments(k))) <= 2 * n * EPS


def test_embedded_rule_integrates_monomials_to_degree_seven():
    # the second panel column is the 16-node rule minus the 8-node one, so
    # their difference is the 8-node rule, zero off its node subset
    sub = _rules._GW16 - _rules._PANEL_W[:, 1]
    assert np.array_equal(_rules._PANEL_W[:, 0], _rules._GW16)
    assert np.flatnonzero(sub).tolist() == _rules._SUB.tolist()
    assert np.array_equal(sub[_rules._SUB], _rules._SUBW) and np.all(_rules._SUBW > 0)
    k = np.arange(9)
    moments = (sub * _rules._GX16 ** k[:, None]).sum(axis=1)
    err = np.abs(moments - _legendre_moments(k))
    assert np.max(err[:8]) <= 2 * 8 * EPS
    # and no further: degree 8 is where the estimate starts to see a panel
    assert err[8] > 1e-3


@pytest.mark.parametrize("n", [16, 36, 40])
@pytest.mark.parametrize("se", [-0.9, -0.5, 0.0, 0.5, 1.5, 3.0])
def test_jacobi_rule_moments(n, se):
    # exact for u^k, k < 2n.  The Golub-Welsch weights are squared first
    # components of eigenvectors, accurate to O(n eps) relative to the
    # largest weight, not each to its own size; 8 covers the square and the
    # 2n-term moment sums
    u, w = _rules._jacobi_rule01(n, se)
    assert np.all((u > 0) & (u < 1)) and np.all(w > 0)
    k = np.arange(2 * n)
    moments = (w * u ** k[:, None]).sum(axis=1)
    assert np.max(np.abs(moments - 1.0 / (se + k + 1.0))) <= 8 * n * EPS * w.max()


def test_jacobi_rule_is_built_once():
    first = _rules._jacobi_rule01(36, 0.5)
    assert _rules._jacobi_rule01(36, 0.5) is first
    assert not (first[0].flags.writeable or first[1].flags.writeable)


def test_rule_sums_depend_only_on_x():
    # a row sum is a function of its x alone, not of the other x of the call
    # or of the block it falls in: 8,000 x span three blocks of the 36-node rule
    u, w = _rules._jacobi_rule01(36, 0.5)
    assert _rules._TRIG_BLOCK_BYTES // (8 * u.size) < 4000
    x = np.logspace(-3.0, 2.0, 8000)
    together = _rules._rule_sums(x, u, w)
    alone = np.concatenate([_rules._rule_sums(x[i : i + 1], u, w) for i in range(x.size)])
    assert together.tobytes() == alone.tobytes()


def test_jacobi_rule_integrates_moments():
    # the Gauss-Jacobi rule of the middle band is exact for u^k, k < 2n,
    # also as se -> -1, where scipy.special.roots_jacobi loses digits
    for se in (-0.9, -0.5, 0.0, 0.3, 2.5):
        u, w = _rules._jacobi_rule01(bath._TRIG_JACOBI_NODES, se)
        k = np.arange(2 * u.size)
        moments = (w * u ** k[:, None]).sum(axis=1)
        assert np.max(np.abs(moments * (se + k + 1.0) - 1.0)) < 1e-13, se


def test_gauss_segments_in_one_call_equal_segments_one_by_one():
    sd = SpectralDensity(0.5, Cutoff.DRUDE_LORENTZ, LAM, GAMMA)
    part = bath._integrand_parts(sd, ThermalRegime(RegimeKind.EXACT, OTH), bath._ARRAY)[1]
    fn = lambda w: part(w) * np.cos(0.3 * w)
    edges = (np.arange(4, 40) + 0.5) * np.pi / 0.3
    batch = _rules._gauss_segments(fn, edges)
    one = [_rules._gauss_segments(fn, edges[i : i + 2])[0] for i in range(edges.size - 1)]
    assert batch.tolist() == one


def test_filon_weights_at_zero_are_the_panel_rule():
    w = _rules._filon_weights(np.array([0.0, 0.0]))
    assert w.shape == (2, 16, 2)
    assert np.array_equal(w[0].real, _rules._PANEL_W) and np.all(w[0].imag == 0.0)
    assert np.array_equal(w[1], w[0])


def test_filon_weights_depend_only_on_theta():
    # a weight is a function of its theta alone, not of the other theta of the call
    theta = np.logspace(-3.0, 3.0, 500)
    together = _rules._filon_weights(theta)
    alone = np.concatenate([_rules._filon_weights(theta[i : i + 1]) for i in range(theta.size)])
    assert together.tobytes() == alone.tobytes()


def _oscillating_moment_mp(k, theta):
    # int_-1^1 x^k e^{i theta x} dx by the recurrence in k, at a precision
    # that outlasts its (k/theta)^k cancellation
    with mp.workdps(150):
        t = mp.mpf(theta)
        out = 2 * mp.sin(t) / t
        for j in range(1, k + 1):
            ends = (mp.expj(t) - (-1) ** j * mp.expj(-t)) / (1j * t)
            out = ends - j / (1j * t) * out
        return complex(out)


@pytest.mark.parametrize("theta", [1e-6, 0.5, 7.0, 40.0, 1e4])
def test_filon_weights_integrate_oscillating_monomials(theta):
    # the full rule is exact for x^k e^{i theta x}, k <= 15, the embedded one
    # for k <= 7; the rule difference is the second column
    w = _rules._filon_weights(np.array([theta]))[0]
    full, sub = w[:, 0], w[:, 0] - w[:, 1]
    for k in range(16):
        want = _oscillating_moment_mp(k, theta)
        assert abs(np.sum(full * _rules._GX16**k) - want) <= 1e-14, k
        if k < 8:
            assert abs(np.sum(sub * _rules._GX16**k) - want) <= 1e-14, k


def test_bessel_functions_of_the_filon_weights():
    # j_k(theta), k < 16, across the series, downward and upward seams at 2 and 12
    theta = np.array([0.0, 1e-300, 1e-6, 0.5, 2.0, 2.0 + 1e-12, 7.0, 12.0, 12.0 + 1e-12, 4 * np.pi, 40.0, 1e4])
    got = _rules._bessel_j16(theta)
    assert got[0, 0] == 1.0 and np.all(got[0, 1:] == 0.0)
    with mp.workdps(40):
        for t, row in zip(theta[1:], got[1:]):
            want = [float(mp.sqrt(mp.pi / (2 * mp.mpf(t))) * mp.besselj(k + 0.5, mp.mpf(t))) for k in range(16)]
            assert np.max(np.abs(row - want)) <= 1e-15, t


def test_rules_import_no_qbmag_module():
    tree = ast.parse(Path(_rules.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import in _rules"
            imported.add(node.module.split(".")[0])
    assert imported <= {"functools", "numpy", "scipy"}, imported
