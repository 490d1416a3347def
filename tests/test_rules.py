"""The fixed quadrature rules of ``qbmag._rules``: their degrees of
exactness, and sums whose rows depend only on their own argument."""

import ast
from pathlib import Path

import numpy as np
import pytest

from qbmag import _rules

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


@pytest.mark.parametrize("trig", [np.cos, np.sin])
def test_rule_sums_depend_only_on_x(trig):
    # a row sum is a function of its x alone, not of the other x of the call
    # or of the block it falls in: 8,000 x span three blocks of the 36-node rule
    u, w = _rules._jacobi_rule01(36, 0.5)
    assert _rules._TRIG_BLOCK_BYTES // (8 * u.size) < 4000
    x = np.logspace(-3.0, 2.0, 8000)
    together = _rules._rule_sums(x, u, w, trig)
    alone = np.concatenate([_rules._rule_sums(x[i : i + 1], u, w, trig) for i in range(x.size)])
    assert together.tobytes() == alone.tobytes()


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
