"""The fixed quadrature rules of ``bath`` and ``dynamics``, each built once.

* Gauss-Legendre rules of 12 nodes (the quadrature oracle's tail segments,
  ``_gauss_segments``), 16 nodes (the time panels and the Bose term's
  panels) and 24 nodes (the Drude-Lorentz middle band's tail panel),
  read-only;
* ``_jacobi_rule01``, the Golub-Welsch Gauss-Jacobi rule on [0, 1], and
  ``_rule_sums``, its fixed-order row sums against cos;
* the embedded 8-node estimate of the 16-node rule (``_PANEL_W``) and the
  Filon weights of the same panels (``_filon_weights``).

Every sum takes each row on its own, so a row depends only on its own
argument.  Which rule a kernel or panel takes, and with how many nodes, is
decided by the callers.
"""

import functools

import numpy as np
from scipy import linalg

#: the Gauss-Legendre rules of 12, 16 and 24 nodes, shared read-only
_GLX, _GLW = np.polynomial.legendre.leggauss(12)
_GX16, _GW16 = np.polynomial.legendre.leggauss(16)
_DRUDE_TAIL_X, _DRUDE_TAIL_W = np.polynomial.legendre.leggauss(24)
for _rule in (_GLX, _GLW, _GX16, _GW16, _DRUDE_TAIL_X, _DRUDE_TAIL_W):
    _rule.flags.writeable = False


def _gauss_segments(fn, edges):
    """12-node Gauss rules of fn over each [edges[i], edges[i + 1]], for one
    call of fn on nodes of shape (segments, 12); each row is summed on its
    own, by the pairwise sum that ``np.sum`` takes over 12 values."""
    a, b = edges[:-1, None], edges[1:, None]
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half[:, 0] * np.sum(_GLW * fn(mid + half * _GLX), axis=-1)


#: size of the cosine blocks evaluated at once: x (x) u in the Gauss-Jacobi
#: band, tau (x) omega in the Bose rule
_TRIG_BLOCK_BYTES = 1 << 20


@functools.lru_cache(maxsize=16)
def _jacobi_rule01(n, se):
    """n-node Gauss rule for int_0^1 u^se f(u) du, se > -1 (Golub-Welsch).

    Built from the three-term recurrence of the Jacobi polynomials
    P^(0, se); its weights keep full accuracy as se -> -1, where scipy's
    Gauss-Jacobi generator loses digits (1.6e-11 off on u^k moments at
    se = -0.9, 44 nodes).  The weights are accurate relative to the largest
    one, not each to its own size: u^se e^(-64 u), concentrated near u = 0,
    comes out up to 2.4e-14 off, so callers spread their integrand over [0, 1].
    """
    k = np.arange(1.0, n)
    s = 2.0 * k + se
    diag = np.concatenate([[se / (se + 2.0)], se * se / (s * (s + 2.0))])
    off = 2.0 * k * (k + se) / (s * np.sqrt(s * s - 1.0))
    t, vec = linalg.eigh_tridiagonal(diag, off)
    nodes, weights = 0.5 * (1.0 + t), vec[0] ** 2 / (se + 1.0)
    # cached and shared by every caller
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _rule_sums(x, nodes, weights):
    """sum_j weights_j cos(x_i nodes_j) for each x_i of a 1-d array, in blocks
    of ``_TRIG_BLOCK_BYTES``, each row summed on its own: a matrix product's
    rounding would depend on how many rows the block holds."""
    out = np.empty(x.size)
    rows = max(1, _TRIG_BLOCK_BYTES // (8 * nodes.size))
    for i in range(0, x.size, rows):
        block = np.multiply.outer(x[i : i + rows], nodes)
        np.cos(block, out=block)
        block *= weights
        out[i : i + rows] = block.sum(axis=1)
    return out


#: the weights of the 8-node interpolatory rule (degree 7, positive weights)
#: on the symmetric node subset of the 16-node rule, the time panels' error
#: estimate: row k of the inverse moment matrix _SUB_INV maps int P_k to them
_SUB = np.array([0, 2, 4, 6, 9, 11, 13, 15])
_SUB_INV = np.linalg.inv(np.polynomial.legendre.legvander(_GX16[_SUB], 7).T).T
_SUBW = 2.0 * _SUB_INV[0]

#: panel reduction weights: the 16-node rule, and its difference from the
#: embedded 8-node rule (zero weight off the subset)
_PANEL_W = np.column_stack([_GW16, _GW16 - np.bincount(_SUB, _SUBW, 16)])

#: Filon panel weights per spherical Bessel j_k(theta), k < 16, shape
#: (k, node, rule): int_-1^1 e^{i theta x} P_k(x) dx = 2 i^k j_k(theta), so the
#: full rule, which integrates the degree-15 interpolant at the Gauss nodes,
#: has row k = (2k+1) i^k P_k(x_j) w_j; the embedded 8-node rule takes the
#: moments k < 8 through _SUB_INV.  Row 0 is _PANEL_W.
_I_POW = np.tile([1.0, 1.0j, -1.0, -1.0j], 4)
_FILON = np.zeros((16, 16, 2), dtype=complex)
_FILON[:, :, 0] = _FILON[:, :, 1] = (
    (2.0 * np.arange(16.0) + 1.0)[:, None] * np.polynomial.legendre.legvander(_GX16, 15).T * _GW16
) * _I_POW[:, None]
_FILON[:8, _SUB, 1] -= (2.0 * _SUB_INV) * _I_POW[:8, None]
#: the same as a real (k, node x rule x (re, im)) matrix
_FILON_REAL = _FILON.view(float).reshape(16, 64)

#: j_k(theta), k < 16, takes its power series in -theta^2/2 (40 terms) up to
#: theta = 2; up to 12 the series gives j_15 and j_14 and the downward
#: recurrence the rest, past 12 the upward recurrence from j_0, j_1, each
#: stable there: within 7e-16 of 40-digit mpmath
_BESSEL_SERIES_TOP, _BESSEL_DOWNWARD_TOP = 2.0, 12.0
_K = np.arange(16.0)
_M = np.arange(1.0, 40.0)[:, None]
#: row m: 1/(m! (2k+3)(2k+5)...(2k+2m+1)), the coefficient of (-theta^2/2)^m
#: in j_k(theta) (2k+1)!!/theta^k
_BESSEL_SERIES = np.cumprod(np.vstack([np.ones(16), 1.0 / (_M * (2.0 * _K + 2.0 * _M + 1.0))]), axis=0)
_DOUBLE_FACTORIAL = np.cumprod(2.0 * _K + 1.0)


def _bessel_j16(theta):
    """Spherical Bessel j_k(theta), k = 0 .. 15, for an array theta >= 0,
    shape (theta, k); exact at theta = 0.  A row depends on its theta alone."""
    out = np.empty((theta.size, 16))
    near = theta <= _BESSEL_DOWNWARD_TOP
    t = theta[near, None]
    powers = np.repeat(-0.5 * t * t, len(_BESSEL_SERIES), axis=1)
    powers[:, 0] = 1.0
    # one matrix product per theta
    out[near] = (np.cumprod(powers, axis=1)[:, None] @ _BESSEL_SERIES)[:, 0] * t**_K / _DOUBLE_FACTORIAL
    rec = theta > _BESSEL_SERIES_TOP
    t = theta[rec]
    down = t <= _BESSEL_DOWNWARD_TOP
    # seq[m] is j_(15-m) downwards and j_m upwards; both take
    # j_(n+1) + j_(n-1) = (2n+1)/t j_n, one from each end
    seq = np.empty((16, t.size))
    j0 = np.sin(t) / t
    seq[0] = np.where(down, out[rec, 15], j0)
    seq[1] = np.where(down, out[rec, 14], (j0 - np.cos(t)) / t)
    k = np.arange(1.0, 15.0)[:, None]
    coef = np.where(down, 31.0 - 2.0 * k, 2.0 * k + 1.0) / t
    for i in range(14):
        np.multiply(coef[i], seq[i + 1], out=seq[i + 2])
        seq[i + 2] -= seq[i]
    out[rec] = np.where(down[:, None], seq[::-1].T, seq.T)
    return out


def _filon_weights(theta):
    """Panel weights of int_-1^1 e^{i theta x} g(x) dx for each theta >= 0 of
    an array, shape (theta, node, rule), rules as in ``_PANEL_W``: the full
    rule integrates the degree-15 interpolant of g at the 16 Gauss nodes
    exactly, the embedded rule the degree-7 one at the 8-node subset.  At
    theta = 0 the weights are ``_PANEL_W`` exactly.  Each theta takes its own
    matrix product, so its weights do not depend on the other theta."""
    j = _bessel_j16(np.asarray(theta, dtype=float))
    return (j[:, None] @ _FILON_REAL).view(complex).reshape(len(j), 16, 2)
