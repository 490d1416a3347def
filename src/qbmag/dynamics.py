"""Closed-system quantities for the charged oscillator in a magnetic field.

The trapped charge in a perpendicular field B has the two real mode
frequencies

    A' = (sqrt(4 w0^2 + wc^2) + wc) / 2,   B' = (sqrt(4 w0^2 + wc^2) - wc) / 2,

with wc = eB/m the cyclotron frequency.  They satisfy A'B' = w0^2 and
A'^2 + B'^2 = 2 w0^2 + wc^2, and reduce to w0 at wc = 0.  The kernel-weight
functions F1, F2 and the Heisenberg transfer matrix are built on the same
modes, so the transfer matrix solves the classical equations of motion
x'' = -w0^2 x + wc y', y'' = -w0^2 y - wc x' exactly.

``time_moments``, the one time-integration engine, integrates any vectorised
kernel against F1 and F2, taking the factor e^{i Lam tau} of a kernel split
as S + Re[a e^{i Lam tau}] exactly (Filon panels); ``decoherence._moments``,
its one caller, passes the kernel, its split and the panel rule that
``decoherence._kernel_for`` chooses.  Every panel is reduced on its own, so
the moments at a time depend only on the grid up to it.
"""

from dataclasses import dataclass

import numpy as np

from .bath import _require_finite
from .errors import DegenerateSystemError, DomainError


@dataclass(frozen=True)
class SystemParams:
    """Particle, trap, field and unit parameters (frequencies in gamma/m).

    ``omega_th`` is read by nothing (the thermal regime carries it); it
    stays because the benchmark's workloads pass it."""

    omega0: float
    omega_c: float
    m: float = 1.0
    hbar: float = 1.0
    omega_th: float = 0.0

    def __post_init__(self):
        _require_finite(self, ("omega0", "omega_c", "m", "hbar", "omega_th"))
        if self.m <= 0 or self.hbar <= 0:
            raise DomainError("m and hbar must be > 0")
        if self.omega0 < 0 or self.omega_c < 0:
            raise DomainError("omega0 and omega_c must be >= 0")
        if self.omega0 == 0 and self.omega_c == 0:
            raise DegenerateSystemError("omega0 = omega_c = 0 leaves the modes undefined")


@dataclass(frozen=True)
class ModeConstants:
    a_prime: float
    b_prime: float
    m_coef: float
    p_coef: float
    g_coef: float


def mode_constants(sys):
    """Mode frequencies A' >= B' >= 0 and the weights M, P (M + P = 1) and G."""
    root = np.sqrt(4.0 * sys.omega0**2 + sys.omega_c**2)
    a_prime = 0.5 * (root + sys.omega_c)
    b_prime = 0.5 * (root - sys.omega_c)
    m_coef = (root - sys.omega_c) / (2.0 * root)
    p_coef = (root + sys.omega_c) / (2.0 * root)
    g_coef = np.sqrt(2.0) * sys.omega0**2 / root
    return ModeConstants(a_prime, b_prime, m_coef, p_coef, g_coef)


def f_weight(sys, tau, which="F1"):
    """Kernel-weight functions F1, F2 of the decoherence master equation.

    F1 multiplies the position-position noise terms (F1(0) = 1), F2 the
    cross x-y terms (F2(0) = 0).  Accepts scalar or array tau >= 0;
    ValueError for any other ``which``.
    """
    tau = np.asarray(tau, dtype=float)
    mc = mode_constants(sys)
    ap, bp = mc.a_prime, mc.b_prime
    if which == "F1":
        out = mc.m_coef * np.cos(ap * tau) + mc.p_coef * np.cos(bp * tau)
    elif which == "F2":
        g = mc.g_coef
        if ap - bp < 1e-6 * ap:
            # cancellation-safe midpoint form of sin(b t)/b - sin(a t)/a
            zm = 0.5 * (ap + bp)
            out = g * (ap - bp) * (zm * tau * np.cos(zm * tau) - np.sin(zm * tau)) / zm**2
        elif bp > 0:
            out = g * (np.sin(bp * tau) / bp - np.sin(ap * tau) / ap)
        else:
            out = np.zeros_like(tau)  # B' = 0 means omega0 = 0, so G = 0
    else:
        raise ValueError("which must be 'F1' or 'F2', got %r" % (which,))
    return out if out.ndim else float(out)


def heisenberg_transfer(sys, tau):
    """Transfer matrix T(tau) with (x, y, vx, vy)(tau) = T(tau) (X, Y, Vx, Vy).

    T(0) is the identity and every column solves the classical equations of
    motion of the trapped charge.  The x-row coefficient of X equals
    F1(tau); the coefficient of Y equals -F2(tau)/sqrt(2).
    """
    tau = float(tau)
    mc = mode_constants(sys)
    w1, w2 = mc.a_prime, mc.b_prime
    root = w1 + w2
    c1, c2 = np.cos(w1 * tau), np.cos(w2 * tau)
    s1, s2 = np.sin(w1 * tau), np.sin(w2 * tau)
    # position rows from zeta = x + i y, zeta(t) = [(w1 e^{i w2 t} + w2 e^{-i w1 t}) Z
    #                                              + i (e^{-i w1 t} - e^{i w2 t}) W]/root
    xx = (w1 * c2 + w2 * c1) / root
    xy = -(w1 * s2 - w2 * s1) / root
    xvx = (s1 + s2) / root
    xvy = -(c1 - c2) / root
    # time derivatives of the four coefficients above
    dxx = (-w1 * w2 * s2 - w2 * w1 * s1) / root
    dxy = -(w1 * w2 * c2 - w2 * w1 * c1) / root
    dxvx = (w1 * c1 + w2 * c2) / root
    dxvy = (w1 * s1 - w2 * s2) / root
    return np.array(
        [
            [xx, xy, xvx, xvy],
            [-xy, xx, -xvy, xvx],
            [dxx, dxy, dxvx, dxvy],
            [-dxy, dxx, -dxvy, dxvx],
        ]
    )


#: 16-node Gauss-Legendre panel rule of the time integration, and the weights
#: of the 8-node interpolatory rule on its symmetric node subset (degree 7,
#: positive weights) whose difference from the full rule is the error estimate:
#: row k of the inverse moment matrix _SUB_INV maps int P_k to the weights
_GX, _GW = np.polynomial.legendre.leggauss(16)
_SUB = np.array([0, 2, 4, 6, 9, 11, 13, 15])
_SUB_INV = np.linalg.inv(np.polynomial.legendre.legvander(_GX[_SUB], 7).T).T
_SUBW = 2.0 * _SUB_INV[0]

#: panel reduction weights: the 16-node rule, and its difference from the
#: embedded 8-node rule (zero weight off the subset)
_PANEL_W = np.column_stack([_GW, _GW - np.bincount(_SUB, _SUBW, 16)])

#: Filon panel weights per spherical Bessel j_k(theta), k < 16, shape
#: (k, node, rule): int_-1^1 e^{i theta x} P_k(x) dx = 2 i^k j_k(theta), so the
#: full rule, which integrates the degree-15 interpolant at the Gauss nodes,
#: has row k = (2k+1) i^k P_k(x_j) w_j; the embedded 8-node rule takes the
#: moments k < 8 through _SUB_INV.  Row 0 is _PANEL_W.
_I_POW = np.tile([1.0, 1.0j, -1.0, -1.0j], 4)
_FILON = np.zeros((16, 16, 2), dtype=complex)
_FILON[:, :, 0] = _FILON[:, :, 1] = (
    (2.0 * np.arange(16.0) + 1.0)[:, None] * np.polynomial.legendre.legvander(_GX, 15).T * _GW
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


#: longest tail panel relative to the start of its grid interval
_TAIL_SPAN = 0.5

#: kernel nodes evaluated at once; bounds the working memory of a curve
#: whatever its number of panels
_NODE_BLOCK = 1 << 14


@dataclass(frozen=True)
class TimeMoments:
    """Running moments on a time grid, one row per grid point, columns F1, F2.

    c0 = int_0^t nu F du and c1 = int_0^t u nu F du from the 16-node panel
    rule; d0, d1 are the running differences between that rule and its
    embedded 8-node sub-rule on the same kernel values.  ``nodes`` kernel
    evaluations on ``panels`` panels produced them.
    """

    c0: np.ndarray
    c1: np.ndarray
    d0: np.ndarray
    d1: np.ndarray
    nodes: int
    panels: int


def _split(lo, hi, pieces):
    """Right ends of ``pieces`` equal parts of each [lo, hi], in order, as
    np.linspace(lo, hi, pieces + 1)[1:] gives them, and the segment of each."""
    seg = np.repeat(np.arange(len(pieces)), pieces)
    first = np.cumsum(pieces) - pieces
    j = np.arange(seg.size) - first[seg] + 1.0
    ends = lo[seg] + j * ((hi - lo) / pieces)[seg]
    ends[first + pieces - 1] = hi
    return ends, seg


def _panel_edges(grid, mode_freq, lam, until, tail=np.inf):
    """Gauss panel edges over [0, grid[-1]] for an increasing grid >= 0, and
    the number of panels up to and including each grid point.

    The interval [0, b] is first cut geometrically at b 2^-42 ... b/2, b;
    every part, and every other grid interval, is then split into
    ceil(length/maxlen) equal panels, maxlen half a period of the mode
    frequency A' + B', plus Lam on the grid intervals that start below
    ``until``.  On the grid intervals that start at a >= ``tail`` maxlen is
    also at most _TAIL_SPAN a, so the smooth factors of a split kernel,
    powers of u, vary little across a panel.
    """
    grid = np.asarray(grid, dtype=float)
    a = np.concatenate([[0.0], grid[:-1]])
    live = grid > a
    freq = mode_freq + np.where(a < until, lam, 0.0)
    maxlen = np.pi / np.maximum(freq, 1e-12)
    maxlen = np.where(a >= tail, np.minimum(maxlen, _TAIL_SPAN * a), maxlen)
    head = np.nonzero(live & (a == 0.0))[0]  # the first live interval, if any
    rest = np.nonzero(live & (a > 0.0))[0]
    geometric = grid[head, None] * 2.0 ** -np.arange(42.0, -1.0, -1.0)
    upper = np.concatenate([geometric.ravel(), grid[rest]])
    owner = np.concatenate([np.repeat(head, geometric.shape[1]), rest])
    low = np.concatenate([[0.0], upper])[:-1]
    pieces = np.maximum(1, np.ceil((upper - low) / maxlen[owner]).astype(int))
    upper, seg = _split(low, upper, pieces)
    return np.concatenate([[0.0], upper]), np.cumsum(np.bincount(owner[seg], minlength=len(grid)))


def _moment_values(values, fs, u):
    """nu F and u nu F for kernel values nu (panel, node), as (panel, moment x column, node)."""
    v = values[:, None] * fs
    return np.stack([v, v * u[:, None]], axis=1).reshape(len(u), 4, 16)


def time_moments(sys, kernel, grid, lam, until, parts=None):
    """Integrate a vectorised kernel against F1 and F2 from 0 to each time of an
    increasing grid >= 0.

    Segments between grid points are subdivided so each 16-node Gauss panel
    sees at most half a period of the fastest oscillation: the mode
    frequency A' + B', plus the cutoff Lam on the grid intervals that start
    below ``until``, where the caller says the kernel still varies on the
    1/Lam scale (``decoherence._kernel_for`` sets it); half a period per panel
    keeps each panel at ~1e-12 relative.  The first segment is refined
    geometrically towards 0, where several kernels have an integrable log or
    inverse-square-root singularity.

    ``parts``, if given, splits the kernel past ``until``: there it is
    S + Re[a e^{i Lam u}] with S and a smooth, (S, a) = parts(u).  Panels on
    the grid intervals that start past ``until`` span at most half the
    interval's start, over which S and a, powers of u, are nearly
    polynomial.  A panel that starts at or past ``until`` calls ``parts``
    instead of ``kernel``; its S takes the Gauss rule of the kernel values,
    and a F e^{i Lam u} the Filon weights of ``_filon_weights``.

    The panels of the whole grid are laid out at once and evaluated in
    blocks of at most ``_NODE_BLOCK`` nodes: one F1, F2 evaluation and one
    kernel call (one parts call for the block's split panels) per block.
    Each panel is reduced on its own, one matrix product per panel, by the
    16-node rule and the embedded 8-node rule on the same values, and a
    running sum adds the panels in order, so a row of the moments depends
    only on the grid up to its time and on no block size.
    Memory is O(block + grid), time O(nodes).  A kernel that overflows
    gives non-finite moments from that panel on, without numpy warnings;
    callers flag them.
    """
    mc = mode_constants(sys)
    start = np.inf if parts is None else until
    edges, counts = _panel_edges(grid, mc.a_prime + mc.b_prime, lam, until, start)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    n_panels = len(mid)
    n_head = int(np.searchsorted(edges[:-1], start))  # panels that start below `start`
    per_block = max(1, _NODE_BLOCK // 16)
    run = np.zeros((1, 4, 2), dtype=complex)  # (panel, moment x column, rule)
    out = np.zeros((len(counts), 4, 2), dtype=complex)
    for p0 in range(0, n_panels, per_block):
        p1 = min(n_panels, p0 + per_block)
        u = mid[p0:p1, None] + half[p0:p1, None] * _GX
        fs = np.stack([f_weight(sys, u, "F1"), f_weight(sys, u, "F2")], axis=1)  # (panel, column, node)
        cut = min(max(n_head - p0, 0), p1 - p0)  # the block's panels that start below `start`
        split = cut < p1 - p0
        with np.errstate(over="ignore", invalid="ignore"):
            vals = [np.asarray(kernel(u[:cut].ravel())).reshape(cut, 16)] if cut else []
            if split:
                smooth, amp = (v.reshape(u[cut:].shape) for v in parts(u[cut:].ravel()))
                vals.append(smooth)
            # the kernel values, S on the split panels, by both rules
            part = _moment_values(np.concatenate(vals), fs, u) @ _PANEL_W
            if split:
                # the split panels add a F e^{i Lam u} by the Filon weights
                # of their Lam h, computed once per distinct h
                theta, which = np.unique(lam * half[p0 + cut : p1], return_inverse=True)
                osc = _moment_values(amp, fs[cut:], u[cut:]) @ _filon_weights(theta)[which]
                part[cut:] += (osc * np.exp(1j * lam * mid[p0 + cut : p1])[:, None, None]).real
            part = part * half[p0:p1, None, None]
            total = np.cumsum(np.concatenate([run, part]), axis=0)
        rows = slice(np.searchsorted(counts, p0, "right"), np.searchsorted(counts, p1, "right"))
        out[rows] = total[counts[rows] - p0]
        run = total[-1:]
    c, d = out[..., 0], out[..., 1]
    return TimeMoments(c[:, :2], c[:, 2:], d[:, :2], d[:, 2:], nodes=16 * n_panels, panels=n_panels)
