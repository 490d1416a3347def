"""Closed-system quantities for the charged oscillator in a magnetic field.

The trapped charge in a perpendicular field B has the two real mode
frequencies

    A' = (sqrt(4 w0^2 + wc^2) + wc) / 2,   B' = (sqrt(4 w0^2 + wc^2) - wc) / 2,

with wc = eB/m the cyclotron frequency.  They satisfy A'B' = w0^2 and
A'^2 + B'^2 = 2 w0^2 + wc^2, and reduce to w0 at wc = 0.  The kernel-weight
functions F1..F4 and the Heisenberg transfer matrix are built on the same
modes, so the transfer matrix solves the classical equations of motion
x'' = -w0^2 x + wc y', y'' = -w0^2 y - wc x' exactly.
"""

from dataclasses import dataclass

import numpy as np

from .bath import Cutoff, _reference_kernel_fn, _require_finite, dissipation_kernel_quadrature
from .errors import DegenerateSystemError, DomainError

_F_NAMES = ("F1", "F2", "F3", "F4")


@dataclass(frozen=True)
class SystemParams:
    """Particle, trap, field and unit parameters (frequencies in gamma/m)."""

    omega0: float
    omega_c: float
    m: float = 1.0
    gamma: float = 1.0
    hbar: float = 1.0
    omega_th: float = 0.0

    def __post_init__(self):
        _require_finite(self, ("omega0", "omega_c", "m", "gamma", "hbar", "omega_th"))
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


def _sinc(z, tau):
    """sin(z tau)/z, finite at z = 0."""
    return tau * np.sinc(z * np.asarray(tau) / np.pi)


def f_weight(sys, tau, which="F1"):
    """Kernel-weight functions F1..F4 of the decoherence master equation.

    F1 multiplies the position-position noise terms (F1(0) = 1), F2 the
    cross x-y terms (F2(0) = 0), F3 and F4 the momentum-damping terms that
    the decoherence-only equation drops; they are exposed for inspection.
    Accepts scalar or array tau >= 0.
    """
    tau = np.asarray(tau, dtype=float)
    mc = mode_constants(sys)
    ap, bp = mc.a_prime, mc.b_prime
    root = ap + bp
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
    elif which == "F3":
        out = -(
            (sys.omega_c + root) * _sinc(ap, tau) + (root - sys.omega_c) * _sinc(bp, tau)
        ) / (sys.m * np.sqrt(2.0) * root)
    elif which == "F4":
        out = 2.0 * sys.omega_c * (np.cos(ap * tau) + np.cos(bp * tau)) / (sys.m * root)
    else:
        raise ValueError("which must be one of %s" % (_F_NAMES,))
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
#: positive weights) whose difference from the full rule is the error estimate
_GX, _GW = np.polynomial.legendre.leggauss(16)
_SUB = np.array([0, 2, 4, 6, 9, 11, 13, 15])
_SUBW = np.linalg.solve(np.polynomial.legendre.legvander(_GX[_SUB], 7).T, np.eye(8)[0] * 2.0)


def _sub_nodes(x):
    """Values at the embedded rule's nodes, from values at all 16 nodes per panel."""
    return x.reshape(-1, 16)[:, _SUB].ravel()


@dataclass(frozen=True)
class TimeMoments:
    """Running moments on a time grid, one row per grid point, columns F1, F2.

    c0 = int_0^t nu F du and c1 = int_0^t u nu F du from the 16-node panel
    rule; d0, d1 are the running differences between that rule and its
    embedded 8-node sub-rule on the same kernel values.
    """

    c0: np.ndarray
    c1: np.ndarray
    d0: np.ndarray
    d1: np.ndarray


def time_moments(sys, kernel, grid, lam, oscillates):
    """Integrate a vectorised kernel against F1 and F2 from 0 to each grid time.

    Segments between grid points are subdivided so each 16-node Gauss panel
    sees at most half a period of the fastest oscillation, the mode
    frequency A' + B' plus the cutoff Lam while the kernel still oscillates
    on the 1/Lam scale (always when ``oscillates``, else for t < 30/Lam);
    half a period per panel keeps each panel at ~1e-12 relative.  The first
    segment is refined geometrically towards 0, where several kernels have
    an integrable log or inverse-square-root singularity.  Every panel
    evaluates the kernel once; the embedded 8-node rule reuses those values.
    """
    mc = mode_constants(sys)
    edges = np.concatenate([[0.0], grid])
    mode_freq = mc.a_prime + mc.b_prime
    run = np.zeros((4, 2), dtype=complex)  # c0, c1, d0, d1
    out = np.empty((4, len(grid), 2), dtype=complex)
    for i in range(len(grid)):
        a, b = edges[i], edges[i + 1]
        if b > a:
            freq = mode_freq + (lam if (oscillates or a < 30.0 / lam) else 0.0)
            maxlen = np.pi / max(freq, 1e-12)
            if a == 0.0:
                sub = np.concatenate([[0.0], b * 2.0 ** -np.arange(42.0, -1.0, -1.0)])
            else:
                sub = np.linspace(a, b, max(1, int(np.ceil((b - a) / maxlen))) + 1)
            refine = np.maximum(1, np.ceil(np.diff(sub) / maxlen).astype(int))
            if np.any(refine > 1):
                sub = np.concatenate(
                    [[sub[0]]]
                    + [np.linspace(sub[j], sub[j + 1], refine[j] + 1)[1:] for j in range(len(refine))]
                )
            mid = 0.5 * (sub[1:] + sub[:-1])
            half = 0.5 * (sub[1:] - sub[:-1])
            u = (mid[:, None] + half[:, None] * _GX[None, :]).ravel()
            w = (half[:, None] * _GW[None, :]).ravel()
            nu = np.asarray(kernel(u))
            fs = (f_weight(sys, u, "F1"), f_weight(sys, u, "F2"))
            fine0 = np.array([np.sum(w * nu * f) for f in fs])
            fine1 = np.array([np.sum(w * u * nu * f) for f in fs])
            # the embedded rule on the same kernel values
            ws = (half[:, None] * _SUBW[None, :]).ravel()
            us, nus = _sub_nodes(u), _sub_nodes(nu)
            coarse0 = np.array([np.sum(ws * nus * _sub_nodes(f)) for f in fs])
            coarse1 = np.array([np.sum(ws * us * nus * _sub_nodes(f)) for f in fs])
            run = run + np.array([fine0, fine1, fine0 - coarse0, fine1 - coarse1])
        out[:, i] = run
    return TimeMoments(*out)


def frequency_shift(sys, sd, t_max, with_tail_estimate=False):
    """Trap-frequency renormalisation -(2/m) int_0^{t_max} eta(tau) F1(tau) dtau.

    Integrates the closed transform of eta where catalogued, the defining
    quadrature at every node otherwise.  The tail estimate is the
    contribution of [t_max, 4 t_max], a self-convergence proxy for the
    truncation error.
    """
    if t_max <= 0:
        raise DomainError("t_max must be > 0")
    eta = _reference_kernel_fn(sd, None, "sin")
    if eta is None:
        eta = np.vectorize(lambda u: dissipation_kernel_quadrature(sd, u), otypes=[float])
    mom = time_moments(sys, eta, np.array([t_max, 4.0 * t_max]), sd.lam, sd.cutoff is Cutoff.ABRUPT)
    main, total = (float(c) for c in mom.c0[:, 0].real)
    shift = -(2.0 / sys.m) * main
    if with_tail_estimate:
        return shift, abs(2.0 / sys.m * (total - main))
    return shift
