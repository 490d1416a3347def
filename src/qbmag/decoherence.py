"""Decoherence exponents and the temporal decay of the reduced density matrix.

The off-diagonal element at separation (dx, dy) decays as

    rho(t)/rho(0) = exp(-(D1(t) + D2(t))),
    D1(t) = (dx^2 + dy^2) int_0^t lambda1,   D2(t) = 2 dx dy int_0^t lambda2,

where the factor 2 in D2 matches the cross term of the decay-rate functional
D(t) = lambda1 (dx^2+dy^2) + 2 lambda2 dx dy.  Both cumulative integrals are
computed on a shared time grid in a single pass through the identity
int_0^t (t-u) f(u) du = t c0(t) - c1(t) with c0, c1 the running moments of
f = nu F / hbar, so a whole curve costs one pass of kernel evaluations,
made in blocks of nodes (``dynamics.time_moments``).

``_moments``, the one entry to that engine for curves, criterion 5 and
``frequency_shift``, checks the grid and carries out the plan of
``_kernel_for``: the kernel, how far panels resolve Lam and its split.
"""

from dataclasses import dataclass

import numpy as np

from .bath import (
    LAM_TAU_MAX,
    _LOW,
    Cutoff,
    RegimeKind,
    _bose_kernel_fn,
    _oscillating_tail,
    _pole_sum,
    _reference_kernel_fn,
    closed_kernel_error,
    noise_kernel_closed_parts,
)
from .bath import noise_kernel_quadrature  # unused here; perfbench/trace.py wraps this binding
from .dynamics import TimeMoments, mode_constants, time_moments
from .errors import DomainError, UnsupportedFormError

#: magnitudes below this are clamped and flagged rather than returned as 0
UNDERFLOW_CLAMP = 1e-300

#: largest exponent magnitude fed to exp() before clamping
_EXP_LIMIT = 690.77  # -log(UNDERFLOW_CLAMP)

FLAG_OK = 0
FLAG_CLAMPED = 1
FLAG_FALLBACK = 2
FLAG_ERROR = 3

METHODS = ("quadrature", "closed")  # the kernel paths of curves; see _kernel_for


@dataclass(frozen=True)
class Separation:
    """Off-diagonal position separations dx = x - x', dy = y - y'."""

    dx: float
    dy: float

    def __post_init__(self):
        if not (np.isfinite(self.dx) and np.isfinite(self.dy)):
            raise DomainError("separations must be finite")


@dataclass(frozen=True)
class DecoherenceExponent:
    d1: complex
    d2: complex
    t: float


@dataclass(frozen=True)
class CurveSeries:
    times: np.ndarray
    magnitude: np.ndarray
    phase: np.ndarray
    lambda1: np.ndarray
    lambda2: np.ndarray
    method: tuple
    err_flag: np.ndarray
    est_error: np.ndarray


def _kernel_for(sd, regime, method="quadrature", kind="cos"):
    """(kernel, until, parts): the vectorised nu, or with kind='sin' and the
    low regime eta, and how ``time_moments`` integrates it.

    Every kernel is the closed transform of the defining integral, in the
    exact regime the closed low-temperature transform plus the Bose term.
    method='closed' differs only where the catalogue does: for the Ohmic
    Drude-Lorentz nu it is the Matsubara pole-sum form of
    ``noise_kernel_closed_parts``.  DomainError (``bath.require_integrable``)
    for a kernel not integrable at tau = 0.

    ``until`` is the panel rule: panels resolve the cutoff Lam on the grid
    intervals that start below it.  The abrupt kernels outside the exact
    regime come with ``parts``, their split past Lam tau = 36
    (``bath._oscillating_tail``), whose e^{i Lam tau} the engine integrates
    exactly, so panels resolve 1/Lam only below until = 36/Lam.  They
    resolve it at every tau for the kernels that oscillate at Lam with no
    split, the exact-regime abrupt kernel (its Bose term is cut at Lam when
    40 Omega_th > Lam), and for the pole-sum form, which grows as
    cosh(Lam tau); every other kernel has settled past 30/Lam.  ``parts`` is
    None for all but the split kernels."""
    settled = 30.0 / sd.lam
    abrupt = sd.cutoff is Cutoff.ABRUPT
    if method == "closed" and kind == "cos" and _pole_sum(sd):
        return (lambda taus: noise_kernel_closed_parts(sd, regime, taus)), np.inf, None
    if regime.kind is RegimeKind.EXACT:
        low = _reference_kernel_fn(sd, _LOW, kind)
        bose = _bose_kernel_fn(sd, regime.omega_th)
        return (lambda taus: low(taus) + bose(taus)), (np.inf if abrupt else settled), None
    kernel = _reference_kernel_fn(sd, regime, kind)
    if abrupt:
        return (kernel, *_oscillating_tail(sd, regime, kind))
    return kernel, settled, None


def _moments(sys, sd, regime, grid, method="quadrature", kind="cos"):
    """``time_moments`` of the plan ``_kernel_for`` makes, on a finite, strictly
    increasing grid >= 0 (DomainError otherwise); zero, with no kernel, at gamma = 0."""
    grid = np.asarray(grid, dtype=float)
    good = grid.ndim == 1 and len(grid) and np.all(np.isfinite(grid)) and grid[0] >= 0
    if not (good and np.all(np.diff(grid) > 0)):
        raise DomainError("grid must be finite, strictly increasing and start at >= 0")
    if sd.gamma == 0.0:
        zeros = np.zeros((len(grid), 2), dtype=complex)
        return TimeMoments(zeros, zeros, zeros, zeros, nodes=0, panels=0)
    kernel, until, parts = _kernel_for(sd, regime, method, kind)
    return time_moments(sys, kernel, grid, sd.lam, until, parts)


def _exponent_arrays(sys, sd, regime, grid, method):
    """(int_0^t lambda dt', lambda, estimated error of the first) on `grid`,
    columns lambda1 and lambda2."""
    mom = _moments(sys, sd, regime, grid, method)
    tcol = np.asarray(grid)[:, None]
    int_lam = (tcol * mom.c0 - mom.c1) / sys.hbar
    int_err = (tcol * mom.d0 - mom.d1) / sys.hbar
    return int_lam, mom.c0 / sys.hbar, int_err


def exponents(sys, sd, regime, sep, t):
    """Cumulative decoherence exponents D1(t), D2(t) at a single time."""
    if t < 0:
        raise DomainError("t must be >= 0")
    int_lam = _exponent_arrays(sys, sd, regime, np.array([float(t)]), "quadrature")[0]
    d1 = (sep.dx**2 + sep.dy**2) * int_lam[0, 0]
    d2 = 2.0 * sep.dx * sep.dy * int_lam[0, 1]
    return DecoherenceExponent(complex(d1), complex(d2), float(t))


def density_ratio(sys, sd, regime, sep, t):
    """(|rho(t)/rho(0)|, phase) of ``curve`` on the one-point grid [t], so
    flagged the same way: a magnitude below 1e-300 reads 1e-300, and one
    above 1e300 (Re D < -690) reads NaN."""
    cs = curve(sys, sd, regime, sep, np.array([float(t)]))
    return float(cs.magnitude[0]), float(cs.phase[0])


def hightemp_rate(sys, sd, regime, sep):
    """Long-time classical decay rate gamma Omega_th (dx^2 + dy^2) / (2 hbar) of
    the bath ``sd`` in the high-temperature ``regime`` (DomainError otherwise).

    Pure formula (no integration); independent of the cyclotron frequency.
    """
    if regime.kind is not RegimeKind.HIGH_TEMPERATURE:
        raise DomainError("hightemp_rate needs the high-temperature regime")
    return sd.gamma * regime.omega_th * (sep.dx**2 + sep.dy**2) / (2.0 * sys.hbar)


def lowtemp_powerlaw(sys, sd, sep):
    """Quantum-regime long-time law rho/rho0 = (c t)^(-exponent).

    Returns (exponent, c).  Valid for the abrupt cutoff with Lam > A' and
    mode frequencies in the infrared window omega0 ~ omega_c << 1/t.
    """
    if sd.cutoff is not Cutoff.ABRUPT:
        raise UnsupportedFormError("the power-law constants are for the abrupt cutoff")
    mc = mode_constants(sys)
    lam = sd.lam
    if lam <= mc.a_prime:
        raise DomainError("power law requires Lam > A'")
    exponent = (sd.gamma / sys.hbar) * (sep.dx**2 + sep.dy**2)
    gl = np.euler_gamma + np.log(lam)
    ap2, bp2 = mc.a_prime**2, mc.b_prime**2
    logc = (
        2.0
        / ((lam**2 - ap2) * (lam**2 - bp2))
        * (
            lam**4 * gl
            - lam**2 * (mc.p_coef + gl) * bp2
            + ap2 * (-(lam**2) * (mc.m_coef + gl) + 1.0 + gl) * bp2
        )
    )
    return float(exponent), float(np.exp(logc))


def _default_span(sd):
    """(first time, last time, points) of the default time grid."""
    return 1e-3 / sd.lam, min(1.0, LAM_TAU_MAX / sd.lam), 200


def default_grid(sd):
    """200 log-spaced times from 1e-3/Lam to min(1, LAM_TAU_MAX/Lam); DomainError
    where that span is empty, Lam <= 1e-3."""
    t_min, t_max, points = _default_span(sd)
    if not t_min < t_max:
        span = (t_min, LAM_TAU_MAX, t_max, sd.lam)
        raise DomainError("the default time grid, 1e-3/Lam = %g to min(1, %g/Lam) = %g, is empty at Lam = %g" % span)
    return np.logspace(np.log10(t_min), np.log10(t_max), points)


def curves(sys, sd, regime, seps, grid=None, method="quadrature"):
    """Decay curves for each separation in `seps`, one ``CurveSeries`` each,
    on a time grid (strictly increasing, starting at >= 0).

    The exponents' time integrals do not depend on the separation, so one
    pass of kernel evaluations serves every curve: the grid check, the
    closed-form window and its fallback labels run once, and only
    D = (dx^2 + dy^2) int lambda1 + 2 dx dy int lambda2, the clamp and the
    error estimate run per separation.

    method="quadrature" integrates the closed transform of the
    regime-weighted defining kernel; method="closed" the catalogued regime
    kernels, which differ from it only for the Ohmic Drude-Lorentz nu
    (``_kernel_for``), and falls back per point (err_flag 2) where those are
    invalid: past the cosh overflow window of the pole sum, in the exact regime.

    Exact-regime curves integrate the closed low-temperature transform plus
    the Bose term of ``bath._bose_kernel_fn`` and cost tens of milliseconds
    on a default grid.
    """
    if grid is None:
        grid = default_grid(sd)
    if method not in METHODS:
        raise DomainError("method must be one of %s, got %r" % (METHODS, method))
    grid = np.asarray(grid, dtype=float)
    # the window at the largest time (the grid is checked after) picks the path
    closed_ok = method != "closed" or closed_kernel_error(sd, regime, np.max(grid, initial=0.0)) is None
    int_lam, lam_s, int_err = _exponent_arrays(sys, sd, regime, grid, method if closed_ok else "quadrature")
    valid = np.ones(len(grid), dtype=bool)
    if not closed_ok:
        # the window is a prefix of the grid; later points fall back
        valid = np.array([closed_kernel_error(sd, regime, t) is None for t in grid])
        if valid.any():
            int_lam[valid], lam_s[valid], int_err[valid] = _exponent_arrays(
                sys, sd, regime, grid[valid], "closed"
            )
    fallback = np.where(valid, FLAG_OK, FLAG_FALLBACK)
    methods = tuple(method if ok else "quadrature" for ok in valid)

    out = []
    for sep in seps:
        flags = fallback.copy()
        pref = np.array([sep.dx**2 + sep.dy**2, 2.0 * sep.dx * sep.dy])
        # each row summed on its own, whatever the grid's length
        d = (int_lam * pref).sum(axis=1)
        dre = d.real
        mag = np.exp(-np.clip(dre, -_EXP_LIMIT, _EXP_LIMIT))
        clamped = dre > _EXP_LIMIT
        mag[clamped] = UNDERFLOW_CLAMP
        flags[clamped & (flags == FLAG_OK)] = FLAG_CLAMPED
        bad = ~np.isfinite(mag) | (dre < -_EXP_LIMIT)
        if bad.any():
            mag[bad] = np.nan
            flags[bad] = FLAG_ERROR
        est = np.abs((int_err * pref).sum(axis=1)) * mag
        out.append(
            CurveSeries(
                times=grid,
                magnitude=mag,
                phase=-d.imag,
                lambda1=lam_s[:, 0],
                lambda2=lam_s[:, 1],
                method=methods,
                err_flag=flags,
                est_error=est,
            )
        )
    return out


def curve(sys, sd, regime, sep, grid=None, method="quadrature"):
    """Decay curve at one separation: ``curves`` on ``[sep]``, so it takes
    the same grid and method, and flags the same way."""
    return curves(sys, sd, regime, [sep], grid, method)[0]


def frequency_shift(sys, sd, t_max, with_tail_estimate=False):
    """Trap-frequency renormalisation -(2/m) int_0^{t_max} eta(tau) F1(tau) dtau.

    The tail estimate is the contribution of [t_max, 4 t_max], a
    self-convergence proxy for the truncation error.
    """
    if t_max <= 0:
        raise DomainError("t_max must be > 0")
    mom = _moments(sys, sd, _LOW, np.array([t_max, 4.0 * t_max]), kind="sin")
    main, total = (float(c) for c in mom.c0[:, 0].real)
    shift = -(2.0 / sys.m) * main
    if with_tail_estimate:
        return shift, abs(2.0 / sys.m * (total - main))
    return shift
