"""Decoherence exponents and the temporal decay of the reduced density matrix.

The off-diagonal element at separation (dx, dy) decays as

    rho(t)/rho(0) = exp(-(D1(t) + D2(t))),
    D1(t) = (dx^2 + dy^2) int_0^t lambda1,   D2(t) = 2 dx dy int_0^t lambda2,

where the factor 2 in D2 matches the cross term of the decay-rate functional
D(t) = lambda1 (dx^2+dy^2) + 2 lambda2 dx dy.  Both cumulative integrals are
computed on a shared time grid in a single pass through the identity
int_0^t (t-u) f(u) du = t c0(t) - c1(t) with c0, c1 the running moments of
f = nu F (hbar = 1), so a whole curve costs one pass of kernel evaluations,
made in blocks of nodes (``dynamics.time_moments``).

``_many_moments``, the one entry to that engine for curves, sweeps,
``exponents`` and criterion 5, checks the grid and hands the engine
the ``dynamics.KernelPlan`` that ``_kernel_for`` builds for each bath: the
kernel, its cutoff, up to where panels resolve Lam (past it they span at
most half their start), its split and how far the first grid interval is
refined towards 0.  It takes any baths: the plans that share a panel
layout (``KernelPlan.layout``) share one pass, and each bath gets the
moments of its own pass bit for bit; ``_moments`` is its one-bath case.
``_curves_many``, which ``curves`` calls with one bath, takes any baths on
one grid, and ``_pass_key`` is the one rule for which of them share a
pass, so a caller that bounds its passes groups by that key alone.
"""

import bisect
from dataclasses import dataclass

import numpy as np

from .bath import (
    LAM_TAU_MAX,
    _LOW,
    Cutoff,
    RegimeKind,
    _bose_kernel_fn,
    _finite_nonnegative,
    _oscillating_tail,
    _pole_sum,
    _reference_kernel_fn,
    closed_kernel_error,
    noise_kernel_closed_parts,
    require_integrable,
)
from .bath import noise_kernel_quadrature  # unused here; perfbench/trace.py wraps this binding
from .dynamics import KernelPlan, TimeMoments, mode_constants, time_moments
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


def _kernel_for(sd, regime, method="quadrature"):
    """The ``KernelPlan`` of the vectorised nu: the kernel and how
    ``time_moments`` integrates it.  This is the one place that branches on
    cutoff, regime and method.  A plan costs a few closures (a Drude-Lorentz
    kernel builds its transform when called), so ``_pass_key`` reads a
    pass's ``layout`` off a built plan.

    Every kernel is the closed transform of the defining integral, in the
    exact regime the closed low-temperature transform plus the Bose term.
    method='closed' differs only where the catalogue does: for the Ohmic
    Drude-Lorentz nu it is the Matsubara pole-sum form of
    ``noise_kernel_closed_parts``.  DomainError (``bath.require_integrable``)
    for a kernel not integrable at tau = 0.

    ``until`` is where the panel rule changes: panels resolve the cutoff Lam
    on the grid intervals that start below it, and past it span at most
    half their start (plus ``floor``).  The abrupt kernels outside the
    exact regime come with ``parts``, their split past Lam tau = 36
    (``bath._oscillating_tail``), whose e^{i Lam tau} the engine integrates
    exactly, and until = 36/Lam, where the split starts.  Panels resolve
    1/Lam at every tau for the kernels that oscillate at Lam with no split,
    the exact-regime abrupt kernel (its Bose term is cut at Lam when
    40 Omega_th > Lam), and for the pole-sum form, which grows as
    cosh(Lam tau); every other kernel has settled past 30/Lam.

    ``floor`` is the head rule: the engine halves the first grid interval
    towards tau = 0 until its innermost piece is at most ``floor``.  It is
    1/Lam for the abrupt and exponential kernels, in every regime: they are
    analytic for |Im tau| < 1/Lam.  It is 0, the engine's 42 halvings, for
    the Drude-Lorentz kernels, the pole sum included, whose algebraic tail J c ~ w^(se-2) gives tau^(1-se) or log terms at tau = 0."""
    lam = sd.lam
    abrupt = sd.cutoff is Cutoff.ABRUPT
    floor = 0.0 if sd.cutoff is Cutoff.DRUDE_LORENTZ else 1.0 / lam
    if method == "closed" and _pole_sum(sd):
        return KernelPlan(lambda taus: noise_kernel_closed_parts(sd, regime, taus), lam, np.inf, floor)
    if regime.kind is RegimeKind.EXACT:
        low = _reference_kernel_fn(sd, _LOW)
        bose = _bose_kernel_fn(sd, regime.omega_th)
        return KernelPlan(lambda taus: low(taus) + bose(taus), lam, np.inf if abrupt else 30.0 / lam, floor)
    kernel = _reference_kernel_fn(sd, regime)
    if abrupt:
        until, parts = _oscillating_tail(sd, regime)
        return KernelPlan(kernel, lam, until, floor, parts)
    return KernelPlan(kernel, lam, 30.0 / lam, floor)


def _checked_grid(grid):
    """``grid`` as floats; DomainError unless finite, strictly increasing and >= 0."""
    grid = np.asarray(grid, dtype=float)
    good = grid.ndim == 1 and len(grid) and np.all(np.isfinite(grid)) and grid[0] >= 0
    if not (good and np.all(np.diff(grid) > 0)):
        raise DomainError("grid must be finite, strictly increasing and start at >= 0")
    return grid


def _many_moments(sys, baths, grid):
    """``time_moments`` of the plans ``_kernel_for`` makes for each
    (sd, regime, method) of ``baths``, one ``TimeMoments`` per bath, on a
    finite, strictly increasing grid >= 0 (DomainError otherwise).  The
    plans that share a panel layout (``KernelPlan.layout``) share one pass,
    in the order of their first bath, and each bath gets the moments of its
    own pass bit for bit.  Zero, with no kernel, at gamma = 0, for a kernel
    that would be integrable at gamma > 0."""
    grid = _checked_grid(grid)
    out = [None] * len(baths)
    passes = {}
    for i, (sd, regime, method) in enumerate(baths):
        require_integrable(sd, regime)
        if sd.gamma == 0.0:
            zeros = np.zeros((len(grid), 2), dtype=complex)
            out[i] = TimeMoments(zeros, zeros, zeros, zeros, nodes=0, panels=0)
        else:
            plan = _kernel_for(sd, regime, method)
            passes.setdefault(plan.layout, []).append((i, plan))
    for plans in passes.values():
        for (i, _), mom in zip(plans, time_moments(sys, [plan for _, plan in plans], grid)):
            out[i] = mom
    return out


def _moments(sys, sd, regime, grid, method="quadrature"):
    """``_many_moments`` of one bath."""
    return _many_moments(sys, [(sd, regime, method)], grid)[0]


def _exponent_arrays(mom, grid):
    """(int_0^t lambda dt', lambda, estimated error of the first) on `grid`
    from its moments, columns lambda1 and lambda2."""
    tcol = np.asarray(grid)[:, None]
    return tcol * mom.c0 - mom.c1, mom.c0.copy(), tcol * mom.d0 - mom.d1


def exponents(sys, sd, regime, sep, t):
    """Cumulative decoherence exponents D1(t), D2(t) at a single time t,
    finite and >= 0 (DomainError otherwise)."""
    grid = np.array([float(_finite_nonnegative("t", t))])
    int_lam = _exponent_arrays(_moments(sys, sd, regime, grid), grid)[0]
    d1 = (sep.dx**2 + sep.dy**2) * int_lam[0, 0]
    d2 = 2.0 * sep.dx * sep.dy * int_lam[0, 1]
    return DecoherenceExponent(complex(d1), complex(d2), float(t))


def density_ratio(sys, sd, regime, sep, t):
    """(|rho(t)/rho(0)|, phase) of ``curve`` on the one-point grid [t], t
    finite and >= 0 (DomainError otherwise), so flagged the same way: a
    magnitude below 1e-300 reads 1e-300, and one above 1e300 (Re D < -690)
    reads NaN."""
    cs = curve(sys, sd, regime, sep, np.array([float(_finite_nonnegative("t", t))]))
    return float(cs.magnitude[0]), float(cs.phase[0])


def hightemp_rate(sys, sd, regime, sep):
    """Long-time classical decay rate gamma Omega_th (dx^2 + dy^2) / 2 of
    the bath ``sd`` in the high-temperature ``regime`` (DomainError otherwise).

    Pure formula (no integration); independent of the cyclotron frequency.
    """
    if regime.kind is not RegimeKind.HIGH_TEMPERATURE:
        raise DomainError("hightemp_rate needs the high-temperature regime")
    return sd.gamma * regime.omega_th * (sep.dx**2 + sep.dy**2) / 2.0


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
    exponent = sd.gamma * (sep.dx**2 + sep.dy**2)
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
    error estimate run per separation.  This is ``_curves_many`` of one
    bath, so a sweep point's curve equals its own ``curves`` bit for bit.

    method="quadrature" integrates the closed transform of the
    regime-weighted defining kernel; method="closed" the catalogued regime
    kernels, which differ from it only for the Ohmic Drude-Lorentz nu
    (``_kernel_for``), and falls back per point (err_flag 2) where those are
    invalid: past the cosh overflow window of the pole sum, in the exact regime.

    Exact-regime curves integrate the closed low-temperature transform plus
    the Bose term of ``bath._bose_kernel_fn``; on a default grid at Lam = 50,
    Omega_th = 17 one costs 7-45 ms on a 2-vCPU VM, and the cost grows with
    Omega_th and the grid's end.
    """
    if grid is None:
        grid = default_grid(sd)
    return _curves_many(sys, [(sd, regime, seps)], grid, method)[0]


def _closed_rows(sd, regime, grid, method):
    """How many leading rows of an increasing ``grid`` a curve integrates by
    ``method``: all for quadrature, for closed those inside the catalogued
    kernels' window (``bath.closed_kernel_error``); the rest fall back."""
    if method != "closed":
        return len(grid)
    return bisect.bisect_left(grid, True, key=lambda t: closed_kernel_error(sd, regime, t) is not None)


def _pass_key(sys, sd, regime, grid, method):
    """What baths must share to share a ``_curves_many`` pass: the modes,
    the grid, the method and the panel layout of the bath's plan; repr and
    the grid's bytes keep -0.0 and 0.0 apart.  Callers compare keys only."""
    main = method if _closed_rows(sd, regime, grid, method) == len(grid) else "quadrature"
    return repr(sys), grid.tobytes(), method, _kernel_for(sd, regime, main).layout


def _curves_many(sys, baths, grid, method="quadrature"):
    """``curves`` of each (sd, regime, seps) of ``baths`` on one grid and one
    method: one list of ``CurveSeries`` per bath, each equal bit for bit to
    that bath's own ``curves``.

    Each bath takes a pass over the whole grid, and the baths whose passes
    share a panel layout share it (``_many_moments``).  A bath whose
    closed-form window closes inside the grid takes its quadrature pass
    there and the window's rows in a closed pass of its own."""
    if method not in METHODS:
        raise DomainError("method must be one of %s, got %r" % (METHODS, method))
    grid = _checked_grid(grid)
    rows = [_closed_rows(sd, regime, grid, method) for sd, regime, _ in baths]
    mains = [method if n == len(grid) else "quadrature" for n in rows]
    moments = _many_moments(sys, [(sd, regime, main) for (sd, regime, _), main in zip(baths, mains)], grid)
    return [
        _bath_curves(sys, sd, regime, seps, grid, method, n, mom)
        for (sd, regime, seps), n, mom in zip(baths, rows, moments)
    ]


def _bath_curves(sys, sd, regime, seps, grid, method, rows, mom):
    """The curves of one bath from the moments of its pass over the whole
    grid; if only its first ``rows`` rows take ``method`` (``_closed_rows``),
    they take a closed pass of their own and the later rows fall back."""
    int_lam, lam_s, int_err = _exponent_arrays(mom, grid)
    if 0 < rows < len(grid):
        head = grid[:rows]
        int_lam[:rows], lam_s[:rows], int_err[:rows] = _exponent_arrays(_moments(sys, sd, regime, head, method), head)
    fallback = np.where(np.arange(len(grid)) < rows, FLAG_OK, FLAG_FALLBACK)
    methods = (method,) * rows + ("quadrature",) * (len(grid) - rows)

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

