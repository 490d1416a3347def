"""Bath spectral densities and the noise/dissipation kernels.

Three evaluation paths are provided for the kernels:

* ``noise_kernel_quadrature`` / ``dissipation_kernel_quadrature`` integrate
  the defining frequency integrals directly (adaptive head, half-period
  segments with Euler acceleration for the conditionally convergent
  oscillatory tails).  This is the reference ("oracle") path.
* ``noise_kernel_closed_parts`` evaluates the catalogued analytic regime kernels,
  and ``noise_kernel_reference`` the closed transforms of the defining
  integrals where one exists.  The two catalogues coincide except for the
  Ohmic Drude-Lorentz regime kernels, whose catalogued analytic forms stem
  from a Matsubara pole sum and are *not* transforms of the
  coth-approximated integrals (see the docstrings below).
* ``_bose_kernel_fn`` evaluates the exact-regime excess over the quantum
  kernel, int J(w) 2/(e^{2w/Omega_th} - 1) cos(w tau) dw, by one fixed
  Gauss rule for all tau of an octave; with the closed low-temperature
  transform it gives exact-regime curves.

Unit convention: frequencies in gamma/m, times in m/gamma, gamma sets the
coupling scale; all kernels are homogeneous of degree 1 in ``gamma``.
"""

import collections
import enum
import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval
from scipy import integrate, linalg, special as _sp

from .errors import ConvergenceError, DomainError, PoleError, RangeError, UnsupportedFormError

_SQ2 = np.sqrt(2.0)
_GLX, _GLW = np.polynomial.legendre.leggauss(12)


class Cutoff(str, enum.Enum):
    ABRUPT = "abrupt"
    DRUDE_LORENTZ = "drude"
    EXPONENTIAL = "exp"


class RegimeKind(str, enum.Enum):
    EXACT = "exact"
    HIGH_TEMPERATURE = "high"
    LOW_TEMPERATURE = "low"


def _require_finite(obj, fields):
    for name in fields:
        if not np.isfinite(getattr(obj, name)):
            raise DomainError("%s must be finite, got %r" % (name, getattr(obj, name)))


@dataclass(frozen=True)
class SpectralDensity:
    """Bath spectral density J(w) = gamma * w^s * cutoff envelope."""

    s: float
    cutoff: Cutoff
    lam: float
    gamma: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "cutoff", Cutoff(self.cutoff))
        _require_finite(self, ("s", "lam", "gamma"))
        if not (self.s > 0):
            raise DomainError("spectral exponent s must be > 0")
        if not (self.lam > 0):
            raise DomainError("cutoff frequency must be > 0")
        if self.gamma < 0:
            # gamma = 0 (decoupled bath) is allowed so trivial limits stay testable
            raise DomainError("coupling gamma must be >= 0")


@dataclass(frozen=True)
class ThermalRegime:
    """Temperature treatment of the coth(w/Omega_th) weight in the noise kernel."""

    kind: RegimeKind
    omega_th: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "kind", RegimeKind(self.kind))
        _require_finite(self, ("omega_th",))
        if self.kind in (RegimeKind.EXACT, RegimeKind.HIGH_TEMPERATURE) and not (
            self.omega_th > 0
        ):
            raise DomainError("omega_th must be > 0 for the exact and high-T regimes")


def spectral_density(sd, omega):
    """J(omega) for scalar or array omega >= 0."""
    w = np.asarray(omega, dtype=float)
    if np.any(w < 0):
        raise DomainError("omega must be >= 0")
    out = sd.gamma * w**sd.s * _envelope(sd, _ARRAY)(w)
    return out if out.ndim else float(out)


#: the elementwise operations the integrand formulas below are written in:
#: ``_FLOAT`` for the one Python float per call that QUADPACK passes, where
#: ``math`` costs a tenth of numpy on a 0-d array, and ``_ARRAY`` for numpy
#: arrays (spectral densities, the Gauss segments of the oscillatory tail)
_Ops = collections.namedtuple("_Ops", "exp expm1 minimum maximum cos sin")
_FLOAT = _Ops(math.exp, math.expm1, min, max, math.cos, math.sin)
_ARRAY = _Ops(np.exp, np.expm1, np.minimum, np.maximum, np.cos, np.sin)


def _envelope(sd, ops):
    """The cutoff envelope w -> J(w) / (gamma w^s), w >= 0, on the operands of ``ops``.

    Chosen once per bath, so an integrand pays no dispatch per call.
    """
    lam = sd.lam
    if sd.cutoff is Cutoff.ABRUPT:
        return lambda w: (w <= lam) * 1.0
    if sd.cutoff is Cutoff.DRUDE_LORENTZ:
        lam2 = lam**2
        return lambda w: lam2 / (lam2 + w * w)
    exp, minimum = ops.exp, ops.minimum
    return lambda w: exp(-minimum(w / lam, 745.0))


def _regime_weight(sd, regime):
    """(se, pref) with J(w) c(w) = pref w^se envelope(w): c = Omega_th/w at high
    temperature, else 1 (for eta, regime None, and the exact regime's tail)."""
    if regime is not None and regime.kind is RegimeKind.HIGH_TEMPERATURE:
        return sd.s - 1.0, sd.gamma * regime.omega_th
    return sd.s, sd.gamma


def _pole_sum(sd):
    """True for the Ohmic Drude-Lorentz bath, whose catalogued kernels are the
    Matsubara pole-sum forms, growing as cosh(Lam tau)."""
    return sd.cutoff is Cutoff.DRUDE_LORENTZ and sd.s == 1.0


# --------------------------------------------------------------------------
# defining-integral quadrature
# --------------------------------------------------------------------------

def _integrand_parts(sd, regime, ops):
    """Split J(w) * coth-factor into w^p * g(w) with g smooth and finite at 0.

    Returns (p, g, upper); g takes the operands of ``ops``.
    """
    upper = sd.lam if sd.cutoff is Cutoff.ABRUPT else np.inf
    envelope = _envelope(sd, ops)
    minimum = ops.minimum
    # a rule's end node can round past a finite upper; it stands for upper
    env = envelope if upper is np.inf else (lambda w: envelope(minimum(w, upper)))
    if regime is None or regime.kind is not RegimeKind.EXACT:
        se, pref = _regime_weight(sd, regime)
        return se, (lambda w: pref * env(w)), upper
    gamma, oth = sd.gamma, regime.omega_th
    expm1, maximum = ops.expm1, ops.maximum
    # w coth(w/Omega_th) -> Omega_th as w -> 0, equal to rounding below
    # 1e-8 Omega_th, so w is floored there
    floor = 1e-8 * oth

    def g(w):
        v = maximum(w, floor)
        # v coth(v/Omega_th); the argument stops at 350, where coth is already 1
        return gamma * v * env(w) * (1.0 + 2.0 / expm1(2.0 * minimum(v / oth, 350.0)))

    return sd.s - 1.0, g, upper


def _euler_transform(partials):
    """Repeatedly averaged partial sums; returns the deepest element."""
    row = list(partials)
    while len(row) > 1:
        row = [0.5 * (row[i] + row[i + 1]) for i in range(len(row) - 1)]
    return row[0]


def _gauss_segment(fn, a, b):
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * float(np.sum(_GLW * fn(mid + half * _GLX)))


# stopping rule of the Euler-accelerated oscillatory tail
_TAIL_ABS_FLOOR = 1e-12
_TAIL_MAX_SEGMENTS = 10_000

#: multiple of the smallest frequency scale past which the head range is
#: split at geometric breakpoints
_ENVELOPE_SPAN = 64.0


def _envelope_edges(sd, regime, lo, hi):
    """[lo, breakpoints in (lo, hi), hi] for an integral over a frequency range.

    Past _ENVELOPE_SPAN times the smallest frequency scale (Lam, and the
    Bose bump at Omega_th in the exact regime) the integrand is smooth and
    either negligible (exponential) or algebraic (Drude-Lorentz); one
    QUADPACK call over a range far wider than that misses the envelope, so
    that stretch is split at geometric breakpoints.
    """
    exact = regime is not None and regime.kind is RegimeKind.EXACT
    span = _ENVELOPE_SPAN * (min(sd.lam, regime.omega_th) if exact else sd.lam)
    cuts = span * 4.0 ** np.arange(max(0.0, np.ceil(np.log(hi / span) / np.log(4.0))))
    return [lo] + [c for c in cuts if lo < c < hi] + [hi]


#: relative accuracy asked of each QUADPACK call at tau = 0.  The integrand
#: is positive there, so the head's value, not QUADPACK's default absolute
#: floor of 1.5e-8, bounds the error of the other pieces, whatever the units
#: of J (that floor left exponential baths with Lam = 0.2 6e-9 off)
_TAU0_RTOL = 1e-11

#: terms of the series of the Drude-Lorentz tail past the last edge c at
#: tau = 0; they fall by (Lam/c)^2 <= 1/256^2, so the next is below 1e-19
_DRUDE_TAIL_TERMS = 4


def _kernel_quadrature(sd, regime, tau, kind, rtol):
    tau = float(tau)
    if not 0.0 <= tau < np.inf:
        raise DomainError("tau must be finite and >= 0")
    p, g, upper = _integrand_parts(sd, regime, _FLOAT)
    trig = getattr(_FLOAT, kind)
    part = lambda w: w**p * g(w)
    # the substitution w = x^r, r = 1/(p+1), takes the w^p point out of the head
    q = p + 1.0
    r = 1.0 / q

    if tau == 0.0:
        if kind == "sin":
            return 0.0
        exact = regime.kind is RegimeKind.EXACT
        if sd.cutoff is Cutoff.DRUDE_LORENTZ:
            # J c is w^se Lam^2/(Lam^2 + w^2) on the tail, up to a constant
            se = _regime_weight(sd, regime)[0]
            if se >= 1.0:
                raise ConvergenceError(
                    "noise kernel diverges at tau = 0 for a Drude-Lorentz tail with w^%g decay" % (se - 2.0)
                )
        a_head = 1.0 if upper is np.inf else min(1.0, upper)
        head = integrate.quad(
            lambda x: r * g(x**r), 0.0, a_head**q, epsabs=0.0, epsrel=_TAU0_RTOL, limit=200
        )[0]
        rest = 0.0
        if upper is np.inf:
            # the breakpoints of the tau > 0 path up to c = 4 _ENVELOPE_SPAN
            # Lam (Omega_th where larger, in the exact regime): past c the
            # coth factor is 1 or Omega_th/w and the exponential envelope is
            # below e^-256, so only the algebraic Drude-Lorentz tail is left
            top = 4.0 * _ENVELOPE_SPAN * (max(sd.lam, regime.omega_th) if exact else sd.lam)
            edges = _envelope_edges(sd, regime, a_head, max(a_head, top))
            if sd.cutoff is Cutoff.DRUDE_LORENTZ:
                # int_c^inf of part(c) (w/c)^se (c^2 + Lam^2)/(w^2 + Lam^2) dw,
                # termwise in z = (Lam/c)^2; closed, so it holds however close
                # se is to the divergence at 1
                c = edges[-1]
                z = (sd.lam / c) ** 2
                rest = c * part(c) * (1.0 + z) * sum(
                    (-z) ** k / (2.0 * k + 1.0 - se) for k in range(_DRUDE_TAIL_TERMS)
                )
        else:
            edges = [a_head, upper] if upper > a_head else [a_head]
        for lo, hi in zip(edges, edges[1:]):
            rest += integrate.quad(
                part, lo, hi, epsabs=_TAU0_RTOL * head, epsrel=_TAU0_RTOL, limit=500
            )[0]
        return head + rest

    # head: [0, a_sub] in x, then the oscillatory-weight QUADPACK rule up to
    # w_head (finite upper: done)
    w_head = min(4.0 * np.pi / tau, upper)
    a_sub = min(1.0, w_head)

    def head_fn(x):
        w = x**r
        return r * g(w) * trig(w * tau)

    head = integrate.quad(head_fn, 0.0, a_sub**q, limit=300)[0]
    if upper is not np.inf:
        if upper > a_sub:
            head += integrate.quad(part, a_sub, upper, weight=kind, wvar=tau, limit=2000)[0]
        return head
    edges = _envelope_edges(sd, regime, a_sub, w_head)
    for lo, hi in zip(edges, edges[1:]):
        head += integrate.quad(part, lo, hi, weight=kind, wvar=tau, limit=500)[0]

    # oscillatory tail: integrate between consecutive zeros of the trig factor
    # and Euler-accelerate the alternating sequence of partial sums; each
    # segment is one 12-node Gauss rule on arrays
    g_nodes = _integrand_parts(sd, regime, _ARRAY)[1]
    trig_nodes = getattr(_ARRAY, kind)
    full = lambda w: w**p * g_nodes(w) * trig_nodes(w * tau)
    off = 0.5 if kind == "cos" else 0.0
    k = int(np.floor(w_head * tau / np.pi - off)) + 1
    edge = lambda j: (j + off) * np.pi / tau
    while edge(k) <= w_head:
        k += 1
    total = head + _gauss_segment(full, w_head, edge(k))
    partials = []
    run = 0.0
    prev = edge(k)
    stable = 0
    last_est = None
    for _ in range(_TAIL_MAX_SEGMENTS):
        nxt = edge(k + 1)
        seg = _gauss_segment(full, prev, nxt)
        run += seg
        partials.append(run)
        prev = nxt
        k += 1
        if abs(seg) < 1e-305:
            return total + run
        if len(partials) >= 8:
            est = _euler_transform(partials[-min(len(partials), 30):])
            if last_est is not None and abs(est - last_est) < rtol * abs(total + est) + _TAIL_ABS_FLOOR:
                stable += 1
                if stable >= 3:
                    return total + est
            else:
                stable = 0
            last_est = est
    raise ConvergenceError(
        "oscillatory tail did not stabilise within %d segments" % _TAIL_MAX_SEGMENTS
    )


def noise_kernel_quadrature(sd, regime, tau, rtol=1e-8):
    """Noise kernel nu(tau) = int_0^inf J(w) coth(w/Omega_th) cos(w tau) dw.

    The coth weight is taken exactly, or replaced by its classical
    (Omega_th/w) or quantum (1) limit according to ``regime``.  The w -> 0
    end is handled analytically (J ~ w^s keeps the integrand finite), the
    oscillatory tail by half-period segmentation with Euler acceleration.

    Raises ConvergenceError when the tail accelerator fails or the integral
    diverges (Drude-Lorentz tails at tau = 0 with s >= 1 in the quantum or
    exact regimes, s >= 2 at high temperature).
    """
    return _kernel_quadrature(sd, regime, tau, "cos", rtol)


def dissipation_kernel_quadrature(sd, tau):
    """Dissipation kernel eta(tau) = int_0^inf J(w) sin(w tau) dw; eta(0) = 0."""
    return _kernel_quadrature(sd, None, tau, "sin", 1e-8)


# --------------------------------------------------------------------------
# closed transforms of the defining integrals
# --------------------------------------------------------------------------

#: x = Lam tau up to which _trig_power_ratio sums its power series; the
#: series' cancellation costs a factor of about e^x in rounding
_TRIG_SERIES_TOP = 4.0
#: terms of that series; the last is below 1e-17 of the first at the top x
_TRIG_SERIES_TERMS = 18
#: nodes of the Gauss-Jacobi rule of the middle band, accurate to rounding
#: for trig(x u) on [0, 1] up to the band's top, the first asymptotic edge
_TRIG_JACOBI_NODES = 36
#: (x above which, terms) of the asymptotic series.  At a band's first x
#: the last term is the divergent series' smallest, about sqrt(2 pi x) e^-x
#: = 3.5e-15 of the first at x = 36, or below 1e-17 of the first
_TRIG_ASYMPTOTIC_TERMS = ((36.0, 36), (80.0, 18), (200.0, 12))

#: size of the trig blocks evaluated at once: x (x) u in the Gauss-Jacobi
#: band, tau (x) omega in the Bose rule
_TRIG_BLOCK_BYTES = 1 << 20


@functools.lru_cache(maxsize=16)
def _jacobi_rule01(n, se):
    """n-node Gauss rule for int_0^1 u^se f(u) du, se > -1 (Golub-Welsch).

    Built from the three-term recurrence of the Jacobi polynomials
    P^(0, se); its weights keep full accuracy as se -> -1, where scipy's
    Gauss-Jacobi generator loses digits (1.6e-11 off on u^k moments at
    se = -0.9, 44 nodes).
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


def _trig_power_ratio(se, x, kind):
    """R(se, x) = int_0^1 u^se trig(x u) du = int_0^x v^se trig(v) dv / x^{se+1},
    vectorised over x >= 0, for any se > -1, in three bands of x:

    * x <= 4: the power series in x^2, a fixed number of terms;
    * 4 < x <= 36: a Gauss-Jacobi rule with weight u^se on [0, 1];
    * x > 36: the constant int_0^inf v^se trig(v) dv less the asymptotic
      series of the tail int_x^inf, with fewer terms as x grows.

    Each x takes a fixed sequence of operations chosen by its band alone,
    so its value does not depend on the other entries of the call.
    Against 40-digit mpmath the error stays below 2e-13 of max(|R|, 1/(1+x))
    (measured for -0.99 <= se <= 5).  Finite limit at x = 0: 1/(se+1) for
    cos, 0 for sin.
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    out = np.full_like(flat, np.nan)
    odd = 0 if kind == "cos" else 1
    trig = np.cos if kind == "cos" else np.sin
    edges = [_TRIG_SERIES_TOP] + [lo for lo, _ in _TRIG_ASYMPTOTIC_TERMS] + [np.inf]
    band = np.searchsorted(edges, flat)

    idx = np.nonzero(band == 0)[0]
    if idx.size:
        # x^odd sum_j (-x^2)^j / ((2j+odd)! (se+2j+odd+1))
        xs = flat[idx]
        coef = [
            1.0 / (math.factorial(2 * j + odd) * (se + 2 * j + odd + 1.0))
            for j in range(_TRIG_SERIES_TERMS)
        ]
        out[idx] = polyval(-xs * xs, coef) * xs**odd

    idx = np.nonzero(band == 1)[0]
    if idx.size:
        # row sums, not a matrix product: a row's rounding then does not
        # depend on how many rows the block holds
        u, w = _jacobi_rule01(_TRIG_JACOBI_NODES, se)
        rows = _TRIG_BLOCK_BYTES // (8 * u.size)
        for i in range(0, idx.size, rows):
            block = np.multiply.outer(flat[idx[i : i + rows]], u)
            trig(block, out=block)
            block *= w
            out[idx[i : i + rows]] = block.sum(axis=1)

    cinf = _sp.gamma(se + 1.0) * trig(np.pi * (se + 1.0) / 2.0)
    for b, (_, terms) in enumerate(_TRIG_ASYMPTOTIC_TERMS, start=2):
        idx = np.nonzero(band == b)[0]
        if not idx.size:
            continue
        # int_x^inf v^se e^{iv} dv ~ e^{ix} x^se (p + i q) with
        # p + i q = sum_k i^{k+1} se(se-1)...(se-k+1) x^{-k}, which ends at
        # the first zero of the falling factorial (integer se)
        falling = [1.0]
        while len(falling) < terms and falling[-1] != 0.0:
            falling.append(falling[-1] * (se - len(falling) + 1.0))
        q_coef = [falling[k] * (-1.0) ** (k // 2) for k in range(0, len(falling), 2)]
        p_coef = [falling[k] * (-1.0) ** ((k + 1) // 2) for k in range(1, len(falling), 2)]
        xs = flat[idx]
        z = 1.0 / (xs * xs)
        p, q = polyval(z, p_coef) / xs, polyval(z, q_coef)
        cx, sx = np.cos(xs), np.sin(xs)
        tail = p * cx - q * sx if odd == 0 else p * sx + q * cx
        out[idx] = cinf * xs ** -(se + 1.0) - tail / xs
    return out.reshape(x.shape)


def _scaled_ei_minus_e1(x):
    """e^{-x} Ei(x) - e^{x} E1(x), x > 0, stable for large x."""
    x = np.asarray(x, dtype=float)
    ei, e1 = np.empty_like(x), np.empty_like(x)
    lo = x <= 50.0
    ei[lo] = np.exp(-x[lo]) * _sp.expi(x[lo])
    e1[lo] = np.exp(x[lo]) * _sp.exp1(x[lo])
    xl = x[~lo]
    if xl.size:
        # the asymptotic series sum_k (+-1)^k k!/x^{k+1} of each term
        tot_ei, tot_e1 = np.zeros_like(xl), np.zeros_like(xl)
        term_ei = term_e1 = 1.0 / xl
        for k in range(40):
            tot_ei += term_ei
            tot_e1 += term_e1
            term_ei = term_ei * (k + 1) / xl
            term_e1 = term_e1 * (-(k + 1)) / xl
        ei[~lo], e1[~lo] = tot_ei, tot_e1
    return ei - e1


_DRUDE_TRANSFORMS = (("sin", 1.0),) + tuple(("cos", se) for se in (-0.5, 0.0, 0.5, 1.0, 1.5))


def _drude_transform(se, lam, x, kind):
    """int_0^inf w^se Lam^2/(Lam^2+w^2) trig(w tau) dw, x = Lam tau, for (kind, se) in _DRUDE_TRANSFORMS."""
    if kind == "sin":
        return (np.pi / 2.0) * lam**2 * np.exp(-x)
    if se == 0.0:
        return (np.pi / 2.0) * lam * np.exp(-x)
    if se == 1.0:
        with np.errstate(divide="ignore"):
            return -(lam**2 / 2.0) * _scaled_ei_minus_e1(x)
    ec = _sp.erfcx(np.sqrt(x))
    dw = 2.0 / np.sqrt(np.pi) * _sp.dawsn(np.sqrt(x))
    if se == -0.5:
        return (np.pi / (2 * _SQ2)) * lam**0.5 * (np.exp(-x) + ec + dw)
    if se == 0.5:
        return (np.pi / (2 * _SQ2)) * lam**1.5 * (np.exp(-x) + ec - dw)
    with np.errstate(divide="ignore"):
        return (
            lam**2
            * (
                2.0 * np.sqrt(np.pi) * np.sqrt(lam / np.maximum(x, 1e-300))
                - np.pi * np.sqrt(lam) * (np.exp(-x) + ec + dw)
            )
            / (2 * _SQ2)
        )


def _reference_kernel_fn(sd, regime, kind="cos"):
    """Vectorised closed transform of the defining integral, or None.

    These forms were each validated against the quadrature path; they are
    exact equalities, so curves built on them remain quadrature-grade in the
    time integration.
    """
    if regime is not None and regime.kind is RegimeKind.EXACT:
        return None
    se, pref = _regime_weight(sd, regime)
    lam = sd.lam
    if sd.cutoff is Cutoff.ABRUPT:

        def fn(tau):
            tau = np.asarray(tau, dtype=float)
            return pref * lam ** (se + 1.0) * _trig_power_ratio(se, lam * tau, kind)

        return fn
    if sd.cutoff is Cutoff.EXPONENTIAL:
        trig = np.cos if kind == "cos" else np.sin

        def fn(tau):
            tau = np.asarray(tau, dtype=float)
            return (
                pref
                * _sp.gamma(se + 1.0)
                * lam ** (se + 1.0)
                * (1.0 + (lam * tau) ** 2) ** (-(se + 1.0) / 2.0)
                * trig((se + 1.0) * np.arctan(lam * tau))
            )

        return fn
    if (kind, se) not in _DRUDE_TRANSFORMS:
        return None

    def fn(tau):
        tau = np.asarray(tau, dtype=float)
        return pref * _drude_transform(se, lam, lam * tau, kind)

    return fn


def _reference_value(sd, regime, kind, tau):
    """The closed transform at scalar or array tau, or UnsupportedFormError."""
    fn = _reference_kernel_fn(sd, regime, kind)
    if fn is None:
        what = "s=%g %s" % (sd.s, sd.cutoff.value)
        what = "eta with " + what if kind == "sin" else what + " " + regime.kind.value
        raise UnsupportedFormError("no closed transform for " + what)
    tarr = np.asarray(tau, dtype=float)
    if not np.all(np.isfinite(tarr)):
        raise DomainError("tau must be finite")
    out = fn(tarr)
    return out if np.ndim(tau) else float(out)


def noise_kernel_reference(sd, regime, tau):
    """Closed transform of the regime-weighted defining integral.

    Equal to ``noise_kernel_quadrature`` wherever defined (this is tested);
    raises UnsupportedFormError when no transform is catalogued (the exact
    regime, and Drude-Lorentz exponents outside {1/2, 1, 3/2}).
    """
    return _reference_value(sd, regime, "cos", tau)


def dissipation_kernel_reference(sd, tau):
    """Closed transform of eta(tau); UnsupportedFormError when not catalogued."""
    return _reference_value(sd, None, "sin", tau)


# --------------------------------------------------------------------------
# the Bose term of the exact regime
# --------------------------------------------------------------------------

#: the Bose factor 2/(e^{2w/Omega_th} - 1) is below 2e-35 past 40 Omega_th
_BOSE_RANGE = 40.0

#: window 0 <= Lam tau <= LAM_TAU_MAX of the Ohmic Drude-Lorentz pole-sum
#: forms, past which their cosh(Lam tau) overflows; default time grids end there
LAM_TAU_MAX = 700.0


def _bose_kernel_fn(sd, omega_th):
    """Vectorised Bose term of the exact-regime noise kernel,

        B(tau) = int_0^inf J(w) 2/(e^{2w/Omega_th} - 1) cos(w tau) dw,

    so that nu_exact = nu_low + B by coth x = 1 + 2/(e^{2x} - 1).

    A fixed rule in x = sqrt(w) on [0, x_top], x_top = sqrt(40 Omega_th)
    (cut at Lam, then a panel edge, for the abrupt cutoff), serves every tau
    of one octave of tau x_top^2/pi as the matrix product
    cos(tau (x) w) @ weights.  Panels halve towards x = 0 down to half the
    square root of the smallest frequency scale, min(Omega_th, Lam): the
    poles of the Bose factor and of the Drude-Lorentz envelope lie at 45
    degrees in the complex x plane, so each panel [a, 2a] stays clear of
    them.  The innermost panel [0, x0] is a Gauss-Jacobi rule with weight
    x^(2s-1), the integrand's behaviour at 0, so the rule keeps its accuracy
    at any s > 0.  The top tau of the octave subdivides the panels so that
    none spans more than half a period of cos(x^2 tau); a tau's value
    therefore depends only on its octave, not on the other tau of the call,
    and small tau do not pay for the rule of the largest.
    """
    beta = 2.0 * sd.s - 1.0
    gx, gw = np.polynomial.legendre.leggauss(16)
    ju, jw = _jacobi_rule01(16, beta)
    jw = jw / ju**beta  # a rule for int_0^1 f(u) du with f ~ u^beta
    abrupt = sd.cutoff is Cutoff.ABRUPT
    x_top = np.sqrt(min(_BOSE_RANGE * omega_th, sd.lam) if abrupt else _BOSE_RANGE * omega_th)
    x_feature = 0.5 * np.sqrt(omega_th if abrupt else min(omega_th, sd.lam))

    def rule(octave):
        """Nodes w and weights of the rule for every tau with tau x_top^2/pi <= 2^octave."""
        n_half = 2.0**octave  # half periods of cos(w tau) on [0, x_top^2] at the top tau
        x_in = min(x_feature, x_top / np.sqrt(n_half))
        levels = max(0, int(np.ceil(np.log2(x_top / x_in))))
        w_edges = (x_top * 2.0 ** -np.arange(levels, -1.0, -1.0)) ** 2
        half_periods = np.arange(1.0, n_half) * (x_top**2 / n_half)
        xe = np.sqrt(np.union1d(w_edges, half_periods))
        mid, half = 0.5 * (xe[1:] + xe[:-1]), 0.5 * (xe[1:] - xe[:-1])
        x = np.concatenate([xe[0] * ju, (mid[:, None] + half[:, None] * gx).ravel()])
        weight = np.concatenate([xe[0] * jw, (half[:, None] * gw).ravel()])
        omega = x * x
        return omega, weight * 2.0 * x * spectral_density(sd, omega) * 2.0 / np.expm1(2.0 * omega / omega_th)

    def fn(tau):
        tau = np.asarray(tau, dtype=float)
        flat = tau.ravel()
        # octave o holds tau x_top^2/pi in (2^(o-1), 2^o]; o = 0 also holds
        # everything below, where the rule needs no half-period edges
        octave = np.ceil(np.log2(np.maximum(flat * (x_top**2 / np.pi), 1.0)))
        out = np.empty(flat.size)
        for o in np.unique(octave):
            idx = np.nonzero(octave == o)[0]
            omega, coef = rule(o)
            rows = max(1, _TRIG_BLOCK_BYTES // (8 * omega.size))
            for i in range(0, idx.size, rows):
                block = np.multiply.outer(flat[idx[i : i + rows]], omega)
                out[idx[i : i + rows]] = np.cos(block, out=block) @ coef
        return out.reshape(tau.shape)

    return fn


def closed_kernel_error(sd, regime, tau_max):
    """The error the catalogued regime kernels raise on [0, tau_max], or None.

    This states their validity window: the exact regime, and Drude-Lorentz
    exponents without a transform, have no catalogued kernel; the Ohmic
    Drude-Lorentz pole-sum forms need Omega_th > 0 with Lam/Omega_th off the
    poles of cot(Lam/Omega_th), and Lam tau <= LAM_TAU_MAX.
    """
    if regime.kind is RegimeKind.EXACT:
        return UnsupportedFormError("the exact regime has no catalogued kernel; use quadrature")
    if _pole_sum(sd):
        if not regime.omega_th > 0:
            return DomainError("the Drude-Lorentz pole-sum forms need omega_th > 0")
        ratio = sd.lam / regime.omega_th
        if abs(np.sin(ratio)) < 1e-8:
            return PoleError(
                "cot(Lam/Omega_th) pole: Lam/Omega_th = %g is within 1e-8 of a multiple of pi" % ratio
            )
        if sd.lam * tau_max > LAM_TAU_MAX:
            return RangeError(
                "cosh(Lam tau) overflows for Lam tau = %g > %g" % (sd.lam * tau_max, LAM_TAU_MAX)
            )
        return None
    if _reference_kernel_fn(sd, regime, "cos") is None:
        return UnsupportedFormError(
            "no catalogued kernel for s=%g %s %s" % (sd.s, sd.cutoff.value, regime.kind.value)
        )
    return None


def noise_kernel_closed_parts(sd, regime, tau):
    """Catalogued analytic regime kernel, complex where the catalogue form is.

    For the Ohmic Drude-Lorentz regimes this evaluates the Matsubara
    pole-sum forms (cot(Lam/Omega_th) cosh(Lam tau) and, at high
    temperature, an additional imaginary polynomial piece).  Those two forms
    are exactly what the analytic coefficient formulas of the same regimes
    integrate, but they are *not* transforms of the coth-approximated
    defining integral; ``noise_kernel_reference`` provides the latter.
    """
    tarr = np.asarray(tau, dtype=float)
    if not np.all((tarr >= 0) & (tarr < np.inf)):
        raise DomainError("tau must be finite and >= 0")
    err = closed_kernel_error(sd, regime, float(np.max(tarr, initial=0.0)))
    if err is not None:
        raise err
    if _pole_sum(sd):
        cot = 1.0 / np.tan(sd.lam / regime.omega_th)
        base = (np.pi * sd.gamma * sd.lam**2 / 2.0) * cot * np.cosh(sd.lam * tarr)
        if regime.kind is RegimeKind.HIGH_TEMPERATURE:
            out = base + (-1j * np.pi * sd.gamma * sd.lam**2 / 2.0) * (
                1.0 - 1j * np.pi * regime.omega_th * tarr
            )
        else:
            out = base + 0.0j
        return out if np.ndim(tau) else complex(out)
    fn = _reference_kernel_fn(sd, regime, "cos")
    out = fn(tarr) + 0.0j
    return out if np.ndim(tau) else complex(out)


def _lerch_phi1(z, a):
    """Phi(z, 1, a) = sum_k z^k/(k + a) = 2F1(1, a; a+1; z)/a elementwise over
    z in [0, 1), for scalar a off the poles 0, -1, -2, ...

    Each hyp2f1 gets a and c = a + 1 with c - a - 1 exactly 0: after a
    rounding residue there, scipy takes its non-logarithmic z -> 1 branch
    and returns O(1)-wrong values for z > 0.999.  Past z = 0.9 scipy sums a
    series in 1 - z whose terms grow to z^-a, which costs up to
    e^{0.105 |a|} of rounding (2e-11 at a = 95); on 0.9 < z <= 0.9^(1/4)
    the multiplication formula Phi(z,1,a) = sum_{j<4} z^j Phi(z^4,1,(a+j)/4)/4
    moves the argument below 0.9, where scipy sums the power series.  For
    |a| <= 101, relative to sum_k z^k/|k + a|, every value is within 5e-14
    of 30-digit mpmath, or 5e-16/d at a distance d < 0.01 from a pole, where
    the rounding of (a + j)/4 dominates (16000 draws of a and z).
    """

    def gauss(z, a):
        c = a + 1.0
        a = c - 1.0
        return _sp.hyp2f1(1.0, a, c, z) / a

    z4 = z**4
    split = sum(z**j * gauss(z4, (a + j) / 4.0) for j in range(4)) / 4.0
    return np.where((z > 0.9) & (z4 <= 0.9), split, gauss(z, a))


def drude_exact_kernel(sd, omega_th, tau):
    """Exact-coth noise kernel for an Ohmic Drude-Lorentz bath by residue sum,
    for scalar or array tau > 0 (a float for a scalar).

    nu(tau) = (pi gamma Lam^2/2) cot(Lam/Omega_th) e^{-Lam tau}
              + (gamma Lam^2/2) z [Phi(z,1,1-b) + Phi(z,1,1+b)],
    z = exp(-pi Omega_th tau), b = Lam/(pi Omega_th) not an integer, with
    Phi from scipy.special.hyp2f1 (see ``_lerch_phi1``).  At the same
    double z it is within 1e-12 of 30-digit mpmath relative to the size of
    its two terms, for b in [0.02, 100] and pi Omega_th tau in [1e-12, 30];
    against the exact tau it loses about 1e-18/(pi Omega_th tau) relative,
    since the double z holds 1 - z only to 1e-16 absolute.  Cross-validated
    against the exact-regime quadrature.
    """
    if not _pole_sum(sd):
        raise UnsupportedFormError("pole sum applies to the Ohmic Drude-Lorentz bath only")
    tau = np.asarray(tau, dtype=float)
    if not np.all((tau > 0) & (tau < np.inf)):
        raise DomainError("tau must be finite and > 0: the exact Drude-Lorentz kernel diverges at tau = 0")
    if abs(np.sin(sd.lam / omega_th)) < 1e-8:
        raise PoleError("cot(Lam/Omega_th) pole")
    b = sd.lam / (np.pi * omega_th)
    if abs(b - round(b)) < 1e-8:
        raise PoleError("Lam/(pi Omega_th) = %g collides with a Matsubara pole" % b)
    z = np.exp(-np.pi * omega_th * tau)
    cot = 1.0 / np.tan(sd.lam / omega_th)
    out = (np.pi * sd.gamma * sd.lam**2 / 2.0) * cot * np.exp(-sd.lam * tau) + (
        sd.gamma * sd.lam**2 / 2.0
    ) * z * (_lerch_phi1(z, 1.0 - b) + _lerch_phi1(z, 1.0 + b))
    return out if out.ndim else float(out)
