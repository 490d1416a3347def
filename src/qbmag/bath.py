"""Bath spectral densities and the noise/dissipation kernels.

Three evaluation paths are provided for the kernels, on the fixed rules of
``_rules`` (this module sets their bands and node counts):

* ``noise_kernel_quadrature`` / ``dissipation_kernel_quadrature`` integrate
  the defining frequency integrals directly (adaptive head, half-period
  segments with Euler acceleration for the conditionally convergent
  oscillatory tails).  This is the reference ("oracle") path; through
  ``coefficients.lambda_from_kernel`` it is the coefficients' defining path.
  Each integrand QUADPACK calls is one frame that makes at most one inner
  call, to the envelope (``_integrand_parts``); the tail takes ``_TAIL_BATCH``
  segments per call of ``_rules._gauss_segments`` and updates its Euler
  estimate from the last diagonal of the averaging triangle (``_euler_step``),
  in the same bits as one segment and one full triangle at a time.
* ``noise_kernel_closed_parts`` evaluates the catalogued analytic regime kernels,
  and ``noise_kernel_reference`` the closed transforms of the defining
  integrals, which exist for every bath outside the exact regime (the
  Drude-Lorentz one for any s, by ``_drude_transform``).  The two catalogues
  coincide except for the Ohmic Drude-Lorentz regime kernels, whose
  catalogued analytic forms stem from a Matsubara pole sum and are *not*
  transforms of the coth-approximated integrals (see the docstrings below).
  ``require_integrable`` rejects the Drude-Lorentz kernels that are not
  integrable at tau = 0.  ``_oscillating_tail`` gives the time integration
  the abrupt transforms past Lam tau = 36 as a power law plus e^{i Lam tau}
  times a smooth amplitude.
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
import sys
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special as _sp

from . import _rules
from .errors import ConvergenceError, DomainError, PoleError, RangeError, UnsupportedFormError


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


def _finite_nonnegative(name, value):
    """``value`` as a float array; DomainError unless every entry is finite and >= 0."""
    if type(value) is float:
        # a Python float, the scalar callers' case, skips the array test
        ok = 0.0 <= value < math.inf
    else:
        value = np.asarray(value, dtype=float)
        ok = ((value >= 0) & (value < np.inf)).all()
    if not ok:
        raise DomainError("%s must be finite and >= 0" % name)
    return np.asarray(value)


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
        # Omega_th = 2 k_B T / hbar; the low regime ignores it, so 0 is valid there
        low = self.kind is RegimeKind.LOW_TEMPERATURE
        if not (self.omega_th >= 0 if low else self.omega_th > 0):
            raise DomainError("omega_th must be >= 0, and > 0 for the exact and high-T regimes")


#: the zero-temperature regime; eta takes it too, as its weight is c = 1
_LOW = ThermalRegime(RegimeKind.LOW_TEMPERATURE)


def spectral_density(sd, omega):
    """J(omega) for scalar or array omega, finite and >= 0 (DomainError otherwise)."""
    w = _finite_nonnegative("omega", omega)
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
    # exactly 0 past w = 745.13 Lam, where e^(-w/Lam) underflows
    exp = ops.exp
    return lambda w: exp(-w / lam)


def _regime_weight(sd, regime):
    """(se, pref) with J(w) c(w) = pref w^se envelope(w): c = Omega_th/w at high
    temperature, else 1 (the low regime, which eta takes, and the exact regime's tail)."""
    if regime.kind is RegimeKind.HIGH_TEMPERATURE:
        return sd.s - 1.0, sd.gamma * regime.omega_th
    return sd.s, sd.gamma


def _pole_sum(sd):
    """True for the Ohmic Drude-Lorentz bath, whose catalogued kernels are the
    Matsubara pole-sum forms, growing as cosh(Lam tau)."""
    return sd.cutoff is Cutoff.DRUDE_LORENTZ and sd.s == 1.0


# --------------------------------------------------------------------------
# defining-integral quadrature
# --------------------------------------------------------------------------

def _integrand_parts(sd, regime, ops, trig=None, tau=0.0):
    """Split J(w) * coth-factor into w^p * g(w) with g smooth and finite at 0.

    Returns (p, fn, upper).  Without ``trig``, fn is w -> w^p g(w), the
    integrand of the QUADPACK pieces and of the tail; with it, fn is the
    head in x = w^(p+1), x -> r g(x^r) trig(x^r tau), r = 1/(p+1), which
    takes the w^p point out of the head.  fn takes the operands of ``ops``.

    fn is one of six closures, chosen here by regime (exact or not),
    envelope (abrupt or not, outside the exact regime) and head or piece, so
    QUADPACK's calls test no branch.  Each makes at most one inner call per
    evaluation, to ``_envelope``, the one copy of each envelope: g is
    written out in fn.  The abrupt envelope, 1 on [0, upper], is never
    evaluated (a rule's end node can round past upper; it stands for
    upper): outside the exact regime its factor is left out, which changes
    no bit as every closure keeps the grouping of g e r trig(w tau), and in
    the exact regime a constant 1.0 stands in for it.
    """
    upper = sd.lam if sd.cutoff is Cutoff.ABRUPT else np.inf
    env = None if upper < np.inf else _envelope(sd, ops)
    head = trig is not None
    if regime.kind is not RegimeKind.EXACT:
        p, pref = _regime_weight(sd, regime)
        r = 1.0 / (p + 1.0)
        if not head:
            if env is None:
                return p, lambda w: w**p * pref, upper
            return p, lambda w: w**p * (pref * env(w)), upper
        if env is None:
            rg = r * pref
            return p, lambda x: rg * trig(x**r * tau), upper

        def fn(x):
            w = x**r
            return r * (pref * env(w)) * trig(w * tau)

        return p, fn, upper

    # g = v coth(v/Omega_th) e(w), v = max(w, 1e-8 Omega_th): w coth(w/Omega_th)
    # -> Omega_th as w -> 0, equal to rounding below the floor; the argument
    # of expm1 stops at 350, where coth is already 1
    p, gamma, oth = sd.s - 1.0, sd.gamma, regime.omega_th
    r = 1.0 / (p + 1.0)
    floor = 1e-8 * oth
    expm1, minimum, maximum = ops.expm1, ops.minimum, ops.maximum
    env = env or (lambda w: 1.0)
    if not head:

        def fn(w):
            v = maximum(w, floor)
            return w**p * (gamma * v * env(w) * (1.0 + 2.0 / expm1(2.0 * minimum(v / oth, 350.0))))

    else:

        def fn(x):
            w = x**r
            v = maximum(w, floor)
            return r * (gamma * v * env(w) * (1.0 + 2.0 / expm1(2.0 * minimum(v / oth, 350.0)))) * trig(w * tau)

    return p, fn, upper


#: depth of the Euler transform: each estimate averages the last 30 partial sums
_EULER_DEPTH = 30


def _euler_step(diagonal, partial):
    """The last diagonal of the averaging triangle of a sequence of partial
    sums, after one more partial sum.

    Entry j of a diagonal is the j-fold repeated average of neighbours that
    ends at the newest partial sum; it depends only on the last j + 1
    partial sums, so the new entry j is the average of the old entry j - 1
    and the new entry j - 1.  The diagonal keeps ``_EULER_DEPTH`` entries,
    and its last is the Euler transform of the last min(n, 30) partial sums,
    at O(30) per partial sum.
    """
    new = partial
    return [partial] + [new := 0.5 * (older + new) for older in diagonal[: _EULER_DEPTH - 1]]


# stopping rule of the Euler-accelerated oscillatory tail; its absolute
# floor is relative to the head (see _HEAD_FLOOR)
_TAIL_RTOL = 1e-8
_TAIL_FLOOR = 1e-12
_TAIL_MAX_SEGMENTS = 10_000
#: tail segments evaluated in one numpy call; the tail walks them in order
#: and may leave the rest of the last batch unread
_TAIL_BATCH = 16

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
    exact = regime.kind is RegimeKind.EXACT
    span = _ENVELOPE_SPAN * (min(sd.lam, regime.omega_th) if exact else sd.lam)
    cuts = span * 4.0 ** np.arange(max(0.0, np.ceil(np.log(hi / span) / np.log(4.0))))
    return [lo] + [c for c in cuts if lo < c < hi] + [hi]


#: absolute floor of the QUADPACK pieces at tau > 0 relative to the first; the
#: default 1.5e-8 left nu = 3e-7 99.97% off (exp s = 2.5, Lam = 0.01, Lam tau = 0.1)
_HEAD_FLOOR = 1.49e-8

#: relative accuracy asked of each QUADPACK call at tau = 0.  The integrand
#: is positive there, so the head's value, not QUADPACK's default absolute
#: floor of 1.5e-8, bounds the error of the other pieces, whatever the units
#: of J (that floor left exponential baths with Lam = 0.2 6e-9 off)
_TAU0_RTOL = 1e-11

#: terms of the series of the Drude-Lorentz tail past the last edge c at
#: tau = 0; they fall by (Lam/c)^2 <= 1/256^2, so the next is below 1e-19
_DRUDE_TAIL_TERMS = 4


def _kernel_quadrature(sd, regime, tau, kind):
    tau = float(_finite_nonnegative("tau", tau))
    p, part, upper = _integrand_parts(sd, regime, _FLOAT)
    # the substitution w = x^r, r = 1/(p+1), takes the w^p point out of the head
    q = p + 1.0

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
        # cos(0 w) = 1 leaves every bit of r g(x^r)
        head_fn = _integrand_parts(sd, regime, _FLOAT, _FLOAT.cos, 0.0)[1]
        head = integrate.quad(head_fn, 0.0, a_head**q, epsabs=0.0, epsrel=_TAU0_RTOL, limit=200)[0]
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

    if upper is np.inf:
        # no frequency of the tail exceeds (_TAIL_MAX_SEGMENTS + 5) pi/tau; w^p,
        # and the Drude-Lorentz envelope's w * w, must not overflow up to there
        power = max(p, 2.0 if sd.cutoff is Cutoff.DRUDE_LORENTZ else 1.0)
        reach = (_TAIL_MAX_SEGMENTS + 5.0) * np.pi / tau
        if not reach <= sys.float_info.max ** (1.0 / power):
            raise RangeError(
                "tau = %g is too small for the quadrature oracle: its tail would reach w = %g, "
                "where w^%g overflows" % (tau, reach, power)
            )

    # head: [0, a_sub] in x, then the oscillatory-weight QUADPACK rule up to
    # w_head (finite upper: done).  The absolute floors are relative to the
    # first piece, not QUADPACK's 1.5e-8, whatever the units of J
    w_head = min(4.0 * np.pi / tau, upper)
    a_sub = min(1.0, w_head)
    head_fn = _integrand_parts(sd, regime, _FLOAT, getattr(_FLOAT, kind), tau)[1]
    head = integrate.quad(head_fn, 0.0, a_sub**q, epsabs=0.0, limit=300)[0]
    floor = abs(head)
    if upper is not np.inf:
        if upper > a_sub:
            head += integrate.quad(part, a_sub, upper, weight=kind, wvar=tau, epsabs=_HEAD_FLOOR * floor, limit=2000)[0]
        return head
    edges = _envelope_edges(sd, regime, a_sub, w_head)
    for lo, hi in zip(edges, edges[1:]):
        head += integrate.quad(part, lo, hi, weight=kind, wvar=tau, epsabs=_HEAD_FLOOR * floor, limit=500)[0]

    # oscillatory tail: integrate between consecutive zeros of the trig factor
    # and Euler-accelerate the alternating sequence of partial sums; the
    # segments are 12-node Gauss rules on arrays, _TAIL_BATCH to a call
    part_nodes = _integrand_parts(sd, regime, _ARRAY)[1]
    trig_nodes = getattr(_ARRAY, kind)
    full = lambda w: part_nodes(w) * trig_nodes(w * tau)
    off = 0.5 if kind == "cos" else 0.0
    k = int(np.floor(w_head * tau / np.pi - off)) + 1
    edge = lambda j: (j + off) * np.pi / tau
    while edge(k) <= w_head:
        k += 1
    total = head + float(_rules._gauss_segments(full, np.array([w_head, edge(k)]))[0])
    run = 0.0
    diagonal = []
    done = 0
    stable = 0
    last_est = None
    while done < _TAIL_MAX_SEGMENTS:
        batch = min(_TAIL_BATCH, _TAIL_MAX_SEGMENTS - done)
        segments = _rules._gauss_segments(full, edge(k + done + np.arange(batch + 1)))
        for seg in segments.tolist():
            done += 1
            run += seg
            diagonal = _euler_step(diagonal, run)
            if abs(seg) < 1e-305:
                return total + run
            if done >= 8:
                est = diagonal[-1]
                if last_est is not None and abs(est - last_est) < _TAIL_RTOL * abs(total + est) + _TAIL_FLOOR * floor:
                    stable += 1
                    if stable >= 3:
                        return total + est
                else:
                    stable = 0
                last_est = est
    raise ConvergenceError(
        "oscillatory tail did not stabilise within %d segments" % _TAIL_MAX_SEGMENTS
    )


def noise_kernel_quadrature(sd, regime, tau):
    """Noise kernel nu(tau) = int_0^inf J(w) coth(w/Omega_th) cos(w tau) dw.

    The coth weight is taken exactly, or replaced by its classical
    (Omega_th/w) or quantum (1) limit according to ``regime``.  The w -> 0
    end is handled analytically (J ~ w^s keeps the integrand finite), the
    oscillatory tail by half-period segmentation with Euler acceleration.

    Raises ConvergenceError when the tail accelerator fails or the integral
    diverges (Drude-Lorentz tails at tau = 0 with s >= 1 in the quantum or
    exact regimes, s >= 2 at high temperature), and RangeError for a tau > 0
    so small that w^p (p = s, or s - 1 at high temperature and in the exact
    regime), or the Drude-Lorentz envelope's w^2, overflows within the
    tail's reach of about 1e4 pi/tau: below about 2e-150 for Drude-Lorentz
    with p <= 2, 2e-304 for the exponential cutoff with p <= 1 (abrupt:
    never).
    """
    return _kernel_quadrature(sd, regime, tau, "cos")


def dissipation_kernel_quadrature(sd, tau):
    """Dissipation kernel eta(tau) = int_0^inf J(w) sin(w tau) dw; eta(0) = 0.
    Errors as for ``noise_kernel_quadrature``, with p = s."""
    return _kernel_quadrature(sd, _LOW, tau, "sin")


# --------------------------------------------------------------------------
# closed transforms of the defining integrals
# --------------------------------------------------------------------------

def _horner(x, coef):
    """sum_k coef[k] x^k by Horner's rule, lowest coefficient first, in place
    on one array and in the bits of numpy's ``polyval``: coef[k] broadcasts
    against x, so coef of shape (terms, m, 1) gives m sums over x."""
    acc = x * 0.0 + coef[-1]
    for c in coef[-2::-1]:
        acc *= x
        acc += c
    return acc


#: x = Lam tau up to which _trig_power_ratio sums its power series; the
#: series' cancellation costs a factor of about e^x in rounding
_TRIG_SERIES_TOP = 4.0
#: terms of that series; the last is below 1e-17 of the first at the top x
_TRIG_SERIES_TERMS = 18
#: nodes of the Gauss-Jacobi rule of the middle band, accurate to rounding
#: for trig(x u) on [0, 1] up to the band's top, the asymptotic edge
_TRIG_JACOBI_NODES = 36
#: (x past which, terms) of the asymptotic series of the tail, where the
#: abrupt transforms split into a power law and e^{ix} times a smooth
#: amplitude (``_trig_power_split``).  At x = 36 the last term is the
#: divergent series' smallest, about sqrt(2 pi x) e^-x = 3.5e-15 of the
#: first; past it every term is smaller than the one before
_TRIG_TAIL_START, _TRIG_TAIL_TERMS = 36.0, 36


def _trig_power_ratio(se, x, kind):
    """R(se, x) = int_0^1 u^se trig(x u) du = int_0^x v^se trig(v) dv / x^{se+1},
    vectorised over x >= 0, for any se > -1, in three bands of x:

    * x <= 4: the power series in x^2, a fixed number of terms;
    * 4 < x <= 36: a Gauss-Jacobi rule with weight u^se on [0, 1], each x
      summed on its own (``_rules._rule_sums``);
    * x > 36: S + Re[a e^{ix}] from ``_trig_power_split``, the form the time
      integration takes past Lam tau = 36.

    Each x takes a fixed sequence of operations chosen by its band alone,
    so its value does not depend on the other entries of the call.
    Against 40-digit mpmath the error stays below 2e-13 of max(|R|, 1/(1+x))
    (measured for -0.99 <= se <= 5).  Finite limit at x = 0: 1/(se+1) for
    cos, 0 for sin.
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    out = np.empty_like(flat)
    odd = 0 if kind == "cos" else 1
    band = np.searchsorted([_TRIG_SERIES_TOP, _TRIG_TAIL_START], flat)

    idx = np.nonzero(band == 0)[0]
    if idx.size:
        # x^odd sum_j (-x^2)^j / ((2j+odd)! (se+2j+odd+1))
        xs = flat[idx]
        coef = [
            1.0 / (math.factorial(2 * j + odd) * (se + 2 * j + odd + 1.0))
            for j in range(_TRIG_SERIES_TERMS)
        ]
        out[idx] = _horner(-xs * xs, coef) * xs**odd

    idx = np.nonzero(band == 1)[0]
    if idx.size:
        u, w = _rules._jacobi_rule01(_TRIG_JACOBI_NODES, se)
        out[idx] = _rules._rule_sums(flat[idx], u, w, np.cos if kind == "cos" else np.sin)

    idx = np.nonzero(band == 2)[0]
    if idx.size:
        xs = flat[idx]
        smooth, amp = _trig_power_split(se, xs, kind)
        out[idx] = smooth + (amp.real * np.cos(xs) - amp.imag * np.sin(xs))
    return out.reshape(x.shape)


@functools.lru_cache(maxsize=64)
def _trig_tail_coef(se):
    """Coefficients of the series (p x, q) of ``_trig_power_split`` in powers
    of x^-2, lowest first, shape (power, 2); the shorter one ends in zeros,
    which change no bit of its Horner sum."""
    falling = [1.0]
    while len(falling) < _TRIG_TAIL_TERMS and falling[-1] != 0.0:
        falling.append(falling[-1] * (se - len(falling) + 1.0))
    q_coef = [falling[k] * (-1.0) ** (k // 2) for k in range(0, len(falling), 2)]
    p_coef = [falling[k] * (-1.0) ** ((k + 1) // 2) for k in range(1, len(falling), 2)]
    p_coef += [0.0] * (len(q_coef) - len(p_coef))
    coef = np.array([p_coef, q_coef]).T
    coef.flags.writeable = False
    return coef


def _trig_power_split(se, x, kind):
    """(S, a) with R(se, x) = S + Re[a e^{ix}] for an array of x > 36
    (``_TRIG_TAIL_START``).  S = c_inf x^-(se+1) is the smooth power law,
    c_inf = int_0^inf v^se trig(v) dv (Abel-summed).  The tail
    int_x^inf v^se e^{iv} dv ~ e^{ix} x^se (p + i q) has the asymptotic
    series p + i q = sum_k i^{k+1} se(se-1)...(se-k+1) x^{-k}, summed here
    to ``_TRIG_TAIL_TERMS`` terms (it ends at the first zero of the falling
    factorial, integer se), so a = -(p + i q)/x (cos) or i (p + i q)/x (sin)."""
    x = np.asarray(x, dtype=float)
    acc = _horner(1.0 / (x * x), _trig_tail_coef(se)[:, :, None])
    amp = (acc[0] / x + 1j * acc[1]) / x
    trig = np.cos if kind == "cos" else np.sin
    cinf = _sp.gamma(se + 1.0) * trig(np.pi * (se + 1.0) / 2.0)
    return cinf * x ** -(se + 1.0), -amp if kind == "cos" else 1j * amp


#: x = Lam tau up to which _drude_transform sums its power series, whose
#: terms grow to cosh x; 13 terms of each parity reach x^n/n! < 2e-18 there
_DRUDE_SERIES_TOP, _DRUDE_SERIES_TERMS = 2.0, 13
#: x below which the series forms x cot(pi e1/2) (x^e1 - 1) without x^e1
_DRUDE_TINY_X = 1e-300
#: psi^(m)(n+1)/(m+1)!, m, n = 0 .. 25: the Taylor series in eps of
#: (ln Gamma(n+1+eps) - ln Gamma(n+1))/eps, taken for |eps| < 1/4, where a
#: difference of two gammaln calls loses 1e-16/|eps|; (1/4)^25/26 < 1e-16
_DRUDE_TAYLOR = _sp.polygamma(np.arange(26.0)[:, None], np.arange(1.0, 27.0))
_DRUDE_TAYLOR /= _sp.gamma(np.arange(2.0, 28.0))[:, None]
#: the middle band 2 < x <= 64: one Chebyshev interpolant through 20 points
#: per octave, sampled by a 40-node Gauss-Jacobi rule on v <= 16/x and a
#: 24-node Gauss-Legendre panel past it, where e^{-x v} < e^-16
_DRUDE_OCTAVES, _DRUDE_CHEB_POINTS, _DRUDE_JACOBI_NODES, _DRUDE_HEAD = 5, 20, 40, 16.0
#: row k: the coefficients of the Chebyshev polynomial T_k in powers of t
_DRUDE_CHEB_POWERS = np.zeros((_DRUDE_CHEB_POINTS, _DRUDE_CHEB_POINTS))
_DRUDE_CHEB_POWERS[0, 0] = _DRUDE_CHEB_POWERS[1, 1] = 1.0
for _k in range(2, _DRUDE_CHEB_POINTS):
    _DRUDE_CHEB_POWERS[_k] = 2.0 * np.roll(_DRUDE_CHEB_POWERS[_k - 1], 1) - _DRUDE_CHEB_POWERS[_k - 2]
#: terms of the asymptotic series past x = 64, the last below 1e-17 of the first
_DRUDE_ASYMPTOTIC_TERMS = 12


def _quarter_turns(t):
    """(cos, sin) of pi t/2 to a few rounding units each, exact at integer t:
    the nearest integer's quarter turns are taken out before the angle is formed."""
    n = round(t)
    c, s = _sp.cosdg(90.0 * (t - n)), _sp.sindg(90.0 * (t - n))
    for _ in range(n % 4):
        c, s = -s, c
    return c, s


def _cot_expm1(eps):
    """y -> cot(pi eps/2) (e^{eps y} - 1), with its limit 2 y/pi at eps = 0."""
    if eps == 0.0:
        return lambda y: (2.0 / np.pi) * y
    c, s = _quarter_turns(eps)
    return lambda y: np.expm1(eps * y) * (c / s)


def _x_cot_expm1(eps):
    """(x, y) -> x cot(pi eps/2) (x^eps - 1) at y = ln x, formed as
    cot(pi eps/2) (x^(1+eps) - x), which stays finite for eps > -1 where
    x^eps overflows (eps < 0, x subnormal); x 2 y/pi at eps = 0."""
    if eps == 0.0:
        return lambda x, y: x * ((2.0 / np.pi) * y)
    c, s = _quarter_turns(eps)
    return lambda x, y: (np.exp((1.0 + eps) * y) - x) * (c / s)


def _pole_pair(eps, parity):
    """Coefficients (a, b), in powers of x^2, of the series
    cot(pi eps/2) sum_n [x^{n+eps}/Gamma(n+1+eps) - x^n/n!] = x^parity [_cot_expm1(eps)(ln x) a + b],
    n = parity, parity + 2, ...: a_n = 1/Gamma(n+1+eps) and
    b_n = cot(pi eps/2) (Gamma(n+1)/Gamma(n+1+eps) - 1)/n!.  Both are relative
    to eps, so the pair keeps its accuracy where eps -> 0 cancels its terms."""
    n = np.arange(parity, 2 * _DRUDE_SERIES_TERMS, 2.0)
    if abs(eps) < 0.25:
        log_ratio = eps ** np.arange(26.0) @ _DRUDE_TAYLOR[:, parity::2]
    else:
        log_ratio = (_sp.gammaln(n + 1.0 + eps) - _sp.gammaln(n + 1.0)) / eps
    return _sp.rgamma(n + 1.0 + eps), _cot_expm1(eps)(-log_ratio) * _sp.rgamma(n + 1.0)


@functools.lru_cache(maxsize=32)
def _drude_transform(se, kind):
    """x -> D(se, x) = int_0^inf u^se trig(x u)/(1 + u^2) du over an array of
    x >= 0, for -1 < se < 2 (cos) or 0 < se < 2 (sin); built once per (se, kind).

    Rotating the contour onto the imaginary axis, with half the residue at
    u = i, gives D = (pi/2) cos(pi se/2) e^{-x} - sin(pi se/2) P (cos) or
    (pi/2) sin(pi se/2) e^{-x} + cos(pi se/2) P (sin) for x > 0, with
    P = PV int_0^inf v^se e^{-x v}/(1 - v^2) dv; the trig factors are exact at
    integer se, so cos at se = 0 and sin at se = 1 are (pi/2) e^{-x}.  P takes
    three bands of x, each x a fixed sequence of elementwise operations chosen
    by its band, so its value does not depend on the other entries of the call:

    * x <= 2: (pi/2)[cot(pi e0/2) F_even(e0) - cot(pi e1/2) F_odd(e1)],
      e0 = 1 - se, e1 = -se, F(eps) = sum_n [x^{n+eps}/Gamma(n+1+eps) - x^n/n!]
      over even or odd n, each pair as in ``_pole_pair``; past se = 1 the odd
      terms pair one step later, F_odd(-se) = x^{1-se}/Gamma(2-se) + F_odd(2-se),
      so the series holds through se = 0, 1 and 2; the four series are
      summed by Horner (``_horner``) in x^2; below x = 1e-300 the odd pair's
      x cot(pi e1/2) (x^e1 - 1) is formed without x^e1 (``_x_cot_expm1``);
    * 2 < x <= 64: per octave, a Chebyshev interpolant of x^(se+1) P in
      log2 x, sampled from P = int_0^1 v^se [e^{-x v} - v^{-2 se} e^{-x/v}]/(1 - v^2) dv,
      the PV integral folded by v -> 1/v, which cancels the pole;
    * x > 64: the asymptotic series P ~ sum_k Gamma(se+1+2k) x^{-se-1-2k}.

    Against 30-digit mpmath every value is within 1e-12 of max(|D|, (1+x)^-(se+1))
    (worst 5e-14, over cos at -0.9 <= se <= 1.95 and sin at 1e-9 <= se <= 2 - 1e-9,
    x in [1e-9, 5e3]).  At x = 0 it returns the x -> 0+ limit: (pi/2)/cos(pi se/2)
    for cos and 0 for sin below se = 1, pi/2 for sin at se = 1, else inf; inf
    also, without a warning, where D leaves the float range at subnormal x
    (se past ~1.95).
    """
    c, s = _quarter_turns(se)
    e1 = -se if se <= 1.0 else 2.0 - se
    c1, s1 = _quarter_turns(e1)
    lead = 0.0 if se <= 1.0 else c1 / (s1 * _sp.gamma(e1))
    series = np.vstack(_pole_pair(1.0 - se, 0) + _pole_pair(e1, 1))
    r0, r1, x_r1 = _cot_expm1(1.0 - se), _cot_expm1(e1), _x_cot_expm1(e1)

    m = _DRUDE_CHEB_POINTS
    angle = np.pi * (np.arange(m) + 0.5) / m
    log2x = np.arange(1.0, 1.0 + _DRUDE_OCTAVES)[:, None] + 0.5 * (1.0 + np.cos(angle))
    xj = np.exp2(log2x).ravel()[:, None]
    # the fold's second exponent is floored at -700, where exp() would take
    # its slow underflow path; v = 1 - 2^-53 stands for the limit at v = 1
    fold = lambda v: (
        (np.exp(-xj * v) - np.exp(np.maximum(-2.0 * se * np.log(v) - xj / v, -700.0))) / (1.0 - v * v)
    )
    # the Jacobi weights are accurate relative to the largest one, so the
    # rule keeps the peak of e^{-x v} resolved: x v <= 16 on [0, top]
    top = np.minimum(1.0, _DRUDE_HEAD / xj)
    v, w = _rules._jacobi_rule01(_DRUDE_JACOBI_NODES, se)
    vl = np.minimum(top + (1.0 - top) * 0.5 * (1.0 + _rules._DRUDE_TAIL_X), 1.0 - 2.0**-53)
    values = top[:, 0] ** (se + 1.0) * (fold(top * v) @ w)
    values += 0.5 * (1.0 - top[:, 0]) * ((vl**se * fold(vl)) @ _rules._DRUDE_TAIL_W)
    values = values.reshape(log2x.shape) * np.exp2((se + 1.0) * log2x)
    # interpolated in Chebyshev form, then summed in powers of the octave's
    # coordinate t: x^(se+1) P is analytic in log x off the negative real
    # axis, 9 units of t away, so the change of basis costs no digits
    cheb = (2.0 / m) * np.cos(np.outer(np.arange(m), angle)) @ values.T
    cheb[0] *= 0.5
    octaves = _DRUDE_CHEB_POWERS.T @ cheb
    asymptotic = _sp.gamma(se + 1.0 + 2.0 * np.arange(_DRUDE_ASYMPTOTIC_TERMS))
    if kind == "cos":
        at_zero = (np.pi / 2.0) / c if se < 1.0 else np.inf
    else:
        at_zero = 0.0 if se < 1.0 else (np.pi / 2.0 if se == 1.0 else np.inf)
    top_x = 2.0 ** (1 + _DRUDE_OCTAVES)

    def fn(x):
        x = np.asarray(x, dtype=float)
        flat = x.ravel()
        p = np.zeros_like(flat)
        band = (flat > 0.0).view(np.int8) + (flat > _DRUDE_SERIES_TOP) + (flat > top_x)

        sel = band == 1
        if sel.any():
            xs = flat[sel]
            lx = np.log(xs)
            a0, b0, a1, b1 = _horner(xs * xs, series.T[:, :, None])
            # x^e1 (e1 = -se < 0) leaves the float range once x is
            # subnormal: below x = 1e-300, x r1 = x cot (x^e1 - 1) takes the
            # form that stays finite, and every larger x keeps its bits
            tiny = xs < _DRUDE_TINY_X
            odd = xs * (r1(np.where(tiny, 0.0, lx)) * a1 + b1)
            if tiny.any():
                xt = xs[tiny]
                odd[tiny] = x_r1(xt, lx[tiny]) * a1[tiny] + xt * b1[tiny]
            # past se ~ 1.95 a subnormal x takes D ~ x^(1-se) past the float
            # range: both terms in x^(1-se) are -inf there, so P is -inf and
            # D is +inf, as at x = 0, with no overflow warning
            with np.errstate(over="ignore"):
                sums = r0(lx) * a0 + b0 - odd
                if lead:
                    sums -= lead * xs ** (1.0 - se)
            p[sel] = (np.pi / 2.0) * sums
        sel = band == 2
        if sel.any():
            lg = np.log2(flat[sel])
            octave = np.minimum(lg.astype(int), _DRUDE_OCTAVES) - 1
            t = 2.0 * (lg - octave) - 3.0
            p[sel] = _horner(t, octaves[:, octave]) * np.exp2(-(se + 1.0) * lg)
        sel = band == 3
        if sel.any():
            xs = flat[sel]
            p[sel] = _horner(1.0 / (xs * xs), asymptotic) * xs ** -(se + 1.0)

        e = (np.pi / 2.0) * np.exp(-flat)
        out = c * e - s * p if kind == "cos" else s * e + c * p
        out[flat <= 0.0] = at_zero
        return out.reshape(x.shape)

    return fn


def require_integrable(sd, regime, kind="cos"):
    """DomainError unless nu (eta for kind='sin') is integrable at tau = 0.

    A Drude-Lorentz J(w) c(w) falls off as w^(se-2) (``_regime_weight``), so
    the kernel grows as tau^(1-se) for se > 1 and is not integrable for
    se >= 2: s >= 2 at low temperature, in the exact regime and for eta,
    s >= 3 at high temperature.  The other cutoffs keep nu(0) finite."""
    if sd.cutoff is Cutoff.DRUDE_LORENTZ and _regime_weight(sd, regime)[0] >= 2.0:
        what = "eta" if kind == "sin" else "nu in the %s regime" % regime.kind.value
        raise DomainError(
            "%s of a Drude-Lorentz bath with s = %g is not integrable at tau = 0" % (what, sd.s)
        )


def _reference_kernel_fn(sd, regime, kind="cos"):
    """Vectorised closed transform of the defining integral: nu, or with
    kind='sin' (and the low regime) eta.  Every bath has one outside the
    exact regime, which raises UnsupportedFormError; DomainError where
    ``require_integrable`` says the kernel is not integrable at tau = 0.
    Each is C T(Lam tau), C of ``_closed_scale``, T the cutoff's dimensionless
    transform: ``_trig_power_ratio``, the form below or ``_drude_transform``.

    Each form is an exact equality, validated against the quadrature path,
    so curves built on them remain quadrature-grade in the time integration.
    """
    require_integrable(sd, regime, kind)
    if regime.kind is RegimeKind.EXACT:
        raise UnsupportedFormError("no closed transform for s=%g %s exact" % (sd.s, sd.cutoff.value))
    se, scale = _closed_scale(sd, regime)
    lam = sd.lam
    if sd.cutoff is Cutoff.ABRUPT:
        transform = lambda x: _trig_power_ratio(se, x, kind)
    elif sd.cutoff is Cutoff.EXPONENTIAL:
        # Gamma(se+1) (1 + x^2)^(-(se+1)/2) trig((se+1) arctan x)
        trig = np.cos if kind == "cos" else np.sin
        gamma = _sp.gamma(se + 1.0)
        transform = lambda x: gamma * (1.0 + x**2) ** (-(se + 1.0) / 2.0) * trig((se + 1.0) * np.arctan(x))
    else:
        # the transform is looked up at each call, so a kernel built only
        # for its plan's layout builds none
        def kernel(tau):
            # a Drude-Lorentz kernel ~ tau^(1-se) leaves the float range at
            # subnormal tau past se ~ 1.9: inf there, as at tau = 0, unwarned
            with np.errstate(over="ignore"):
                return scale * _drude_transform(se, kind)(lam * np.asarray(tau, dtype=float))

        return kernel
    return lambda tau: scale * transform(lam * np.asarray(tau, dtype=float))


def _closed_scale(sd, regime):
    """(se, C) of the closed transforms C T(Lam tau): C = pref Lam^(se+1), (se, pref) of ``_regime_weight``."""
    se, pref = _regime_weight(sd, regime)
    return se, pref * sd.lam ** (se + 1.0)


def _oscillating_tail(sd, regime, kind="cos"):
    """The abrupt reference kernel of ``_reference_kernel_fn`` in the high or
    low regime past Lam tau = 36, split for a time integration that takes the
    factor e^{i Lam tau} exactly: (start, parts) with start = 36/Lam and
    parts(tau) = (S, a) on a tau array > start, nu = S + Re[a e^{i Lam tau}]
    (eta for kind='sin'), S = C c_inf x^-(se+1) and a = -C (p + i q)/x (cos)
    or i C (p + i q)/x (sin), C of ``_closed_scale``, x = Lam tau
    (``_trig_power_split``).  ``decoherence._kernel_for`` decides where it
    applies."""
    se, scale = _closed_scale(sd, regime)
    lam = sd.lam

    def parts(tau):
        smooth, amp = _trig_power_split(se, lam * tau, kind)
        return scale * smooth, scale * amp

    return _TRIG_TAIL_START / lam, parts


def _reference_value(sd, regime, kind, tau):
    """The closed transform at scalar or array tau, or UnsupportedFormError."""
    fn = _reference_kernel_fn(sd, regime, kind)
    tarr = _finite_nonnegative("tau", tau)
    out = fn(tarr)
    return out if np.ndim(tau) else float(out)


def noise_kernel_reference(sd, regime, tau):
    """Closed transform of the regime-weighted defining integral, for scalar
    or array tau >= 0 (DomainError otherwise).

    Equal to ``noise_kernel_quadrature`` wherever defined (this is tested).
    Raises UnsupportedFormError in the exact regime, which has no closed
    transform, and DomainError for a kernel that ``require_integrable``
    rejects.
    """
    return _reference_value(sd, regime, "cos", tau)


def dissipation_kernel_reference(sd, tau):
    """Closed transform of eta(tau), tau >= 0; DomainError for a Drude-Lorentz
    bath with s >= 2, whose eta is not integrable at tau = 0."""
    return _reference_value(sd, _LOW, "sin", tau)


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
    of one octave of tau x_top^2/pi, each tau's sum of weights cos(tau w) taken
    on its own by ``_rules._rule_sums``.  Panels halve towards x = 0 down to half
    the square root of the smallest frequency scale, min(Omega_th, Lam): the
    poles of the Bose factor and of the Drude-Lorentz envelope lie at 45
    degrees in the complex x plane, so each panel [a, 2a] stays clear of
    them.  The innermost panel [0, x0] is a Gauss-Jacobi rule with weight
    x^(2s-1), the integrand's behaviour at 0, so the rule keeps its accuracy
    at any s > 0.  The top tau of the octave subdivides the panels so that
    none spans more than half a period of cos(x^2 tau); a tau's value
    therefore depends only on tau, through its octave and its own row sum,
    not on the other tau of the call, and small tau do not pay for the rule
    of the largest.
    """
    beta = 2.0 * sd.s - 1.0
    ju, jw = _rules._jacobi_rule01(16, beta)
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
        x = np.concatenate([xe[0] * ju, (mid[:, None] + half[:, None] * _rules._GX16).ravel()])
        weight = np.concatenate([xe[0] * jw, (half[:, None] * _rules._GW16).ravel()])
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
            out[idx] = _rules._rule_sums(flat[idx], *rule(o), np.cos)
        return out.reshape(tau.shape)

    return fn


def closed_kernel_error(sd, regime, tau_max):
    """The error the catalogued regime kernels raise on [0, tau_max], or None.

    This states their validity window: the exact regime has no catalogued
    kernel; the Ohmic Drude-Lorentz pole-sum forms need Omega_th > 0 with
    Lam/Omega_th off the poles of cot(Lam/Omega_th), and Lam tau <= LAM_TAU_MAX.
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


def noise_kernel_closed_parts(sd, regime, tau):
    """Catalogued analytic regime kernel, complex where the catalogue form is.

    For the Ohmic Drude-Lorentz regimes this evaluates the Matsubara
    pole-sum forms (cot(Lam/Omega_th) cosh(Lam tau) and, at high
    temperature, an additional imaginary polynomial piece).  Those two forms
    are exactly what the analytic coefficient formulas of the same regimes
    integrate, but they are *not* transforms of the coth-approximated
    defining integral; ``noise_kernel_reference`` provides the latter.
    """
    tarr = _finite_nonnegative("tau", tau)
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

    Near an integer n = round(b) it is ill-conditioned: the cot term and the
    k = n - 1 term of Phi(z,1,1-b) both grow as 1/|b - n| and cancel, and
    the rounding of the double Lam/Omega_th inside cot grows as
    1/|sin(Lam/Omega_th)|.  Against 40-digit mpmath at the exact double
    arguments, worst over pi Omega_th tau in [1e-6, 30] and Omega_th in
    {1, 17, 90}: 1.4e-11 at b = 24.04, 1.1e-10 at b = 58.99 and 3.2e-10 at
    b = 7.0047 (where the terms are 8e3 times |nu|), against 2.4e-12 at
    b = 7.5 and 24.5.
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
