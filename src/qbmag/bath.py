"""Bath spectral densities and the noise/dissipation kernels.

Two evaluation paths are provided for the kernels:

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

Unit convention: frequencies in gamma/m, times in m/gamma, gamma sets the
coupling scale; all kernels are homogeneous of degree 1 in ``gamma``.
"""

import enum
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special as _sp

from .errors import ConvergenceError, DomainError, PoleError, RangeError, UnsupportedFormError
from .specfun import lerch_phi

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
    if sd.cutoff is Cutoff.ABRUPT:
        env = (w <= sd.lam).astype(float)
    elif sd.cutoff is Cutoff.DRUDE_LORENTZ:
        env = sd.lam**2 / (sd.lam**2 + w * w)
    else:
        env = np.exp(-np.minimum(w / sd.lam, 745.0))
    out = sd.gamma * w**sd.s * env
    return out if out.ndim else float(out)


# --------------------------------------------------------------------------
# defining-integral quadrature
# --------------------------------------------------------------------------

def _coth(x):
    """coth on x > 0, stable for both tails."""
    x = np.asarray(x, dtype=float)
    out = np.ones_like(x)
    mod = x < 350.0
    out[mod] = 1.0 + 2.0 / np.expm1(2.0 * x[mod])
    return out


def _integrand_parts(sd, regime):
    """Split J(w) * coth-factor into w^p * g(w) with g smooth and finite at 0.

    Returns (p, g, upper_limit).
    """
    if sd.cutoff is Cutoff.ABRUPT:
        env = lambda w: np.ones_like(w)
        upper = sd.lam
    elif sd.cutoff is Cutoff.EXPONENTIAL:
        env = lambda w: np.exp(-np.minimum(w / sd.lam, 745.0))
        upper = np.inf
    else:
        env = lambda w: sd.lam**2 / (sd.lam**2 + w * w)
        upper = np.inf
    if regime is None or regime.kind is RegimeKind.LOW_TEMPERATURE:
        p = sd.s
        g = lambda w: sd.gamma * env(np.asarray(w, dtype=float))
    elif regime.kind is RegimeKind.HIGH_TEMPERATURE:
        p = sd.s - 1.0
        g = lambda w: sd.gamma * regime.omega_th * env(np.asarray(w, dtype=float))
    else:
        p = sd.s - 1.0
        oth = regime.omega_th

        def g(w):
            w = np.asarray(w, dtype=float)
            out = np.empty_like(w)
            tiny = w < 1e-8 * oth
            out[tiny] = sd.gamma * oth * env(w[tiny])
            ws = w[~tiny]
            out[~tiny] = sd.gamma * ws * env(ws) * _coth(ws / oth)
            return out

    return p, g, upper


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


def _kernel_quadrature(sd, regime, tau, kind, rtol):
    p, g, upper = _integrand_parts(sd, regime)
    tau = float(tau)
    if tau < 0:
        raise DomainError("tau must be >= 0")
    trig = np.cos if kind == "cos" else np.sin
    full = lambda w: np.asarray(w, dtype=float) ** p * g(w) * trig(np.asarray(w) * tau)

    if tau == 0.0:
        if kind == "sin":
            return 0.0
        if upper is np.inf and sd.cutoff is Cutoff.DRUDE_LORENTZ and p >= 1.0:
            raise ConvergenceError(
                "noise kernel diverges at tau = 0 for a Drude-Lorentz tail with w^%g growth" % p
            )
        q = p + 1.0
        a_head = 1.0 if upper is np.inf else min(1.0, upper)
        head = integrate.quad(
            lambda x: (1.0 / q) * float(g(x ** (1.0 / q))), 0.0, a_head**q, limit=200
        )[0]
        if upper is np.inf:
            rest = integrate.quad(lambda w: w**p * float(g(w)), a_head, np.inf, limit=500)[0]
        else:
            rest = (
                integrate.quad(lambda w: w**p * float(g(w)), a_head, upper, limit=500)[0]
                if upper > a_head
                else 0.0
            )
        return head + rest

    # head: [0, a_sub] via the substitution w = x^{1/(p+1)} (kills the w^p point),
    # then the oscillatory-weight QUADPACK rule up to w_head (finite upper: done).
    w_head = min(4.0 * np.pi / tau, upper)
    q = p + 1.0
    a_sub = min(1.0, w_head)
    head = integrate.quad(
        lambda x: (1.0 / q) * float(g(x ** (1.0 / q))) * trig(x ** (1.0 / q) * tau),
        0.0,
        a_sub**q,
        limit=300,
    )[0]
    if upper is not np.inf:
        if upper > a_sub:
            head += integrate.quad(
                lambda w: w**p * float(g(w)), a_sub, upper, weight=kind, wvar=tau, limit=2000
            )[0]
        return head
    if w_head > a_sub:
        head += integrate.quad(
            lambda w: w**p * float(g(w)), a_sub, w_head, weight=kind, wvar=tau, limit=500
        )[0]

    # oscillatory tail: integrate between consecutive zeros of the trig factor
    # and Euler-accelerate the alternating sequence of partial sums.
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
    exact regimes).
    """
    return _kernel_quadrature(sd, regime, tau, "cos", rtol)


def dissipation_kernel_quadrature(sd, tau):
    """Dissipation kernel eta(tau) = int_0^inf J(w) sin(w tau) dw; eta(0) = 0."""
    return _kernel_quadrature(sd, None, tau, "sin", 1e-8)


# --------------------------------------------------------------------------
# closed transforms of the defining integrals
# --------------------------------------------------------------------------

def _trig_power_ratio(se, x, kind):
    """R(se, x) = int_0^x v^se trig(v) dv / x^{se+1}, vectorised over x >= 0.

    Series below x = 20 (extended precision), asymptotic continuation with
    the constant int_0^inf v^se trig(v) dv beyond.  Finite limit at x = 0:
    1/(se+1) for cos, x/(se+2) -> 0 for sin.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x <= 20.0
    xs = x[small]
    if xs.size:
        xl = np.asarray(xs, dtype=np.longdouble)
        x2 = xl * xl
        if kind == "cos":
            term = np.ones_like(xl) / np.longdouble(se + 1.0)
        else:
            term = xl / np.longdouble(se + 2.0)
        tot = term.copy()
        for k in range(200):
            if kind == "cos":
                term = term * (-x2) * (se + 2 * k + 1) / ((2 * k + 1) * (2 * k + 2) * (se + 2 * k + 3))
            else:
                term = term * (-x2) * (se + 2 * k + 2) / ((2 * k + 2) * (2 * k + 3) * (se + 2 * k + 4))
            tot += term
            if np.all(np.abs(term) <= 1e-20 * (np.abs(tot) + 1e-30)):
                break
        out[small] = np.asarray(tot, dtype=float)
    xlrg = x[~small]
    if xlrg.size:
        cinf = _sp.gamma(se + 1.0) * (
            np.cos(np.pi * (se + 1.0) / 2.0) if kind == "cos" else np.sin(np.pi * (se + 1.0) / 2.0)
        )
        # int_x^inf v^se e^{iv} dv ~ e^{ix} x^se sum_k i^{k+1} se(se-1)...(se-k+1) x^{-k}
        tot = np.zeros(xlrg.shape, dtype=complex)
        term = np.full(xlrg.shape, 1j, dtype=complex)
        coef = 1.0
        for k in range(40):
            tot += coef * term
            coef *= se - k
            term = term * 1j / xlrg
            if abs(coef) * np.max(np.abs(term)) < 1e-18:
                break
        tail = np.exp(1j * xlrg) * xlrg**se * tot
        tail = tail.real if kind == "cos" else tail.imag
        out[~small] = (cinf - tail) / xlrg ** (se + 1.0)
    return out


def _expi_scaled(x):
    """e^{-x} Ei(x), x > 0, stable for large x."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    lo = x <= 50.0
    out[lo] = np.exp(-x[lo]) * _sp.expi(x[lo])
    xl = x[~lo]
    if xl.size:
        tot = np.zeros_like(xl)
        term = 1.0 / xl
        for k in range(40):
            tot += term
            term = term * (k + 1) / xl
        out[~lo] = tot
    return out


def _exp1_scaled(x):
    """e^{x} E1(x), x > 0, stable for large x."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    lo = x <= 50.0
    out[lo] = np.exp(x[lo]) * _sp.exp1(x[lo])
    xl = x[~lo]
    if xl.size:
        tot = np.zeros_like(xl)
        term = 1.0 / xl
        for k in range(40):
            tot += term
            term = term * (-(k + 1)) / xl
        out[~lo] = tot
    return out


def _drude_transform(se, lam, x, kind):
    """int_0^inf w^se Lam^2/(Lam^2+w^2) trig(w tau) dw for the se we need; x = Lam tau."""
    if kind == "cos":
        ec = _sp.erfcx(np.sqrt(x))
        dw = 2.0 / np.sqrt(np.pi) * _sp.dawsn(np.sqrt(x))
        if se == -0.5:
            return (np.pi / (2 * _SQ2)) * lam**0.5 * (np.exp(-x) + ec + dw)
        if se == 0.0:
            return (np.pi / 2.0) * lam * np.exp(-x)
        if se == 0.5:
            return (np.pi / (2 * _SQ2)) * lam**1.5 * (np.exp(-x) + ec - dw)
        if se == 1.0:
            with np.errstate(divide="ignore"):
                return -(lam**2 / 2.0) * (_expi_scaled(x) - _exp1_scaled(x))
        if se == 1.5:
            with np.errstate(divide="ignore"):
                return (
                    lam**2
                    * (
                        2.0 * np.sqrt(np.pi) * np.sqrt(lam / np.maximum(x, 1e-300))
                        - np.pi * np.sqrt(lam) * (np.exp(-x) + ec + dw)
                    )
                    / (2 * _SQ2)
                )
    elif se == 1.0:
        return (np.pi / 2.0) * lam**2 * np.exp(-x)
    return None


def _reference_kernel_fn(sd, regime, kind="cos"):
    """Vectorised closed transform of the defining integral, or None.

    These forms were each validated against the quadrature path; they are
    exact equalities, so curves built on them remain quadrature-grade in the
    time integration.
    """
    if regime is not None and regime.kind is RegimeKind.EXACT:
        return None
    if regime is None or regime.kind is RegimeKind.LOW_TEMPERATURE:
        se, pref = sd.s, sd.gamma
    else:
        se, pref = sd.s - 1.0, sd.gamma * regime.omega_th
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
    if _drude_transform(se, lam, np.asarray([1.0]), kind) is None:
        return None

    def fn(tau):
        tau = np.asarray(tau, dtype=float)
        return pref * _drude_transform(se, lam, lam * tau, kind)

    return fn


def noise_kernel_reference(sd, regime, tau):
    """Closed transform of the regime-weighted defining integral.

    Equal to ``noise_kernel_quadrature`` wherever defined (this is tested);
    raises UnsupportedFormError when no transform is catalogued (the exact
    regime, and Drude-Lorentz exponents outside {1/2, 1, 3/2}).
    """
    fn = _reference_kernel_fn(sd, regime, "cos")
    if fn is None:
        raise UnsupportedFormError(
            "no closed transform for s=%g %s %s" % (sd.s, sd.cutoff.value, regime.kind.value)
        )
    out = fn(np.asarray(tau, dtype=float))
    return out if np.ndim(tau) else float(out)


def dissipation_kernel_reference(sd, tau):
    """Closed transform of eta(tau); UnsupportedFormError when not catalogued."""
    fn = _reference_kernel_fn(sd, None, "sin")
    if fn is None:
        raise UnsupportedFormError(
            "no closed transform for eta with s=%g %s" % (sd.s, sd.cutoff.value)
        )
    out = fn(np.asarray(tau, dtype=float))
    return out if np.ndim(tau) else float(out)


def closed_kernel_error(sd, regime, tau_max):
    """The error the catalogued regime kernels raise on [0, tau_max], or None.

    This states their validity window: the exact regime, and Drude-Lorentz
    exponents without a transform, have no catalogued kernel; the Ohmic
    Drude-Lorentz pole-sum forms need Omega_th > 0 with Lam/Omega_th off the
    poles of cot(Lam/Omega_th), and Lam tau <= 700, past which
    cosh(Lam tau) overflows.
    """
    if regime.kind is RegimeKind.EXACT:
        return UnsupportedFormError("the exact regime has no catalogued kernel; use quadrature")
    if sd.cutoff is Cutoff.DRUDE_LORENTZ and sd.s == 1.0:
        if not regime.omega_th > 0:
            return DomainError("the Drude-Lorentz pole-sum forms need omega_th > 0")
        ratio = sd.lam / regime.omega_th
        if abs(np.sin(ratio)) < 1e-8:
            return PoleError(
                "cot(Lam/Omega_th) pole: Lam/Omega_th = %g is within 1e-8 of a multiple of pi" % ratio
            )
        if sd.lam * tau_max > 700.0:
            return RangeError("cosh(Lam tau) overflows for Lam tau = %g > 700" % (sd.lam * tau_max))
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
    if np.any(tarr < 0):
        raise DomainError("tau must be >= 0")
    err = closed_kernel_error(sd, regime, float(np.max(tarr)))
    if err is not None:
        raise err
    if sd.cutoff is Cutoff.DRUDE_LORENTZ and sd.s == 1.0:
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


def drude_exact_kernel(sd, omega_th, tau):
    """Exact-coth noise kernel for an Ohmic Drude-Lorentz bath by residue sum.

    nu(tau) = (pi gamma Lam^2/2) cot(Lam/Omega_th) e^{-Lam tau}
              + (gamma Lam^2/2) z [Phi(z,1,1-b) + Phi(z,1,1+b)],
    z = exp(-pi Omega_th tau), b = Lam/(pi Omega_th).  Valid for tau > 0 and
    b not an integer; cross-validated against the exact-regime quadrature.
    """
    if sd.cutoff is not Cutoff.DRUDE_LORENTZ or sd.s != 1.0:
        raise UnsupportedFormError("pole sum applies to the Ohmic Drude-Lorentz bath only")
    tau = float(tau)
    if tau <= 0:
        raise DomainError("the exact Drude-Lorentz kernel diverges at tau = 0")
    if abs(np.sin(sd.lam / omega_th)) < 1e-8:
        raise PoleError("cot(Lam/Omega_th) pole")
    b = sd.lam / (np.pi * omega_th)
    if abs(b - round(b)) < 1e-8:
        raise PoleError("Lam/(pi Omega_th) = %g collides with a Matsubara pole" % b)
    z = np.exp(-np.pi * omega_th * tau)
    cot = 1.0 / np.tan(sd.lam / omega_th)
    matsubara = (
        lerch_phi(z, 1.0, 1.0 - b).real + lerch_phi(z, 1.0, 1.0 + b).real
    )
    return float(
        (np.pi * sd.gamma * sd.lam**2 / 2.0) * cot * np.exp(-sd.lam * tau)
        + (sd.gamma * sd.lam**2 / 2.0) * z * matsubara
    )
