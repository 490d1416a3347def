"""Special functions used by the closed-form bath kernels and coefficients.

Everything here is scalar (complex in, complex out unless stated). The sine
and cosine integrals accept arbitrary complex arguments on the principal
branch.  After reflecting the argument into the quadrant Re z >= 0, Im z <= 0
they take the Maclaurin series, summed in extended precision, for non-real
|z| <= 10, and scipy.special.sici on the real axis and beyond |z| = 10.  The
remaining functions wrap or extend scipy.special where the library form is
not sufficient (explicit error contracts, or the Lerch series, which scipy
does not ship).
"""

import numpy as np
from scipy import special as _sp

from .errors import (
    ConvergenceError,
    DomainError,
    PoleError,
    RangeError,
)

EULER_GAMMA = 0.5772156649015328606065

# |z| up to which non-real arguments take the Maclaurin series of Si/Cin,
# summed in extended precision; scipy.special.sici takes the real axis and
# every larger argument, where the series' e^|z| cancellation would cost up
# to 3e-13 of max(|value|, 1) near the axis (scipy: 3e-16).
_TAYLOR_RADIUS = 10.0
# |Im z| beyond which exp(|Im z|) overflows the double range
_IM_OVERFLOW = 700.0


def _sici_maclaurin(z):
    """Si(z) and Cin(z) = sum (-1)^k z^{2k} / (2k (2k)!) by direct summation.

    Uses clongdouble, so Im Si and Ci close to the real axis keep about three
    more digits than scipy's complex sici, which the cancelling printed
    exponential-cutoff displays in ``coefficients`` need; the e^{|z|}
    cancellation keeps it within 6e-16 of max(|value|, 1) up to |z| = 10.
    """
    zl = np.clongdouble(z)
    z2 = zl * zl
    term = zl
    si = zl
    k = 0
    while k < 150:
        k += 1
        term = term * (-z2) / ((2 * k) * (2 * k + 1))
        si += term / (2 * k + 1)
        if abs(term) < 1e-22 * (abs(si) + 1.0):
            break
    term = np.clongdouble(1.0)
    cin = np.clongdouble(0.0)
    k = 0
    while k < 150:
        k += 1
        term = term * (-z2) / ((2 * k - 1) * (2 * k))
        cin += term / (2 * k)
        if abs(term) < 1e-22 * (abs(cin) + 1.0):
            break
    return complex(si), complex(cin)


def _sici_scipy(z):
    """Si(z), Ci(z) from scipy.special.sici; real z uses the real-typed call,
    whose values on the axis are not bit-identical to the complex one's."""
    si, ci = _sp.sici(z.real if z.imag == 0.0 else z)
    return complex(si), complex(ci)


def sin_integral(z):
    """Sine integral Si(z) = int_0^z sin(t)/t dt for complex z.

    Odd in z; real on the real axis; Si(x) -> pi/2 as x -> +inf.
    Raises RangeError once exp(|Im z|) leaves the double range.
    """
    z = complex(z)
    if abs(z.imag) > _IM_OVERFLOW:
        raise RangeError("Si overflows for |Im z| > %g" % _IM_OVERFLOW)
    if z == 0:
        return 0.0 + 0.0j
    if z.real < 0:
        return -sin_integral(-z)
    if z.imag > 0:
        return sin_integral(z.conjugate()).conjugate()
    if z.imag != 0.0 and abs(z) <= _TAYLOR_RADIUS:
        return _sici_maclaurin(z)[0]
    return _sici_scipy(z)[0]


def cos_integral(z):
    """Cosine integral Ci(z) = euler_gamma + log z + int_0^z (cos t - 1)/t dt.

    Principal branch, cut along the negative real axis; values on the cut
    take the upper-side limit Ci(-x) = Ci(x) + i pi.  Decays to 0 on the
    positive real axis.
    """
    z = complex(z)
    if z == 0:
        raise DomainError("Ci(0) diverges logarithmically")
    if abs(z.imag) > _IM_OVERFLOW:
        raise RangeError("Ci overflows for |Im z| > %g" % _IM_OVERFLOW)
    if z.real < 0:
        ci = cos_integral(-z)
        return ci + (1j * np.pi if z.imag >= 0 else -1j * np.pi)
    if z.imag > 0:
        return cos_integral(z.conjugate()).conjugate()
    if z.imag != 0.0 and abs(z) <= _TAYLOR_RADIUS:
        return EULER_GAMMA + np.log(z) + _sici_maclaurin(z)[1]
    return _sici_scipy(z)[1]


def gamma_fn(x):
    """Gamma function for real x, rejecting the poles at 0, -1, -2, ..."""
    x = float(x)
    if x <= 0 and x == np.floor(x):
        raise PoleError("Gamma pole at x = %g" % x)
    return float(_sp.gamma(x))


def erf_family(x, kind="erf"):
    """erf / erfc / erfi of a real argument.

    erfi(x) = -i erf(ix) grows like exp(x^2); arguments past ~26.6 overflow
    and raise RangeError.
    """
    x = float(x)
    if not np.isfinite(x):
        raise DomainError("argument must be finite")
    if kind == "erf":
        return float(_sp.erf(x))
    if kind == "erfc":
        return float(_sp.erfc(x))
    if kind == "erfi":
        val = float(_sp.erfi(x))
        if not np.isfinite(val):
            raise RangeError("erfi(%g) exceeds double range" % x)
        return val
    raise ValueError("kind must be one of 'erf', 'erfc', 'erfi'")


def lerch_phi(z, s, a, rtol=1e-12, max_terms=200_000):
    """Hurwitz-Lerch transcendent Phi(z, s, a) = sum_k z^k (k + a)^{-s}, |z| < 1.

    Direct summation with a geometric tail bound, plus Aitken extrapolation
    of the last partial sums when |z| > 0.5.  Negative non-integer a is
    accepted for integer s (the terms stay real); a <= 0 with non-integer s
    has no principal real value and is rejected.
    """
    z = complex(z)
    s = float(s)
    a = float(a)
    if abs(z) >= 1.0:
        raise DomainError("|z| must be < 1 for the series (got |z| = %g)" % abs(z))
    if a <= 0 and a == np.floor(a):
        raise PoleError("a = %g hits a pole of the series" % a)
    if a < 0 and s != np.floor(s):
        raise DomainError("a < 0 requires integer s for a real-valued series")
    tot = 0.0 + 0.0j
    zk = 1.0 + 0.0j
    tail_den = 1.0 - abs(z)
    p1 = p2 = p3 = None
    for k in range(max_terms):
        base = k + a
        tot += zk * base ** (-s) if base > 0 else zk / base**int(s)
        zk *= z
        # geometric tail bound once the |k+a|^{-s} factor is monotone
        if base > abs(s) + 1.0:
            tail = abs(zk) * abs(base + 1) ** (-s) / tail_den
            if tail < rtol * max(abs(tot), 1e-300):
                return tot
        if abs(z) > 0.5 and k >= 2:
            p1, p2, p3 = p2, p3, tot
            if p1 is not None:
                d1, d2 = p2 - p1, p3 - p2
                den = d2 - d1
                if den != 0:
                    accel = p3 - d2 * d2 / den
                    if abs(p3 - p2) < 10 * rtol * abs(accel) and abs(
                        accel - p3
                    ) < rtol * max(abs(accel), 1e-300):
                        return accel
        elif k >= 2:
            p1, p2, p3 = p2, p3, tot
    raise ConvergenceError("Lerch series did not reach tolerance (|z| too close to 1?)")
