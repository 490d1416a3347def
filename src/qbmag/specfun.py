"""Special functions used by the closed-form bath kernels and coefficients.

Everything here is scalar (complex in, complex out unless stated). The sine
and cosine integrals accept arbitrary complex arguments on the principal
branch; the remaining functions wrap or extend scipy.special where the
library form is not sufficient (complex arguments, explicit error contracts,
or the Lerch series, which scipy does not ship).
"""

from math import comb, factorial

import numpy as np
from scipy import special as _sp

from .errors import (
    ConvergenceError,
    DomainError,
    PoleError,
    RangeError,
)

EULER_GAMMA = 0.5772156649015328606065

# |z| below which the Maclaurin series of Si/Cin is summed directly
# (in extended precision), above which the function is reconstructed from
# the real axis or from E1.  Chosen so both routes agree to <=1e-12.
_TAYLOR_RADIUS = 20.0
# half-width of the strip around the real axis handled by the derivative
# expansion of e^{ix}/x about Re z
_STRIP_HALF_WIDTH = 5.0
# |Im z| beyond which exp(|Im z|) overflows the double range
_IM_OVERFLOW = 700.0


def _sici_maclaurin(z):
    """Si(z) and Cin(z) = sum (-1)^k z^{2k} / (2k (2k)!) by direct summation.

    Uses clongdouble so the e^{|z|} cancellation at |z| ~ 20 still leaves
    ~11 correct digits.
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


def _sici_strip(z):
    """Si/Ci at z = x + iy, x > 0, |y| <= x/2: Taylor in iy off the real axis.

    The k-th derivatives of Si and Ci are Im/Re of d^{k-1}/dx^{k-1}[e^{ix}/x],
    which has the exact finite form used below, so no asymptotic series is
    involved; scipy's sici supplies the machine-precision anchor values.
    """
    x, y = z.real, z.imag
    six, cix = _sp.sici(x)
    si = complex(six)
    ci = complex(cix)
    iy = 1j * y
    eix = np.exp(1j * x)
    kfac = 1.0
    for k in range(1, 70):
        n = k - 1
        d = 0.0 + 0.0j
        xj = 1.0 / x
        for j in range(n + 1):
            d += comb(n, j) * (1j) ** (n - j) * (-1.0) ** j * factorial(j) * xj
            xj /= x
        d *= eix
        kfac *= k
        w = iy**k / kfac
        si += w * d.imag
        ci += w * d.real
        if abs(w) * (abs(d.imag) + abs(d.real)) < 1e-18 * (abs(si) + abs(ci) + 1e-30):
            break
    return si, ci


def _e1_series(w):
    """E1(w) = -gamma - log w - sum (-w)^k/(k k!); safe wherever the result
    is not exponentially smaller than the largest term."""
    wl = np.clongdouble(w)
    tot = np.clongdouble(0.0)
    term = np.clongdouble(-1.0)
    for k in range(1, 400):
        term = term * (-wl) / k
        tot += term / k
        if abs(term) / k < 1e-22 * (abs(tot) + 1e-30):
            break
    return -EULER_GAMMA - np.log(complex(w)) - complex(tot)


def _e1_cf(u, maxiter=8000):
    """Modified Lentz continued fraction for E1(u), Re u >= 0 away from the
    imaginary axis."""
    b = u + 1.0
    c = b + 1e300
    d = 1.0 / b
    f = d
    for i in range(1, maxiter):
        a = -float(i * i)
        b = b + 2.0
        d = 1.0 / (b + a * d)
        c = b + a / c
        delta = c * d
        f = f * delta
        if abs(delta - 1.0) < 5e-17:
            return f * np.exp(-u)
    raise ConvergenceError("continued fraction for E1 did not converge")


def _ei_asymptotic(u):
    """Ei(u) ~ e^u/u sum k!/u^k, truncated at the smallest term; |u| >~ 25."""
    tot = 0.0 + 0.0j
    term = 1.0 + 0.0j
    k = 0
    while k < 80:
        tot += term
        k += 1
        nxt = term * k / u
        if abs(nxt) > abs(term):
            break
        term = nxt
        if abs(term) < 1e-18 * abs(tot):
            tot += term
            break
    return np.exp(u) / u * tot


def _e1(w):
    """E1 on the principal branch, full complex plane except the cut w <= 0."""
    w = complex(w)
    if w == 0:
        raise DomainError("E1(0) diverges")
    if w.real < 0:
        if abs(w) <= 40.0:
            return _e1_series(w)
        sgn = 1.0 if w.imag >= 0 else -1.0
        return -_ei_asymptotic(-w) - 1j * np.pi * sgn
    if abs(w) <= 12.0:
        return _e1_series(w)
    if abs(w.real) >= 0.1 * abs(w):
        return _e1_cf(w)
    # near the imaginary axis: anchor at i*Im w via sici, Taylor in Re w
    y = w.imag
    ya = abs(y)
    six, cix = _sp.sici(ya)
    e1_axis = complex(-cix, six - np.pi / 2)  # E1(i ya)
    if y < 0:
        e1_axis = e1_axis.conjugate()
    w0 = 1j * y
    # derivatives: E1^{(n)}(w) = (-1)^n e^{-w} sum_{j=0}^{n-1} (n-1)!/j! w^{j-n}
    val = e1_axis
    eps = w.real
    emw = np.exp(-w0)
    epow = 1.0
    kfac = 1.0
    for n in range(1, 60):
        d = 0.0 + 0.0j
        for j in range(n):
            d += factorial(n - 1) / factorial(j) * w0 ** (j - n)
        d *= (-1.0) ** n * emw
        epow *= eps
        kfac *= n
        inc = d * epow / kfac
        val += inc
        if abs(inc) < 1e-18 * (abs(val) + 1e-30):
            break
    return val


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
    if abs(z) <= _TAYLOR_RADIUS:
        si, _ = _sici_maclaurin(z)
        return si
    if z.imag == 0.0:
        return complex(_sp.sici(z.real)[0])
    if abs(z.imag) <= min(_STRIP_HALF_WIDTH, 0.5 * z.real):
        return _sici_strip(z)[0]
    e1p = _e1(1j * z)
    e1m = _e1(-1j * z)
    return np.pi / 2 + (e1p - e1m) / 2j


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
    if abs(z) <= _TAYLOR_RADIUS:
        _, cin = _sici_maclaurin(z)
        return EULER_GAMMA + np.log(z) + cin
    if z.imag == 0.0:
        return complex(_sp.sici(z.real)[1])
    if abs(z.imag) <= min(_STRIP_HALF_WIDTH, 0.5 * z.real):
        return _sici_strip(z)[1]
    e1p = _e1(1j * z)
    e1m = _e1(-1j * z)
    return -(e1p + e1m) / 2


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
