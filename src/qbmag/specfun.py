"""Complex sine and cosine integrals for the closed-form coefficients.

Both are scalar (complex in, complex out) on the principal branch and are a
thin contract over scipy.special.sici: the argument is reflected into the
quadrant Re z >= 0, Im z <= 0 (Si is odd; both are real on the positive
axis, so conjugation carries the upper half-plane), Ci on the negative real
axis takes the upper-side limit of its cut, and real arguments take scipy's
real-typed call.  |Im z| > 700, where exp(|Im z|) overflows, raises
RangeError; Ci(0) raises DomainError.
"""

import numpy as np
from scipy import special as _sp

from .errors import DomainError, RangeError

# |Im z| beyond which exp(|Im z|) overflows the double range
_IM_OVERFLOW = 700.0


def _sici_scipy(z):
    """Si(z), Ci(z) from scipy.special.sici for z with Re z >= 0, Im z <= 0;
    real z uses the real-typed call, whose values on the axis are not
    bit-identical to the complex one's."""
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
    return _sici_scipy(z)[1]
