"""Complex sine and cosine integrals for the closed-form coefficients.

Both are scalar (complex in, complex out) on the principal branch and are a
thin contract over scipy.special.sici, which gives Si and Ci of one
argument in one call; ``_sici`` returns that pair, and ``sin_integral`` and
``cos_integral`` each take their half of it.  The reflection rules are
written once, in ``_sici``: the argument is reflected into the quadrant
Re z >= 0, Im z <= 0 (Si is odd; both are real on the positive axis, so
conjugation carries the upper half-plane), Ci on the negative real axis
takes the upper-side limit of its cut, and real arguments take scipy's
real-typed call.  |Im z| > 700, where exp(|Im z|) overflows, raises
RangeError; Ci(0) raises DomainError, and Si(0) = 0.

Each distinct reflected argument calls scipy once while it is among the
``_SICI_CACHE`` most recently used (``_sici_cached``, a ``functools.lru_cache``),
so a closed form that takes Si and Ci of the same few arguments many times pays
for each once.  The cache is keyed on the argument's bits, so +0.0 and -0.0
stay apart and every value is that of an uncached scipy call, bit for bit.
"""

import functools
import struct

import numpy as np
from scipy import special as _sp

from .errors import DomainError, RangeError

# |Im z| beyond which exp(|Im z|) overflows the double range
_IM_OVERFLOW = 700.0

#: distinct reflected arguments whose (Si, Ci) the cache keeps; criterion 5
#: of the validation takes 560
_SICI_CACHE = 4096


def _sici_scipy(z):
    """Si(z), Ci(z) from scipy.special.sici for z with Re z >= 0, Im z <= 0;
    real z uses the real-typed call, whose values on the axis are not
    bit-identical to the complex one's."""
    si, ci = _sp.sici(z.real if z.imag == 0.0 else z)
    return complex(si), complex(ci)


@functools.lru_cache(maxsize=_SICI_CACHE)
def _sici_cached(bits):
    """``_sici_scipy`` of the reflected argument packed as ``struct.pack("dd", re, im)``."""
    return _sici_scipy(complex(*struct.unpack("dd", bits)))


def _sici(z, name):
    """(Si(z), Ci(z)) for complex z != 0; ``name``, the function asked for,
    labels the RangeError."""
    z = complex(z)
    if abs(z.imag) > _IM_OVERFLOW:
        raise RangeError("%s overflows for |Im z| > %g" % (name, _IM_OVERFLOW))
    if z == 0:
        raise DomainError("Ci(0) diverges logarithmically")
    if z.real < 0:
        si, ci = _sici(-z, name)
        return -si, ci + (1j * np.pi if z.imag >= 0 else -1j * np.pi)
    if z.imag > 0:
        si, ci = _sici(z.conjugate(), name)
        return si.conjugate(), ci.conjugate()
    return _sici_cached(struct.pack("dd", z.real, z.imag))


def sin_integral(z):
    """Sine integral Si(z) = int_0^z sin(t)/t dt for complex z.

    Odd in z; real on the real axis; Si(x) -> pi/2 as x -> +inf.
    Raises RangeError once exp(|Im z|) leaves the double range.
    """
    z = complex(z)
    if z == 0:
        return 0.0 + 0.0j
    return _sici(z, "Si")[0]


def cos_integral(z):
    """Cosine integral Ci(z) = euler_gamma + log z + int_0^z (cos t - 1)/t dt.

    Principal branch, cut along the negative real axis; values on the cut
    take the upper-side limit Ci(-x) = Ci(x) + i pi.  Decays to 0 on the
    positive real axis.
    """
    return _sici(z, "Ci")[1]
