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

Inside a ``shared()`` block each distinct reflected argument calls scipy
once: a closed form that takes Si and Ci of the same few arguments many
times pays for each once.  The memo is keyed on the argument's bits, so
+0.0 and -0.0 stay apart, and it lives only as long as the outermost block.
"""

import contextlib
import contextvars
import struct

import numpy as np
from scipy import special as _sp

from .errors import DomainError, RangeError

# |Im z| beyond which exp(|Im z|) overflows the double range
_IM_OVERFLOW = 700.0

#: (Si, Ci) by the bits of a reflected argument inside a ``shared()`` block,
#: else None; a context variable, so each thread has its own
_MEMO = contextvars.ContextVar("sici_memo", default=None)


def _sici_scipy(z):
    """Si(z), Ci(z) from scipy.special.sici for z with Re z >= 0, Im z <= 0;
    real z uses the real-typed call, whose values on the axis are not
    bit-identical to the complex one's."""
    si, ci = _sp.sici(z.real if z.imag == 0.0 else z)
    return complex(si), complex(ci)


@contextlib.contextmanager
def shared():
    """Within the block, ``_sici`` calls scipy once per distinct reflected
    argument; a nested block shares the outer one's memo."""
    if _MEMO.get() is not None:
        yield
        return
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


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
    memo = _MEMO.get()
    if memo is None:
        return _sici_scipy(z)
    key = struct.pack("dd", z.real, z.imag)
    pair = memo.get(key)
    if pair is None:
        pair = memo[key] = _sici_scipy(z)
    return pair


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
