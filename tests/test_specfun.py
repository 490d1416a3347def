import math

import mpmath
import numpy as np
import pytest

from qbmag import specfun
from qbmag.errors import DomainError, RangeError

# frozen oracle values (brute-force series, see the oracle helpers below
# which regenerate them)
SI_1 = 0.9460830703671830
CI_1 = 0.3374039229009681


def si_series(z, terms=60):
    """Brute-force sum (-1)^k z^{2k+1} / ((2k+1)(2k+1)!)."""
    return sum((-1) ** k * z ** (2 * k + 1) / ((2 * k + 1) * math.factorial(2 * k + 1))
               for k in range(terms))


def ci_series(z, terms=60):
    """gamma + ln z + sum (-1)^k z^{2k} / (2k (2k)!)."""
    tail = sum((-1) ** k * z ** (2 * k) / ((2 * k) * math.factorial(2 * k))
               for k in range(1, terms))
    return np.euler_gamma + np.log(complex(z)) + tail


def test_si_frozen_and_trivial():
    assert specfun.sin_integral(0.0) == 0.0
    assert abs(specfun.sin_integral(1.0).real - SI_1) < 1e-12
    assert specfun.sin_integral(1.0).imag == 0.0
    assert abs(specfun.sin_integral(1e4).real - np.pi / 2) < 1e-3


def test_ci_frozen_and_decay():
    assert abs(specfun.cos_integral(1.0).real - CI_1) < 1e-12
    assert abs(specfun.cos_integral(1e6)) < 1e-5
    with pytest.raises(DomainError):
        specfun.cos_integral(0.0)


def test_si_ci_series_oracle_random_complex():
    rng = np.random.default_rng(42)
    for _ in range(100):
        z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        if abs(z) < 1e-2:
            continue
        assert abs(specfun.sin_integral(z) - si_series(z)) <= 1e-10 * max(abs(si_series(z)), 1)
        ref = ci_series(z if z.real >= 0 else -z)
        if z.real < 0:
            ref = ref + (1j * np.pi if z.imag >= 0 else -1j * np.pi)
        assert abs(specfun.cos_integral(z) - ref) <= 1e-10 * max(abs(ref), 1)


def test_si_ci_match_mpmath():
    # 30-digit mpmath uses the same principal branch in every quadrant.
    # Quadrant draws with |z| from 20 to 1e4 and from 1e-3 to 20, all on
    # scipy.special.sici after the reflections, and the real axis near 20,
    # which takes scipy's real-typed call
    rng = np.random.default_rng(2026)
    points = []
    for quadrant in range(4):
        for _ in range(60):
            r = 10 ** rng.uniform(np.log10(20.0), 4.0)
            points.append(complex(r * np.exp(1j * (rng.uniform(0, np.pi / 2) + quadrant * np.pi / 2))))
    near = np.random.default_rng(2027)
    for quadrant in range(4):
        for _ in range(60):
            r = 10 ** near.uniform(-3.0, np.log10(20.0))
            points.append(complex(r * np.exp(1j * (near.uniform(0, np.pi / 2) + quadrant * np.pi / 2))))
    points += [complex(x) for x in np.linspace(15.0, 20.0, 41)]
    # near the real axis with 1e-3 <= |z| <= 20, where the printed
    # exponential-cutoff displays cancel Si and Ci of conjugate arguments
    axis = np.random.default_rng(2028)
    close = []
    for quadrant in range(4):
        for _ in range(40):
            r = 10 ** axis.uniform(-3.0, np.log10(20.0))
            angle = 10 ** axis.uniform(-8.0, -1.0) * axis.choice([-1.0, 1.0])
            close.append(complex(r * np.exp(1j * (angle + quadrant * np.pi / 2))))
    with mpmath.workdps(30):
        for z, rtol in [(z, 1e-13) for z in points] + [(z, 1e-14) for z in close]:
            if abs(z.imag) > 600:
                continue
            zm = mpmath.mpc(z.real, z.imag)
            for fn, ref in ((specfun.sin_integral, mpmath.si), (specfun.cos_integral, mpmath.ci)):
                want = complex(ref(zm))
                assert abs(fn(z) - want) <= rtol * max(abs(want), 1), (fn.__name__, z)


def test_si_oddness_and_schwarz():
    rng = np.random.default_rng(7)
    for _ in range(50):
        z = complex(rng.uniform(-30, 30), rng.uniform(-4, 4))
        if abs(z) < 0.1:
            continue
        assert abs(specfun.sin_integral(-z) + specfun.sin_integral(z)) < 1e-12 * (
            1 + abs(specfun.sin_integral(z))
        )
        a = specfun.sin_integral(z.conjugate())
        assert abs(a - specfun.sin_integral(z).conjugate()) < 1e-12 * (1 + abs(a))


def test_ci_conjugate_symmetry():
    z = 1 + 2j
    assert abs(specfun.cos_integral(z.conjugate()) - specfun.cos_integral(z).conjugate()) < 1e-13


def test_ci_negative_axis_branch():
    # principal branch: Ci(-x) = Ci(x) + i pi approaching from above
    x = 2.3
    assert abs(specfun.cos_integral(-x) - (specfun.cos_integral(x) + 1j * np.pi)) < 1e-13


def test_si_overflow_guard():
    with pytest.raises(RangeError):
        specfun.sin_integral(1 + 800j)


@pytest.mark.parametrize("z", [1 + 800j, -1 - 701j])
def test_ci_overflow_guard(z):
    with pytest.raises(RangeError, match="Ci overflows"):
        specfun.cos_integral(z)
