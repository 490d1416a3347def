import itertools
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polyval
from scipy import integrate
from scipy import special as sp

from qbmag import bath, validation
from qbmag.bath import Cutoff, RegimeKind, SpectralDensity, ThermalRegime
from qbmag.errors import ConvergenceError, DomainError, PoleError, RangeError, UnsupportedFormError

HIGH = lambda oth: ThermalRegime(RegimeKind.HIGH_TEMPERATURE, oth)
LOW = ThermalRegime(RegimeKind.LOW_TEMPERATURE)
EXACT = lambda oth: ThermalRegime(RegimeKind.EXACT, oth)


def test_spectral_density_values():
    assert bath.spectral_density(SpectralDensity(1.0, Cutoff.ABRUPT, 1e3), 2.0) == 2.0
    assert bath.spectral_density(SpectralDensity(1.0, Cutoff.ABRUPT, 1e3), 2000.0) == 0.0
    lam = 37.0
    assert bath.spectral_density(SpectralDensity(1.0, Cutoff.DRUDE_LORENTZ, lam), lam) == pytest.approx(lam / 2)
    assert bath.spectral_density(SpectralDensity(1.5, Cutoff.EXPONENTIAL, 10.0), 10.0) == pytest.approx(
        10.0**1.5 * np.exp(-1.0)
    )


def test_spectral_density_large_cutoff_limit():
    omega = np.logspace(0, 3, 50)
    for cutoff in Cutoff:
        j = bath.spectral_density(SpectralDensity(1.0, cutoff, 1e6), omega)
        assert np.max(np.abs(j - omega) / omega) < 2e-3


def test_noise_quadrature_hight_small_tau():
    sd = SpectralDensity(1.0, Cutoff.ABRUPT, 1e3)
    val = bath.noise_kernel_quadrature(sd, HIGH(1e3), 1e-9)
    assert val == pytest.approx(1e3 * 1e3, rel=1e-6)


def test_noise_quadrature_matches_abrupt_hight_form():
    # the regime kernel gamma*Oth*sin(Lam tau)/tau is an exact transform
    sd = SpectralDensity(1.0, Cutoff.ABRUPT, 1e3)
    tau = 0.01
    expected = 1e3 * np.sin(10.0) / tau
    assert bath.noise_kernel_quadrature(sd, HIGH(1e3), tau) == pytest.approx(expected, rel=1e-6)


def test_noise_quadrature_exp_low_tau0():
    sd = SpectralDensity(1.0, Cutoff.EXPONENTIAL, 10.0, 1.3)
    assert bath.noise_kernel_quadrature(sd, LOW, 0.0) == pytest.approx(1.3 * 100.0, rel=1e-8)
    # Gamma(s+1) Lam^(s+1): the envelope peaks at s Lam, far past w = 1
    wide = SpectralDensity(2.44, Cutoff.EXPONENTIAL, 7772.0)
    want = math.gamma(3.44) * 7772.0**3.44
    assert bath.noise_kernel_quadrature(wide, LOW, 0.0) == pytest.approx(want, rel=1e-8)
    # nu(0) = 0.023: QUADPACK's default absolute floor of 1.5e-8 left it 6e-9 off
    small = SpectralDensity(1.68, Cutoff.EXPONENTIAL, 0.21)
    want = math.gamma(2.68) * 0.21**2.68
    assert bath.noise_kernel_quadrature(small, LOW, 0.0) == pytest.approx(want, rel=1e-10)


def test_closed_kernel_trivials():
    sd = SpectralDensity(1.0, Cutoff.ABRUPT, 1e3)
    assert bath.noise_kernel_closed_parts(sd, HIGH(1e3), 1e-3).real == pytest.approx(1e6 * np.sin(1.0))
    sub = SpectralDensity(0.5, Cutoff.ABRUPT, 1e3, 1.7)
    assert bath.noise_kernel_closed_parts(sub, LOW, 0.0).real == pytest.approx((2.0 / 3.0) * 1.7 * 1e3**1.5)
    # an empty tau array gives an empty result, as the reference kernels do
    dl = SpectralDensity(1.0, Cutoff.DRUDE_LORENTZ, 50.0)
    assert bath.noise_kernel_closed_parts(dl, HIGH(17.0), np.array([])).shape == (0,)


def test_drude_hightemp_closed_parts():
    sd = SpectralDensity(1.0, Cutoff.DRUDE_LORENTZ, 200.0)
    regime = HIGH(40.0)
    tau = 0.01
    val = bath.noise_kernel_closed_parts(sd, regime, tau)
    cot = 1.0 / np.tan(200.0 / 40.0)
    expected = (np.pi * 200.0**2 / 2) * cot * np.cosh(2.0) - (1j * np.pi * 200.0**2 / 2) * (
        1 - 1j * np.pi * 40.0 * tau
    )
    assert val == pytest.approx(expected)
    assert bath.noise_kernel_closed_parts(sd, regime, tau).real == pytest.approx(expected.real)


@pytest.mark.parametrize("cutoff", list(Cutoff))
@pytest.mark.parametrize("rkind", [RegimeKind.HIGH_TEMPERATURE, RegimeKind.LOW_TEMPERATURE])
def test_reference_kernels_match_quadrature_ohmic(cutoff, rkind):
    sd = SpectralDensity(1.0, cutoff, 150.0, 0.8)
    regime = ThermalRegime(rkind, 9.0)
    scale = abs(bath.noise_kernel_reference(sd, regime, 1e-5))
    for x in (1e-2, 0.7, 4.0, 40.0):
        tau = x / sd.lam
        ref = bath.noise_kernel_reference(sd, regime, tau)
        quad = bath.noise_kernel_quadrature(sd, regime, tau)
        assert abs(ref - quad) <= 1e-6 * max(abs(quad), 1e-9 * scale)


def test_gamma_scaling_homogeneous():
    a = SpectralDensity(1.0, Cutoff.EXPONENTIAL, 50.0, 1.0)
    b = SpectralDensity(1.0, Cutoff.EXPONENTIAL, 50.0, 2.0)
    regime = HIGH(7.0)
    tau = 0.03
    assert 2 * bath.noise_kernel_reference(a, regime, tau) == bath.noise_kernel_reference(b, regime, tau)
    qa = bath.noise_kernel_quadrature(a, regime, tau)
    qb = bath.noise_kernel_quadrature(b, regime, tau)
    assert qb == pytest.approx(2 * qa, rel=1e-13)


def test_regime_bracketing_at_tau0():
    # coth >= 1 pointwise, so the exact kernel dominates the quantum one at tau = 0
    sd = SpectralDensity(1.0, Cutoff.EXPONENTIAL, 30.0)
    low = bath.noise_kernel_quadrature(sd, LOW, 0.0)
    exact = bath.noise_kernel_quadrature(sd, EXACT(5.0), 0.0)
    assert exact >= low


def test_integrand_parity():
    # the nu integrand is even in tau, at fixed omega samples
    sd = SpectralDensity(1.0, Cutoff.EXPONENTIAL, 30.0)
    omega = np.linspace(0.1, 60, 7)
    j = bath.spectral_density(sd, omega)
    for tau in (0.2, 1.4):
        assert np.allclose(j * np.cos(omega * tau), j * np.cos(-omega * tau))


def test_divergent_and_error_paths():
    dl = SpectralDensity(1.0, Cutoff.DRUDE_LORENTZ, 50.0)
    with pytest.raises(ConvergenceError):
        bath.noise_kernel_quadrature(dl, LOW, 0.0)
    # exact regime: coth -> 1, so the Drude-Lorentz tail decays only as w^(s-2)
    for s, lam, oth in ((1.5, 3.588, 2.83), (1.0, 1889.0, 321.0)):
        with pytest.raises(ConvergenceError):
            bath.noise_kernel_quadrature(SpectralDensity(s, Cutoff.DRUDE_LORENTZ, lam), EXACT(oth), 0.0)
    with pytest.raises(UnsupportedFormError):
        bath.noise_kernel_closed_parts(dl, EXACT(5.0), 0.1)
    with pytest.raises(RangeError):
        bath.noise_kernel_closed_parts(dl, HIGH(7.0), 20.0)  # Lam*tau = 1000
    near_pole = ThermalRegime(RegimeKind.HIGH_TEMPERATURE, 50.0 / np.pi)
    with pytest.raises(PoleError):
        bath.noise_kernel_closed_parts(dl, near_pole, 0.01)
    with pytest.raises(DomainError):
        bath.spectral_density(dl, -1.0)
    with pytest.raises(DomainError):
        SpectralDensity(-0.5, Cutoff.ABRUPT, 10.0)


def test_drude_exact_pole_sum_vs_quadrature():
    for lam, oth in ((50.0, 17.0), (40.0, 90.0)):
        sd = SpectralDensity(1.0, Cutoff.DRUDE_LORENTZ, lam, 1.0)
        for tau in (0.02, 0.11):
            ps = bath.drude_exact_kernel(sd, oth, tau)
            qv = bath.noise_kernel_quadrature(sd, EXACT(oth), tau)
            assert ps == pytest.approx(qv, rel=1e-7)


def test_drude_exact_kernel_guards():
    sd = SpectralDensity(1.0, Cutoff.DRUDE_LORENTZ, 50.0, 1.0)
    with pytest.raises(DomainError):
        bath.drude_exact_kernel(sd, 17.0, 0.0)
    with pytest.raises(UnsupportedFormError):
        bath.drude_exact_kernel(SpectralDensity(0.5, Cutoff.DRUDE_LORENTZ, 50.0), 17.0, 0.1)


def _mp_pole_sum_terms(lam, oth, tau, z):
    """The cot and Matsubara terms of drude_exact_kernel's residue sum in
    30-digit arithmetic, at the doubles the kernel forms from its input (z,
    b = Lam/(pi Omega_th), Lam/Omega_th, Lam tau).  The form amplifies their
    rounding near the poles; that is its conditioning, not an error of the sum."""
    with mp.workdps(30):
        z, b = mp.mpf(float(z)), mp.mpf(lam / (np.pi * oth))
        phi = lambda a: mp.hyp2f1(1, a, a + 1, z) / a
        pole = mp.pi * mp.cot(mp.mpf(lam / oth)) * mp.exp(-mp.mpf(lam * tau))
        return lam**2 / 2 * pole, lam**2 / 2 * z * (phi(1 - b) + phi(1 + b))


def test_drude_exact_kernel_matches_mpmath():
    # 40 baths of 25 tau each: b in [0.02, 100] and pi Omega_th tau in
    # [1e-12, 30] log-uniform.  nu changes sign, so the scale is the size of
    # the two terms; each value is one array call's entry
    rng = np.random.default_rng(20261018)
    worst = 0.0
    for _ in range(40):
        b = np.exp(rng.uniform(np.log(0.02), np.log(100.0)))
        while abs(b - round(b)) < 1e-6:
            b = np.exp(rng.uniform(np.log(0.02), np.log(100.0)))
        oth = np.exp(rng.uniform(np.log(0.1), np.log(100.0)))
        lam = float(b * np.pi * oth)
        taus = np.exp(rng.uniform(np.log(1e-12), np.log(30.0), 25)) / (np.pi * oth)
        got = bath.drude_exact_kernel(SpectralDensity(1.0, Cutoff.DRUDE_LORENTZ, lam), oth, taus)
        zs = np.exp(-np.pi * oth * taus)
        for g, tau, z in zip(got, taus, zs):
            pole, mats = _mp_pole_sum_terms(lam, oth, tau, z)
            worst = max(worst, float(abs(g - (pole + mats)) / (abs(pole) + abs(mats))))
    assert worst <= 1e-12
    # a scalar tau gives a float, the entry of the array call
    sd = SpectralDensity(1.0, Cutoff.DRUDE_LORENTZ, 50.0)
    one = bath.drude_exact_kernel(sd, 17.0, 0.02)
    assert type(one) is float and one == bath.drude_exact_kernel(sd, 17.0, np.array([0.02]))[0]


@pytest.mark.parametrize("a", [1.8475480986206303, -0.8475480986206303, 95.5, -93.47])
@pytest.mark.parametrize("x", [1e-12, 1.0552e-3, 0.02, 0.07, 0.1, 3.0])
def test_lerch_phi1_matches_mpmath(a, x):
    # a = 1.84754...: c = a + 1 left c - a - 1 = 2.2e-16, and scipy's z -> 1
    # branch returned -24.57 for 5.970 at x = 1.0552e-3.  |a| ~ 95 at
    # z = e^-x in (0.9, 0.974): scipy's series in 1 - z lost 2e-11
    z = np.exp(-x)
    with mp.workdps(30):
        zm = mp.mpf(z)
        want = mp.lerchphi(zm, 1, a)
        # sum_k z^k/|k + a|: the terms with k + a < 0 enter with flipped sign
        scale = want - 2 * sum(zm**k / (k + a) for k in range(max(0, math.ceil(-a))))
    assert abs(bath._lerch_phi1(z, a) - float(want)) <= 5e-14 * float(scale)


def test_exact_regime_between_limits():
    # quadrature of the full coth interpolates the two regime kernels
    sd = SpectralDensity(1.0, Cutoff.EXPONENTIAL, 40.0)
    oth = 8.0
    tau = 0.02
    exact = bath.noise_kernel_quadrature(sd, EXACT(oth), tau)
    low = bath.noise_kernel_quadrature(sd, LOW, tau)
    high = bath.noise_kernel_quadrature(sd, HIGH(oth), tau)
    assert low < exact < low + high  # coth < 1 + Oth/w


def test_reference_kernel_unsupported():
    with pytest.raises(UnsupportedFormError):
        bath.noise_kernel_reference(SpectralDensity(1.0, Cutoff.ABRUPT, 10.0), EXACT(3.0), 0.1)


def _mp_drude_transform(se, x):
    """int_0^inf u^se cos(x u)/(1 + u^2) du in mpmath, independently of the
    contour rotation: below x = 80 the 1F2 series (pi/2) sec(pi se/2)
    [cosh x - S], S = sum_k x^(2k+1-se)/Gamma(2k+2-se), with digits for its
    e^x cancellation (Ei/E1 at se = 1); past it the large-x series of the
    Fourier transform of u^se/(1 + u^2), to the smallest term, plus the
    pole's (pi/2) e^-x cos(pi se/2)."""
    if x < 80:
        with mp.workdps(45 + int(x / 2.3)):
            se, x, h = mp.mpf(se), mp.mpf(x), mp.pi * mp.mpf(se) / 2
            if se == 1:
                return float((mp.exp(x) * mp.e1(x) - mp.exp(-x) * mp.ei(x)) / 2)
            total, k = mp.mpf(0), 0
            while True:
                term = x ** (2 * k + 1 - se) / mp.gamma(2 * k + 2 - se)
                total += term
                if k > 5 and abs(term) < mp.eps * abs(total):
                    break
                k += 1
            return float(mp.pi / 2 / mp.cos(h) * (mp.cosh(x) - total))
    with mp.workdps(40):
        se, x, h = mp.mpf(se), mp.mpf(x), mp.pi * mp.mpf(se) / 2
        series, k, prev = mp.mpf(0), 0, mp.inf
        while True:
            term = mp.gamma(se + 1 + 2 * k) * x ** (-se - 1 - 2 * k)
            if term > prev or term < mp.eps * series:
                break
            series, prev, k = series + term, term, k + 1
        pole = mp.pi / 2 * mp.exp(-x)
        return float(pole * mp.cos(h) - mp.sin(h) * series)


#: x = Lam tau of the transform test: decades of x, both sides of the band
#: edges 2 and 64 of _drude_transform and of its octaves, and the end of
#: default grids, 700
DRUDE_XS = (1e-9, 1e-4, 0.03, 0.7, 2.5, 9.0, 20.0, 80.0, 300.0, 700.0, 5e3) + tuple(
    e * f for e in (2.0, 4.0, 32.0, 64.0) for f in (1.0 - 1e-6, 1.0, 1.0 + 1e-6)
)


@pytest.mark.parametrize(
    "se", [-0.9, -0.5, -0.2, 0.0, 0.3, 0.5, 0.8, 0.99, 1.0, 1.0 + 1e-9, 1.3, 1.5, 1.8, 1.95], ids="cos-{}".format
)
def test_drude_transform_matches_mpmath(se):
    # relative to max(|D|, (1+x)^-(se+1)): D changes sign, and its large-x
    # size is x^-(se+1); se within 1e-9 of 1 tests the paired series
    got = bath._drude_transform(se)(np.array(DRUDE_XS))
    for x, g in zip(DRUDE_XS, got):
        want = _mp_drude_transform(se, x)
        assert abs(g - want) <= 1e-12 * max(abs(want), (1.0 + x) ** (-se - 1.0)), (x, g, want)


def test_drude_transform_special_values():
    xs = np.array((0.0,) + DRUDE_XS)
    pole = np.pi / 2 * np.exp(-xs)
    # se = 0 is the pole term alone
    assert np.all(np.abs(bath._drude_transform(0.0)(xs) - pole) <= 4e-16 * pole)
    # x -> 0+: finite below se = 1, infinite at and past it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        at_zero = {se: bath._drude_transform(se)(np.array([0.0, 1e-300])) for se in (-0.5, 0.5, 1.0, 1.5)}
    assert at_zero[-0.5][0] == pytest.approx(np.pi / 2 / np.cos(np.pi / 4), rel=1e-15)
    assert at_zero[0.5][0] == pytest.approx(np.pi / 2 / np.cos(np.pi / 4), rel=1e-15)
    # the divergence is log(1/x) at se = 1, x^(1-se) past it
    assert at_zero[1.0][0] == np.inf and at_zero[1.0][1] > 600.0
    assert at_zero[1.5][0] == np.inf and at_zero[1.5][1] > 1e100


@pytest.mark.parametrize(
    "s, regime",
    [(1.0, LOW), (2.0, HIGH(17.0)), (0.96, LOW), (0.99, LOW), (0.3, LOW), (0.5, LOW), (1.5, LOW), (2.5, HIGH(17.0))],
    # the ids each case has long had, so its results stay comparable
    ids=["%s-regime%d-cos" % case for case in ((1.0, 0), (2.0, 2), (0.96, 3), (0.99, 4), (0.3, 5), (0.5, 6), (1.5, 7), (2.5, 8))],
)
def test_drude_kernels_at_subnormal_lam_tau(s, regime):
    # x^e1, e1 = -se < 0, overflows once x = Lam tau is subnormal: the series
    # band forms x cot (x^e1 - 1) without it, so the kernel stays finite.
    # Against the 1F2 series (Ei/E1 at se = 1) at 45 digits, times C; the
    # first tau keeps the old form
    sd = SpectralDensity(s, Cutoff.DRUDE_LORENTZ, 50.0, 1.3)
    taus = np.array([1e-300, 1e-308, 1e-310, 1e-320, 5e-324])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = bath._reference_kernel_fn(sd, regime)(taus)
    se, scale = bath._closed_scale(sd, regime)
    for tau, g in zip(taus, got):
        want = scale * _mp_drude_transform(se, sd.lam * tau)
        assert np.isfinite(g) and abs(g - want) <= 1e-12 * abs(want), (tau, g, want)


@pytest.mark.parametrize("lam", [50.0, 1e6])
@pytest.mark.parametrize("s", [1.93, 1.97, 1.999], ids="{}-cos".format)
def test_drude_kernels_past_the_float_range_read_inf_unwarned(s, lam):
    # past se ~ 1.9 the low-regime kernel ~ tau^(1-se) leaves the float range
    # at subnormal Lam tau (C T(x) > 1.8e308): it reads +inf, as at tau = 0,
    # with no overflow warning from the series band or from the scale C
    sd = SpectralDensity(s, Cutoff.DRUDE_LORENTZ, lam)
    taus = np.array([1e-310, 1e-315, 1e-320, 5e-324, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = bath._reference_kernel_fn(sd, LOW)(taus)
        one = bath.noise_kernel_reference(sd, LOW, 5e-324)
    # positive and growing towards tau = 0, where it is inf
    assert np.all(got > 0.0) and np.all(got[1:] >= got[:-1]) and got[-1] == np.inf
    if s > 1.95:
        # the reported case, s = 1.97 at Lam = 50, among them
        assert np.all(got[2:] == np.inf) and one == np.inf


def test_exponential_kernel_past_the_float_range_still_warns():
    # only the Drude-Lorentz kernels silence the overflow of C T(x): here
    # C = Lam^3 ~ 9.7e307 and T(0) = Gamma(3) = 2, a real overflow
    sd = SpectralDensity(2.0, Cutoff.EXPONENTIAL, 4.6e102)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning, match="overflow"):
            bath._reference_kernel_fn(sd, LOW)(np.array([0.0]))


def test_drude_exact_kernel_at_subnormal_tau():
    # the exact regime's low-temperature part is the same transform
    sd = SpectralDensity(1.0, Cutoff.DRUDE_LORENTZ, 50.0, 1.3)
    taus = np.array([1e-310, 5e-324])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        low = bath.noise_kernel_reference(sd, LOW, taus)
        total = low + bath._bose_kernel_fn(sd, 17.0)(taus)
    assert np.all(np.isfinite(total)) and np.all(low > 0.0)


@pytest.mark.parametrize("cutoff", list(Cutoff))
def test_reference_kernels_reject_negative_tau(cutoff):
    sd = SpectralDensity(1.0, cutoff, 10.0)
    for call in (
        lambda tau: bath.noise_kernel_reference(sd, HIGH(3.0), tau),
        lambda tau: bath.noise_kernel_reference(sd, LOW, tau),
    ):
        for tau in (-0.1, np.array([0.1, -1e-300])):
            with pytest.raises(DomainError, match=">= 0"):
                call(tau)


@pytest.mark.parametrize("s, rkind", [(2.0, "low"), (2.5, "low"), (2.5, "exact"), (3.2, "high"), (3.0, "high")])
def test_non_integrable_drude_kernels_rejected(s, rkind):
    # J c ~ w^(se - 2) with se >= 2: nu ~ tau^(1 - se) is not integrable at 0
    sd = SpectralDensity(s, Cutoff.DRUDE_LORENTZ, 50.0)
    regime = ThermalRegime(rkind, 17.0)
    with pytest.raises(DomainError, match="not integrable"):
        bath.require_integrable(sd, regime)
    with pytest.raises(DomainError, match="not integrable"):
        bath.noise_kernel_reference(sd, regime, 0.1)
    # the edge: se just below 2 is served
    below = SpectralDensity(s - 1e-9, Cutoff.DRUDE_LORENTZ, 50.0)
    if s in (2.0, 3.0):
        bath.require_integrable(below, regime)
    # abrupt and exponential kernels stay finite at tau = 0
    for cutoff in (Cutoff.ABRUPT, Cutoff.EXPONENTIAL):
        bath.require_integrable(SpectralDensity(s, cutoff, 50.0), regime)


@settings(max_examples=40, deadline=None)
@given(s=st.floats(0.2, 2.5), lam=st.floats(1.0, 250.0), oth=st.floats(0.1, 100.0), gamma=st.floats(0.1, 3.0))
def test_abrupt_quadrature_at_tau_zero(s, lam, oth, gamma):
    # nu(0) = gamma int_0^Lam w^s dw at low temperature and
    # gamma Omega_th int_0^Lam w^(s-1) dw at high temperature
    sd = SpectralDensity(s, Cutoff.ABRUPT, lam, gamma)
    low = gamma * lam ** (s + 1.0) / (s + 1.0)
    high = gamma * oth * lam**s / s
    assert bath.noise_kernel_quadrature(sd, LOW, 0.0) == pytest.approx(low, rel=1e-10)
    assert bath.noise_kernel_quadrature(sd, HIGH(oth), 0.0) == pytest.approx(high, rel=1e-10)


def _drude_tau0(se, lam, pref):
    # int_0^inf pref w^se Lam^2/(Lam^2 + w^2) dw, -1 < se < 1, in 30 digits:
    # se sits within 1e-12 of 1, where cos(pi se/2) in double keeps 4 digits
    with mp.workdps(30):
        se = mp.mpf(se)
        return float(pref * mp.mpf(lam) ** (se + 1) * mp.pi / (2 * mp.cos(mp.pi * se / 2)))


@pytest.mark.parametrize("s", [b - d for b in (1.0, 2.0) for d in (1e-4, 1e-6, 1e-12)])
@pytest.mark.parametrize("rkind", list(RegimeKind))
def test_drude_tau0_near_the_divergence(s, rkind):
    # the tail exponent s - 2 (s - 3 at high temperature) within 1e-12..1e-4
    # of -1: past the last edge almost all of nu(0) lies in the tail, at w
    # far beyond any quadrature node
    lam, oth, gamma = 10.0, 3.0, 1.3
    sd = SpectralDensity(s, Cutoff.DRUDE_LORENTZ, lam, gamma)
    regime = ThermalRegime(rkind, oth)
    high = rkind is RegimeKind.HIGH_TEMPERATURE
    se = s - 1.0 if high else s
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if se >= 1.0:
            with pytest.raises(ConvergenceError):
                bath.noise_kernel_quadrature(sd, regime, 0.0)
            return
        got = bath.noise_kernel_quadrature(sd, regime, 0.0)
    want = _drude_tau0(se, lam, gamma * oth if high else gamma)
    if rkind is RegimeKind.EXACT:
        # coth = 1 + 2/(e^{2x} - 1): the quantum kernel plus the Bose term
        want += bose_integral(sd, oth, lambda w: 1.0)
    assert got == pytest.approx(want, rel=1e-8)


@settings(max_examples=40, deadline=None)
@given(
    s=st.floats(0.2, 2.5),
    lam=st.floats(0.1, 1e4),
    oth=st.floats(0.1, 100.0),
    gamma=st.floats(0.1, 3.0),
    rkind=st.sampled_from(list(RegimeKind)),
)
def test_quadrature_at_tau_zero_exp_and_drude(s, lam, oth, gamma, rkind):
    # exponential: nu(0) = gamma Gamma(s+1) Lam^(s+1) at low and
    # gamma Omega_th Gamma(s) Lam^s at high temperature
    exp = SpectralDensity(s, Cutoff.EXPONENTIAL, lam, gamma)
    assert bath.noise_kernel_quadrature(exp, LOW, 0.0) == pytest.approx(
        gamma * math.gamma(s + 1.0) * lam ** (s + 1.0), rel=1e-8
    )
    assert bath.noise_kernel_quadrature(exp, HIGH(oth), 0.0) == pytest.approx(
        gamma * oth * math.gamma(s) * lam**s, rel=1e-8
    )
    # Drude-Lorentz: J times the coth factor decays as w^(se-2), se = s - 1
    # at high temperature and s otherwise; nu(0) is finite iff se < 1
    high = rkind is RegimeKind.HIGH_TEMPERATURE
    se = s - 1.0 if high else s
    assume(abs(se - 1.0) >= 1e-3)
    sd = SpectralDensity(s, Cutoff.DRUDE_LORENTZ, lam, gamma)
    regime = ThermalRegime(rkind, oth)
    if se >= 1.0:
        with pytest.raises(ConvergenceError):
            bath.noise_kernel_quadrature(sd, regime, 0.0)
        return
    got = bath.noise_kernel_quadrature(sd, regime, 0.0)
    if rkind is RegimeKind.EXACT:
        # 1 < coth(w/Omega_th) < 1 + Omega_th/w
        low = _drude_tau0(s, lam, gamma)
        assert low < got < low + _drude_tau0(s - 1.0, lam, gamma * oth)
    else:
        assert got == pytest.approx(_drude_tau0(se, lam, gamma * oth if high else gamma), rel=1e-8)


def test_reference_kernels_match_quadrature_across_band_edges():
    # every reference transform at s in {1/2, 1, 3/2}, at x = Lam tau on both
    # sides of each band edge of _trig_power_ratio (4, 36), of its old edges
    # (80, 200) and of 50,
    # with check_bath_reference's tolerance and small-x floor
    xs = (1e-2,) + tuple(e * f for e in (4.0, 36.0, 50.0, 80.0, 200.0) for f in (0.99, 1.01))
    for s in (0.5, 1.0, 1.5):
        for cutoff in Cutoff:
            for rkind in (RegimeKind.HIGH_TEMPERATURE, RegimeKind.LOW_TEMPERATURE):
                sd = SpectralDensity(s, cutoff, 200.0, 1.0)
                gap = validation._reference_gap(sd, ThermalRegime(rkind, 11.0), xs)
                assert gap < 1e-6, (s, cutoff, rkind, gap)


@pytest.mark.parametrize("lam, x", [(0.01, 0.1), (0.21, 5.0), (0.01, 3.0)])
def test_quadrature_floor_follows_the_kernel_scale(lam, x):
    # nu of this bath is 1e-9 to 1e-6, below QUADPACK's default absolute
    # floor of 1.5e-8; the floors relative to the head keep the oracle's
    # accuracy (0.9997, 3.4e-4 and 2.5e-5 off with the default floor)
    sd = SpectralDensity(2.5, Cutoff.EXPONENTIAL, lam)
    tau = x / lam
    want = bath.noise_kernel_reference(sd, LOW, tau)
    got = bath.noise_kernel_quadrature(sd, LOW, tau)
    assert abs(got - want) <= 1e-8 * abs(want)


def test_quadrature_any_s():
    # the defining path supports arbitrary s > 0 (here s = 0.8, no closed form)
    sd = SpectralDensity(0.8, Cutoff.DRUDE_LORENTZ, 20.0, 1.0)
    tau = 0.3
    val = bath.noise_kernel_quadrature(sd, LOW, tau)
    # brute-force check with a wide fixed-limit integral plus oscillatory tail
    f = lambda w: w**0.8 * 20.0**2 / (20.0**2 + w**2)
    head = integrate.quad(f, 0, 2000.0, weight="cos", wvar=tau, limit=4000)[0]
    tail = integrate.quad(f, 2000.0, np.inf, weight="cos", wvar=tau, limit=100, limlst=200)[0]
    assert val == pytest.approx(head + tail, rel=1e-6)


def bose_integral(sd, oth, weight):
    """int_0^inf J(w) 2/(e^{2w/Omega_th} - 1) weight(w) dw by plain quad in w = x^2.

    coth(x) = 1 + 2/(e^{2x} - 1), so with weight cos(w tau) the exact kernel
    is the quantum kernel plus this term; the Bose factor is below 1e-34 past
    40 Omega_th.
    """
    upper = min(40.0 * oth, sd.lam) if sd.cutoff is Cutoff.ABRUPT else 40.0 * oth

    def integrand(x):
        w = x * x
        if w < 1e-12 * oth:
            # limit of 2x J(w) 2/(e^{2w/Omega_th} - 1) as w -> 0, envelope 1
            return 2.0 * sd.gamma * oth * x ** (2.0 * sd.s - 1.0) * weight(w)
        bose = 2.0 / np.expm1(2.0 * w / oth)
        return 2.0 * x * bath.spectral_density(sd, w) * bose * weight(w)

    return integrate.quad(integrand, 0.0, np.sqrt(upper), limit=2000, epsabs=1e-13, epsrel=1e-11)[0]


def _bose_term(sd, oth, tau):
    return bose_integral(sd, oth, lambda w: np.cos(w * tau))


@pytest.mark.parametrize("cutoff", list(Cutoff))
@pytest.mark.parametrize("s", [0.5, 1.5])
def test_exact_regime_is_low_plus_bose_term(cutoff, s):
    sd = SpectralDensity(s, cutoff, 50.0, 1.3)
    oth = 7.0
    for x in (0.05, 0.5, 3.0):
        tau = x / sd.lam
        exact = bath.noise_kernel_quadrature(sd, EXACT(oth), tau)
        low = bath.noise_kernel_reference(sd, LOW, tau)
        assert exact == pytest.approx(low + _bose_term(sd, oth, tau), rel=1e-8)
        if x <= 0.5:
            # 1 < coth(w/Omega_th) < 1 + Omega_th/w, and cos(w tau) stays
            # near 1 where the two bounds differ, so the kernels bracket
            high = bath.noise_kernel_reference(sd, HIGH(oth), tau)
            assert low < exact < low + high


def test_closed_kernel_window():
    dl = SpectralDensity(1.0, Cutoff.DRUDE_LORENTZ, 50.0)
    assert bath.closed_kernel_error(dl, HIGH(7.0), 14.0) is None  # Lam tau = 700
    assert isinstance(bath.closed_kernel_error(dl, HIGH(7.0), 14.02), RangeError)
    assert isinstance(bath.closed_kernel_error(dl, HIGH(50.0 / np.pi), 0.0), PoleError)
    assert isinstance(bath.closed_kernel_error(dl, LOW, 0.1), DomainError)
    assert isinstance(bath.closed_kernel_error(dl, EXACT(7.0), 0.1), UnsupportedFormError)
    # every other bath's catalogued kernel is its reference transform
    sub = SpectralDensity(0.7, Cutoff.DRUDE_LORENTZ, 50.0)
    assert bath.closed_kernel_error(sub, HIGH(7.0), 0.1) is None
    # only the Ohmic Drude-Lorentz pole-sum forms have a finite window
    exp = SpectralDensity(1.0, Cutoff.EXPONENTIAL, 50.0)
    assert bath.closed_kernel_error(exp, HIGH(7.0), 1e6) is None


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_parameters_rejected(bad):
    for field in ("s", "lam", "gamma"):
        kwargs = dict(s=1.0, cutoff=Cutoff.EXPONENTIAL, lam=10.0, gamma=1.0)
        kwargs[field] = bad
        with pytest.raises(DomainError):
            SpectralDensity(**kwargs)
    for kind in RegimeKind:
        with pytest.raises(DomainError):
            ThermalRegime(kind, bad)


def _exact_split(sd, oth, tau):
    """nu_exact = nu_low + Bose term, as the exact-regime curves evaluate it."""
    return bath.noise_kernel_reference(sd, LOW, tau) + bath._bose_kernel_fn(sd, oth)(tau)


def _mp_exact_kernel(sd, oth, tau):
    """int_0^inf J(w) coth(w/Omega_th) cos(w tau) dw in 25-digit arithmetic.

    Exponential: coth = 1 + 2 sum_k e^{-2kw/Omega_th} termwise, which sums to
    Gamma(s+1) Re[(1/Lam - i tau)^-(s+1) + 2 (Omega_th/2)^(s+1)
    zeta(s+1, 1 + Omega_th/(2 Lam) - i Omega_th tau/2)].  Abrupt: quadrature
    in u = w^s, which removes the w^(s-1) end point, split at the half periods.
    """
    mp.mp.dps = 25
    s, lam, oth, tau = mp.mpf(sd.s), mp.mpf(sd.lam), mp.mpf(oth), mp.mpf(tau)
    if sd.cutoff is Cutoff.EXPONENTIAL:
        shift = 1 + oth / (2 * lam) - 1j * oth * tau / 2
        series = (1 / lam - 1j * tau) ** (-(s + 1)) + 2 * (oth / 2) ** (s + 1) * mp.zeta(s + 1, shift)
        return float(sd.gamma * mp.gamma(s + 1) * mp.re(series))
    assert sd.cutoff is Cutoff.ABRUPT

    def integrand(u):
        w = u ** (1 / s)
        return w / mp.tanh(w / oth) * mp.cos(w * tau) / s

    cuts = [(k * mp.pi / tau) ** s for k in range(1, int(lam * tau / mp.pi) + 1)] if tau > 0 else []
    return float(sd.gamma * mp.quad(integrand, [0] + cuts + [lam**s]))


def _assert_kernel_close(got, want):
    # nu_low and the Bose term cancel to ~1e-23 of nu(0) at Lam tau = 50, so
    # the scale is the largest |nu| on the tau set, not each value
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("cutoff", list(Cutoff))
@pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
def test_exact_split_matches_bose_quadrature(cutoff, s):
    sd = SpectralDensity(s, cutoff, 50.0, 1.3)
    taus = np.logspace(-12, 1, 14) / sd.lam
    for oth in (3.0, 17.0):
        low = bath.noise_kernel_reference(sd, LOW, taus)
        want = low + np.array([_bose_term(sd, oth, t) for t in taus])
        _assert_kernel_close(_exact_split(sd, oth, taus), want)


@pytest.mark.parametrize("cutoff", [Cutoff.EXPONENTIAL, Cutoff.ABRUPT])
@pytest.mark.parametrize("s", [0.05, 0.3, 0.8, 2.5])
def test_exact_split_matches_mpmath(cutoff, s):
    # at non-half-integer s the Bose integrand behaves as x^(2s-1) at x = 0,
    # which a plain Gauss rule in x = sqrt(w) resolves only to 1e-3 (s = 0.3)
    sd = SpectralDensity(s, cutoff, 50.0, 1.3)
    taus = np.array([0.0, 1e-9, 1e-3, 0.1, 1.0, 10.0]) / sd.lam
    want = np.array([_mp_exact_kernel(sd, 17.0, t) for t in taus])
    _assert_kernel_close(_exact_split(sd, 17.0, taus), want)


@pytest.mark.parametrize("lam, oth", [(0.5, 100.0), (1e4, 0.01), (3.0, 3.0)])
@pytest.mark.parametrize("s", [0.3, 1.0, 2.5])
def test_bose_rule_across_frequency_scales(lam, oth, s):
    # Lam << Omega_th, Lam >> Omega_th and long times, exponential cutoff
    sd = SpectralDensity(s, Cutoff.EXPONENTIAL, lam, 0.7)
    taus = np.array([0.0, 1e-12, 1e-6, 1e-3, 0.1, 10.0])
    want = np.array([_mp_exact_kernel(sd, oth, t) for t in taus])
    _assert_kernel_close(_exact_split(sd, oth, taus), want)


@pytest.mark.parametrize("lam, oth", [(50.0, 17.0), (40.0, 90.0)])
def test_exact_split_matches_drude_pole_sum(lam, oth):
    sd = SpectralDensity(1.0, Cutoff.DRUDE_LORENTZ, lam, 1.3)
    taus = np.logspace(-6, 1, 22) / lam
    _assert_kernel_close(_exact_split(sd, oth, taus), bath.drude_exact_kernel(sd, oth, taus))


def test_bose_kernel_shapes_and_zero_coupling():
    sd = SpectralDensity(1.0, Cutoff.EXPONENTIAL, 50.0, 1.3)
    fn = bath._bose_kernel_fn(sd, 17.0)
    taus = np.array([[0.0, 0.01], [0.02, 0.2]])
    assert fn(taus).shape == (2, 2)
    assert np.ndim(fn(0.01)) == 0 and float(fn(0.01)) == pytest.approx(fn(taus)[0, 1], rel=1e-13)
    # the cosine block is cut into rows; a long tau array crosses several
    many = np.linspace(0.0, 0.2, 3000)
    assert np.allclose(fn(many)[[0, 1500, 2999]], fn(many[[0, 1500, 2999]]), rtol=1e-13, atol=0.0)
    assert np.all(bath._bose_kernel_fn(SpectralDensity(1.0, Cutoff.EXPONENTIAL, 50.0, 0.0), 17.0)(many) == 0.0)


@pytest.mark.parametrize("cutoff", [Cutoff.EXPONENTIAL, Cutoff.DRUDE_LORENTZ])
@pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("rkind", list(RegimeKind))
def test_quadrature_small_tau(cutoff, s, rkind):
    # the oscillatory-weight head over [1, 4 pi / tau] used to miss the
    # envelope at Lam tau < 5e-4 (exp s = 1/2 low at tau = 1e-6 gave 0.66
    # against 313) and to divide by zero at tau = 1e-17
    sd = SpectralDensity(s, cutoff, 50.0, 1.0)
    regime = ThermalRegime(rkind, 17.0)
    for tau in (1e-17, 1e-9, 1e-6):
        if rkind is RegimeKind.EXACT:
            want = _exact_split(sd, 17.0, tau)
        else:
            want = bath.noise_kernel_reference(sd, regime, tau)
        assert bath.noise_kernel_quadrature(sd, regime, tau) == pytest.approx(want, rel=1e-7)


def test_exact_quadrature_resolves_bose_bump_below_cutoff():
    # Omega_th << Lam: the coth excess sits at w ~ Omega_th, far below the
    # envelope; at Lam tau = 0.2 one QUADPACK call missed 2/3 of it (1.4e-6)
    sd = SpectralDensity(1.0, Cutoff.EXPONENTIAL, 2000.0)
    for tau in (1e-4, 3.16e-4):
        want = _exact_split(sd, 3.0, tau)
        assert bath.noise_kernel_quadrature(sd, EXACT(3.0), tau) == pytest.approx(want, rel=1e-8)


@pytest.mark.parametrize("cutoff", list(Cutoff))
@pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
def test_bose_kernel_value_does_not_depend_on_the_call(cutoff, s):
    # each tau takes the rule of its own octave, whatever else the call holds
    fn = bath._bose_kernel_fn(SpectralDensity(s, cutoff, 50.0, 1.3), 17.0)
    taus = np.logspace(-7, np.log10(0.3), 60)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        together = fn(taus)
        alone = np.array([fn(t) for t in taus])
    assert np.max(np.abs(together - alone)) <= 1e-13 * np.max(np.abs(alone))


@pytest.mark.parametrize("se", [-0.5, 0.0, 0.5], ids="{}-cos".format)
def test_trig_power_ratio_value_does_not_depend_on_the_call(se):
    x = np.logspace(-8, 3, 200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        together = bath._trig_power_ratio(se, x)
        alone = np.array([bath._trig_power_ratio(se, np.array([v]))[0] for v in x])
    assert np.all(np.abs(together - alone) <= 4 * np.spacing(np.abs(alone)))


#: x on both sides of which _trig_power_ratio changed or changes method:
#: the old extended-precision seam at 20, the old asymptotic band edges 80
#: and 200, and every band edge of the float64 path
_TRIG_EDGES = (4.0, 20.0, 36.0, 80.0, 200.0)


def _trig_power_ratio_mp(se, x):
    # int_0^1 u^se cos(x u) du as a 1F2 function of -x^2/4, 40 digits
    with mp.workdps(40):
        se, x = mp.mpf(se), mp.mpf(x)
        return mp.hyp1f2((se + 1) / 2, mp.mpf(1) / 2, (se + 3) / 2, -x * x / 4) / (se + 1)


@pytest.mark.parametrize("se", [-0.5, 0.0, 0.5, 1.0, 1.5, 0.3, 2.5], ids="{}-cos".format)
def test_trig_power_ratio_matches_mpmath(se):
    # se = s (low temperature) and s - 1 (high temperature) for
    # s in {1/2, 1, 3/2}, plus two off-catalogue exponents
    near = [e * f for e in _TRIG_EDGES for f in (1 - 1e-12, 1.0, 1 + 1e-12, 0.99, 1.01)]
    x = np.sort(np.concatenate([np.logspace(-8, 3, 67), near]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = bath._trig_power_ratio(se, x)
    want = np.array([float(_trig_power_ratio_mp(se, v)) for v in x])
    bound = 1e-12 * np.maximum(np.abs(want), 1.0 / (1.0 + x))
    bad = np.abs(got - want) > bound
    assert not bad.any(), "x = %s" % x[bad]
    # the edges above bracket every band of the implementation
    assert {bath._TRIG_SERIES_TOP, bath._TRIG_TAIL_START} <= set(_TRIG_EDGES)


def _asymptotic_band_by_polyval(se, x):
    """The x > 36 band of _trig_power_ratio transcribed independently: the
    falling-factorial coefficients of p and q to 36 terms summed by numpy's
    polyval, then c_inf x^-(se+1) + Re[a e^{ix}] with a = -(p + i q)/x, the
    real part in the operations of the band; NaN at x <= 36."""
    out = np.full_like(x, np.nan)
    cinf = sp.gamma(se + 1.0) * np.cos(np.pi * (se + 1.0) / 2.0)
    falling = [1.0]
    while len(falling) < 36 and falling[-1] != 0.0:
        falling.append(falling[-1] * (se - len(falling) + 1.0))
    q_coef = [falling[k] * (-1.0) ** (k // 2) for k in range(0, len(falling), 2)]
    p_coef = [falling[k] * (-1.0) ** ((k + 1) // 2) for k in range(1, len(falling), 2)]
    idx = np.nonzero(x > 36.0)[0]
    xs = x[idx]
    z = 1.0 / (xs * xs)
    p, q = polyval(z, p_coef) / xs, polyval(z, q_coef)
    amp = -((p + 1j * q) / xs)
    out[idx] = cinf * xs ** -(se + 1.0) + (amp.real * np.cos(xs) - amp.imag * np.sin(xs))
    return out


#: x on both sides of the asymptotic band edge 36, of the old edges 80 and
#: 200, and between
_ASYMPTOTIC_X = np.sort(
    np.concatenate(
        [
            [e * f for e in (36.0, 80.0, 200.0) for f in (1 - 1e-12, 1.0, 1 + 1e-15, 1 + 1e-12, 1.001, 1.3)],
            np.linspace(30.0, 250.0, 401),
            np.logspace(np.log10(36.0), 5.0, 200),
        ]
    )
)


@pytest.mark.parametrize("se", [-0.5, 0.0, 0.5, 1.0, 1.5], ids="{}-cos".format)
def test_trig_power_ratio_asymptotic_bands_bit_for_bit(se):
    # one 36-term series past x = 36, whatever x: the values keep every bit
    # of the transcription above
    x = _ASYMPTOTIC_X
    got = bath._trig_power_ratio(se, x)
    want = _asymptotic_band_by_polyval(se, x)
    tail = x > 36.0
    assert np.array_equal(got[tail], want[tail])
    assert np.all(np.isnan(want[~tail]))


@pytest.mark.parametrize("rkind", [RegimeKind.HIGH_TEMPERATURE, RegimeKind.LOW_TEMPERATURE])
@pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
def test_oscillating_tail_is_the_reference_kernel(s, rkind):
    # nu = S + Re[a e^{i Lam tau}] past Lam tau = 36, to rounding of the two terms
    sd = SpectralDensity(s, Cutoff.ABRUPT, 50.0, 1.3)
    regime = ThermalRegime(rkind, 7.0)
    start, parts = bath._oscillating_tail(sd, regime)
    assert start == 36.0 / sd.lam
    tau = _ASYMPTOTIC_X[_ASYMPTOTIC_X > 36.0] / sd.lam
    smooth, amp = parts(tau)
    got = smooth + (amp * np.exp(1j * sd.lam * tau)).real
    want = bath.noise_kernel_reference(sd, regime, tau)
    assert np.all(np.abs(got - want) <= 8 * np.finfo(float).eps * (np.abs(smooth) + np.abs(amp)))


_DL1 = SpectralDensity(1.0, Cutoff.DRUDE_LORENTZ, 50.0)


# each case has an explicit id, the name it had as a positional one, so a
# case can come or go without renaming the others; a generated case's id
# follows from its place in its own product
@pytest.mark.parametrize(
    "call, exc, match",
    [
        pytest.param(
            lambda: SpectralDensity(1.0, Cutoff.ABRUPT, 0.0), DomainError, "cutoff frequency", id="<lambda>-DomainError-cutoff frequency0"
        ),
        pytest.param(
            lambda: SpectralDensity(1.0, Cutoff.EXPONENTIAL, -3.0), DomainError, "cutoff frequency", id="<lambda>-DomainError-cutoff frequency1"
        ),
        pytest.param(lambda: SpectralDensity(1.0, Cutoff.ABRUPT, 10.0, -0.1), DomainError, "gamma", id="<lambda>-DomainError-gamma"),
        pytest.param(lambda: ThermalRegime(RegimeKind.EXACT, 0.0), DomainError, "omega_th", id="<lambda>-DomainError-omega_th0"),
        pytest.param(lambda: ThermalRegime(RegimeKind.HIGH_TEMPERATURE, -2.0), DomainError, "omega_th", id="<lambda>-DomainError-omega_th1"),
        pytest.param(lambda: bath.noise_kernel_quadrature(_DL1, LOW, -1e-3), DomainError, "tau", id="<lambda>-DomainError-tau0"),
        pytest.param(
            lambda: bath.noise_kernel_closed_parts(_DL1, LOW, np.array([0.1, -1e-3])), DomainError, "tau", id="<lambda>-DomainError-tau1"
        ),
        # Lam/Omega_th = pi: a pole of cot(Lam/Omega_th)
        pytest.param(lambda: bath.drude_exact_kernel(_DL1, 50.0 / np.pi, 0.1), PoleError, "cot", id="<lambda>-PoleError-cot"),
        # Lam/Omega_th = pi + 2e-8: clear of the cot test, 6e-9 off the
        # Matsubara pole b = Lam/(pi Omega_th) = 1
        pytest.param(
            lambda: bath.drude_exact_kernel(_DL1, 50.0 / (np.pi + 2e-8), 0.1), PoleError, "Matsubara", id="<lambda>-PoleError-Matsubara"
        ),
        *[
            pytest.param(lambda bad=bad, fn=fn: fn(bad), DomainError, "tau", id="<lambda>-DomainError-tau%d" % k)
            for k, (bad, fn) in enumerate(
                itertools.product(
                    (np.nan, np.inf, -np.inf),
                    (
                        lambda tau: bath.noise_kernel_quadrature(_DL1, LOW, tau),
                        lambda tau: bath.noise_kernel_quadrature(_DL1, HIGH(17.0), tau),
                    ),
                ),
                start=2,
            )
        ],
        *[
            pytest.param(lambda bad=bad, fn=fn: fn(bad), DomainError, "tau", id="<lambda>-DomainError-tau%d" % k)
            for k, (bad, fn) in enumerate(
                itertools.product(
                    (np.nan, np.inf, -np.inf, np.array([0.1, np.nan])),
                    (
                        lambda tau: bath.noise_kernel_reference(SpectralDensity(1.0, Cutoff.ABRUPT, 50.0), LOW, tau),
                        lambda tau: bath.noise_kernel_reference(_DL1, HIGH(17.0), tau),
                        lambda tau: bath.noise_kernel_reference(_DL1, LOW, tau),
                        lambda tau: bath.noise_kernel_closed_parts(_DL1, LOW, tau),
                        lambda tau: bath.drude_exact_kernel(_DL1, 17.0, tau),
                    ),
                ),
                start=8,
            )
        ],
        # a thermal frequency 2 k_B T / hbar is never negative, in any regime
        *[
            pytest.param(
                lambda kind=kind, oth=oth: ThermalRegime(kind, oth),
                DomainError,
                "omega_th must be >= 0",
                id="<lambda>-DomainError-omega_th must be >= 0_%d" % k,
            )
            for k, (kind, oth) in enumerate(itertools.product(RegimeKind, (-5.0, -1e-300)))
        ],
        # numpy would give J(nan) = nan, and J(inf) a RuntimeWarning or inf
        *[
            pytest.param(
                lambda bad=bad, c=c: bath.spectral_density(SpectralDensity(1.0, c, 10.0), bad),
                DomainError,
                "omega must be finite",
                id="<lambda>-DomainError-omega must be finite%d" % k,
            )
            for k, (bad, c) in enumerate(
                itertools.product(
                    (np.nan, np.inf, -np.inf, -1.0, [1.0, np.nan], np.array([0.0, 2.0, np.inf]), [[1.0], [-np.inf]]), Cutoff
                )
            )
        ],
    ],
)
def test_bath_rejects_out_of_domain_input(call, exc, match):
    with pytest.raises(exc, match=match):
        call()
