import numpy as np
import pytest
from scipy import integrate

from qbmag import bath
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


def test_dissipation_trivial_and_oracles():
    sd = SpectralDensity(1.0, Cutoff.ABRUPT, 10.0)
    assert bath.dissipation_kernel_quadrature(sd, 0.0) == 0.0
    # antiderivative oracle: int_0^Lam w sin(w tau) dw
    tau = 1.0
    lam = 10.0
    expected = (np.sin(lam * tau) - lam * tau * np.cos(lam * tau)) / tau**2
    assert bath.dissipation_kernel_quadrature(sd, tau) == pytest.approx(expected, rel=1e-8)
    sde = SpectralDensity(1.0, Cutoff.EXPONENTIAL, 10.0)
    expected_e = 2 * lam**3 * tau / (1 + lam**2 * tau**2) ** 2
    assert bath.dissipation_kernel_quadrature(sde, tau) == pytest.approx(expected_e, rel=1e-8)
    assert bath.dissipation_kernel_reference(sde, tau) == pytest.approx(expected_e, rel=1e-10)


def test_closed_kernel_trivials():
    sd = SpectralDensity(1.0, Cutoff.ABRUPT, 1e3)
    assert bath.noise_kernel_closed_parts(sd, HIGH(1e3), 1e-3).real == pytest.approx(1e6 * np.sin(1.0))
    sub = SpectralDensity(0.5, Cutoff.ABRUPT, 1e3, 1.7)
    assert bath.noise_kernel_closed_parts(sub, LOW, 0.0).real == pytest.approx((2.0 / 3.0) * 1.7 * 1e3**1.5)


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
    # nu integrand even in tau, eta integrand odd, at fixed omega samples
    sd = SpectralDensity(1.0, Cutoff.EXPONENTIAL, 30.0)
    omega = np.linspace(0.1, 60, 7)
    j = bath.spectral_density(sd, omega)
    for tau in (0.2, 1.4):
        assert np.allclose(j * np.cos(omega * tau), j * np.cos(-omega * tau))
        assert np.allclose(j * np.sin(omega * tau), -(j * np.sin(-omega * tau)))


def test_divergent_and_error_paths():
    dl = SpectralDensity(1.0, Cutoff.DRUDE_LORENTZ, 50.0)
    with pytest.raises(ConvergenceError):
        bath.noise_kernel_quadrature(dl, LOW, 0.0)
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
        bath.noise_kernel_reference(SpectralDensity(0.7, Cutoff.DRUDE_LORENTZ, 10.0), LOW, 0.1)
    with pytest.raises(UnsupportedFormError):
        bath.noise_kernel_reference(SpectralDensity(1.0, Cutoff.ABRUPT, 10.0), EXACT(3.0), 0.1)


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


def _bose_term(sd, oth, tau):
    """int_0^inf J(w) 2/(e^{2w/Omega_th} - 1) cos(w tau) dw by plain quad in w = x^2.

    coth(x) = 1 + 2/(e^{2x} - 1), so the exact kernel is the quantum kernel
    plus this term; the Bose factor is below 1e-34 past 40 Omega_th.
    """
    upper = min(40.0 * oth, sd.lam) if sd.cutoff is Cutoff.ABRUPT else 40.0 * oth

    def integrand(x):
        w = x * x
        if w < 1e-12 * oth:
            # limit of 2x J(w) 2/(e^{2w/Omega_th} - 1) as w -> 0, envelope 1
            return 2.0 * sd.gamma * oth * x ** (2.0 * sd.s - 1.0)
        bose = 2.0 / np.expm1(2.0 * w / oth)
        return 2.0 * x * bath.spectral_density(sd, w) * bose * np.cos(w * tau)

    return integrate.quad(integrand, 0.0, np.sqrt(upper), limit=2000, epsabs=1e-13, epsrel=1e-11)[0]


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
    sub = SpectralDensity(0.7, Cutoff.DRUDE_LORENTZ, 50.0)
    assert isinstance(bath.closed_kernel_error(sub, HIGH(7.0), 0.1), UnsupportedFormError)
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
