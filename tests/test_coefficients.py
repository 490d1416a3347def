import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate

from qbmag import bath, coefficients
from qbmag.bath import Cutoff, RegimeKind, SpectralDensity, ThermalRegime
from qbmag.coefficients import g_function, lambda_closed, lambda_from_kernel, lambda_quadrature
from qbmag.dynamics import SystemParams, mode_constants
from qbmag.errors import DomainError, RangeError, UnsupportedFormError

HIGH = lambda oth: ThermalRegime(RegimeKind.HIGH_TEMPERATURE, oth)
LOW = ThermalRegime(RegimeKind.LOW_TEMPERATURE)

SYS = SystemParams(omega0=10.0, omega_c=1.0, omega_th=1e3)

COMBOS = [
    (Cutoff.ABRUPT, RegimeKind.HIGH_TEMPERATURE),
    (Cutoff.ABRUPT, RegimeKind.LOW_TEMPERATURE),
    (Cutoff.DRUDE_LORENTZ, RegimeKind.HIGH_TEMPERATURE),
    (Cutoff.DRUDE_LORENTZ, RegimeKind.LOW_TEMPERATURE),
    (Cutoff.EXPONENTIAL, RegimeKind.HIGH_TEMPERATURE),
    (Cutoff.EXPONENTIAL, RegimeKind.LOW_TEMPERATURE),
]


@pytest.mark.parametrize("cutoff,rkind", COMBOS)
def test_closed_zero_at_t0(cutoff, rkind):
    sd = SpectralDensity(1.0, cutoff, 300.0)
    regime = ThermalRegime(rkind, 12.0)
    for variant in ("validated", "printed"):
        lp = lambda_closed(SYS, sd, regime, 0.0, variant)
        assert lp.method == "closed-" + variant
        assert lp.lambda1 == 0
        if (cutoff, rkind) == (Cutoff.ABRUPT, RegimeKind.LOW_TEMPERATURE):
            assert lp.lambda2 is None
        else:
            assert lp.lambda2 == 0


@pytest.mark.parametrize("cutoff,rkind", COMBOS)
def test_closed_validated_matches_same_kernel_quadrature(cutoff, rkind):
    sd = SpectralDensity(1.0, cutoff, 317.0, 1.4)
    regime = ThermalRegime(rkind, 13.0)
    kern = lambda u: bath.noise_kernel_closed_parts(sd, regime, u)
    for t in (0.004, 0.08, 0.5):
        lc = lambda_closed(SYS, sd, regime, t, "validated")
        lq = lambda_from_kernel(SYS, kern, t)
        assert abs(lc.lambda1 - lq.lambda1) <= 1e-6 * max(abs(lq.lambda1), 1e-8)
        if lc.lambda2 is not None:
            assert abs(lc.lambda2 - lq.lambda2) <= 1e-6 * max(abs(lq.lambda2), 1e-8)


@pytest.mark.parametrize("rkind", [RegimeKind.HIGH_TEMPERATURE, RegimeKind.LOW_TEMPERATURE])
def test_exp_validated_matches_reference_kernel_at_large_si_ci_arguments(rkind):
    # A'/Lam = 7 at Lam t = 4.5: the cosh/sinh-weighted Si/Ci forms this
    # replaced took Si/Ci at (Lam t -+ i) A'/Lam, |z| = 21 with |Im z| = 7
    sys = SystemParams(omega0=10.0, omega_c=1.0)
    sd = SpectralDensity(1.0, Cutoff.EXPONENTIAL, 1.5)
    regime = ThermalRegime(rkind, 13.0)
    lc = lambda_closed(sys, sd, regime, 3.0)
    lq = lambda_from_kernel(sys, lambda u: bath.noise_kernel_reference(sd, regime, u), 3.0)
    assert abs(lc.lambda1 - lq.lambda1) <= 1e-8 * abs(lq.lambda1)
    assert abs(lc.lambda2 - lq.lambda2) <= 1e-8 * abs(lq.lambda2)


def _exp_chi_mpmath(a, bigt, high):
    """chi(a) = int_0^T e^{iay} k(y) dy of the exponential-cutoff kernel shape
    k(y) = 1/(1+y^2) (high) or (1-y^2)/(1+y^2)^2 (low), in mpmath's E1."""
    g = lambda w: mpmath.exp(w) * mpmath.e1(w)
    eit = mpmath.expj(a * bigt)
    lp = mpmath.exp(-a) * (1j * mpmath.pi - mpmath.ei(a)) - eit * g(-a * (1 + 1j * bigt))
    lm = g(a) - eit * g(a * (1 - 1j * bigt))
    if high:
        return (lp - lm) / 2j
    return bigt * eit / (1 + bigt**2) - 1j * a * (lp + lm) / 2


def _exp_lambdas_mpmath(sys, sd, regime, t, dps=30):
    """dps-digit validated exponential-cutoff lambda1, lambda2 (hbar = 1) from
    the double mode constants the closed forms receive."""
    mc = mode_constants(sys)
    high = regime.kind is RegimeKind.HIGH_TEMPERATURE
    with mpmath.workdps(dps):
        ap, bp, m, p, g = (mpmath.mpf(x) for x in (mc.a_prime, mc.b_prime, mc.m_coef, mc.p_coef, mc.g_coef))
        lam, t = mpmath.mpf(sd.lam), mpmath.mpf(t)
        c = sd.gamma * (mpmath.mpf(regime.omega_th) if high else lam)
        ca, cb = (_exp_chi_mpmath(z / lam, lam * t, high) for z in (ap, bp))
        l1 = c * (m * ca.real + p * cb.real)
        l2 = c * g * (cb.imag / bp - ca.imag / ap)
        return float(l1), float(l2)


@pytest.mark.parametrize("high", [True, False])
@pytest.mark.parametrize("a, bigt", [(0.3, 2.0), (2.0, 0.4), (12.0, 3.0)])
def test_exp_mpmath_oracle_matches_quadrature(high, a, bigt):
    k = (lambda y: 1 / (1 + y * y)) if high else (lambda y: (1 - y * y) / (1 + y * y) ** 2)
    with mpmath.workdps(30):
        a, bigt = mpmath.mpf(a), mpmath.mpf(bigt)
        edges = mpmath.linspace(0, bigt, int(a * bigt) + 4)
        want = mpmath.quad(lambda y: mpmath.expj(a * y) * k(y), edges)
        assert abs(_exp_chi_mpmath(a, bigt, high) - want) <= mpmath.mpf(10) ** -25 * abs(want)


@pytest.mark.parametrize("rkind", [RegimeKind.HIGH_TEMPERATURE, RegimeKind.LOW_TEMPERATURE])
@pytest.mark.parametrize("lam_t", [0.5, 3.0, 20.0])
@pytest.mark.parametrize("ratio", [0.1, 1.0, 5.0, 8.0, 12.0, 16.0, 30.0, 50.0])
def test_exp_validated_matches_mpmath_for_any_a_over_lam(ratio, lam_t, rkind):
    # A'/Lam up to 50: a cutoff Lam below the mode frequency A' is where the
    # three cutoff models differ most
    sys = SystemParams(omega0=10.0, omega_c=1.0)
    sd = SpectralDensity(1.0, Cutoff.EXPONENTIAL, mode_constants(sys).a_prime / ratio, 1.4)
    regime = ThermalRegime(rkind, 13.0)
    t = lam_t / sd.lam
    lc = lambda_closed(sys, sd, regime, t)
    want1, want2 = _exp_lambdas_mpmath(sys, sd, regime, t)
    assert abs(lc.lambda1 - want1) <= 1e-8 * abs(want1)
    assert abs(lc.lambda2 - want2) <= 1e-8 * abs(want2)


def test_exp_validated_small_mode_frequencies():
    # B' -> 0 (omega0 = 1e-7) and A' t -> 0 (Lam t = 1.2 at A'/Lam = 0.035):
    # lambda2 differences two nearly equal mode terms
    sd = SpectralDensity(1.0, Cutoff.EXPONENTIAL, 300.0, 1.4)
    for omega0, t in ((1e-7, 0.08), (10.0, 0.004)):
        sys = SystemParams(omega0=omega0, omega_c=1.0)
        for rkind in (RegimeKind.HIGH_TEMPERATURE, RegimeKind.LOW_TEMPERATURE):
            regime = ThermalRegime(rkind, 13.0)
            lc = lambda_closed(sys, sd, regime, t)
            # 60 digits: Im chi(B'/Lam) ~ 1e-17 comes out of O(1) E1 terms
            want1, want2 = _exp_lambdas_mpmath(sys, sd, regime, t, dps=60)
            assert abs(lc.lambda1 - want1) <= 1e-14 * abs(want1)
            assert abs(lc.lambda2 - want2) <= 1e-13 * abs(want2)


def test_exp_validated_rejects_a_over_lam_past_overflow():
    sys = SystemParams(omega0=10.0, omega_c=1.0)
    sd = SpectralDensity(1.0, Cutoff.EXPONENTIAL, mode_constants(sys).a_prime / 701.0)
    with pytest.raises(RangeError, match="A'/Lam"):
        lambda_closed(sys, sd, HIGH(13.0), 0.1)


def test_quadrature_oracles_report_trouble_through_est_error():
    # nu ~ tau^(-1/2) at tau -> 0: QUADPACK reports "probably divergent" on
    # both oracles at t = 0.2; that shows as est_error = inf, not a warning
    sys = SystemParams(omega0=7.0, omega_c=2.0)
    sd = SpectralDensity(1.5, Cutoff.DRUDE_LORENTZ, 50.0, 1.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lk = lambda_from_kernel(sys, lambda u: bath.noise_kernel_reference(sd, LOW, u), 0.2)
        lq = lambda_quadrature(sys, sd, LOW, 0.2)
        quiet = lambda_from_kernel(sys, lambda u: bath.noise_kernel_reference(sd, LOW, u), 0.01)
    assert lk.est_error == np.inf and lq.est_error == np.inf
    assert abs(lq.lambda1 - lk.lambda1) <= 1e-8 * abs(lk.lambda1)
    assert abs(lq.lambda2 - lk.lambda2) <= 1e-8 * abs(lk.lambda2)
    assert 0.0 < quiet.est_error < 1e-10


def test_lambda_quadrature_trivials():
    sd = SpectralDensity(1.0, Cutoff.ABRUPT, 1e3)
    lp = lambda_quadrature(SYS, sd, HIGH(1e3), 0.0)
    assert lp.lambda1 == 0 and lp.lambda2 == 0
    sd0 = SpectralDensity(1.0, Cutoff.ABRUPT, 1e3, 0.0)
    lp = lambda_quadrature(SYS, sd0, HIGH(1e3), 0.3)
    assert lp.lambda1 == 0 and lp.lambda2 == 0


def test_lambda_quadrature_defining_path_matches_closed():
    # full nested quadrature (kernel integral inside the time integral)
    sd = SpectralDensity(1.0, Cutoff.ABRUPT, 1e3)
    t = 0.05
    lq = lambda_quadrature(SYS, sd, HIGH(1e3), t)
    lc = lambda_closed(SYS, sd, HIGH(1e3), t)
    assert abs(lq.lambda1 - lc.lambda1) <= 1e-4 * abs(lc.lambda1)
    assert abs(lq.lambda2 - lc.lambda2) <= 1e-4 * abs(lc.lambda2) + 1e-10


def test_drude_lowtemp_g_algebra_at_catalogued_parameters():
    # validates the cosh-kernel algebra independently of its physical validity
    sys = SystemParams(omega0=10.0, omega_c=1.0)
    sd = SpectralDensity(1.0, Cutoff.DRUDE_LORENTZ, 20.0)
    regime = ThermalRegime(RegimeKind.LOW_TEMPERATURE, 0.01)
    cot = 1.0 / np.tan(sd.lam / regime.omega_th)
    kern = lambda u: (np.pi * sd.lam**2 / 2) * cot * np.cosh(sd.lam * u)
    for t in (0.05, 0.3, 0.5):  # Lam t <= 10
        lc = lambda_closed(sys, sd, regime, t)
        lq = lambda_from_kernel(sys, kern, t)
        assert abs(lc.lambda1 - lq.lambda1) <= 1e-6 * abs(lq.lambda1)
        assert abs(lc.lambda2 - lq.lambda2) <= 1e-6 * abs(lq.lambda2)


def test_g2_vanishes_at_t0():
    sd = SpectralDensity(1.0, Cutoff.DRUDE_LORENTZ, 50.0)
    mc = mode_constants(SYS)
    val = g_function("g2", 1j * mc.a_prime, 0.0, sd, omega_th=7.0, vprime=mc.b_prime)
    assert abs(val) < 1e-14


def test_g5_real_for_real_modes():
    rng = np.random.default_rng(31)
    sd = SpectralDensity(1.0, Cutoff.EXPONENTIAL, 100.0)
    for _ in range(30):
        z = rng.uniform(0.5, 9.0)
        t = rng.uniform(1e-3, 1.0)
        val = g_function("g5", z, t, sd)
        assert abs(val.imag) <= 1e-10 * max(abs(val), 1e-12)


def test_g7_partner_sum_matches_quadrature():
    sys = SystemParams(omega0=10.0, omega_c=1.0)
    sd = SpectralDensity(1.0, Cutoff.EXPONENTIAL, 300.0)
    mc = mode_constants(sys)
    for t in (0.01, 0.2):
        total = (
            1.0
            / (2 + 2 * t**2 * sd.lam**2)
            * (
                mc.m_coef * g_function("g7", mc.a_prime, t, sd)
                + mc.p_coef * g_function("g7", mc.b_prime, t, sd)
            )
        )
        kern = lambda u: sd.gamma * (1 / sd.lam**2 - u**2) / (1 / sd.lam**2 + u**2) ** 2
        lq = lambda_from_kernel(sys, kern, t)
        assert abs(total.real - lq.lambda1.real) <= 1e-5 * abs(lq.lambda1)


def test_small_t_slope_is_kernel_at_zero():
    sd = SpectralDensity(1.0, Cutoff.ABRUPT, 1e3)
    regime = HIGH(1e3)
    t = 1e-3 / sd.lam
    lp = lambda_closed(SYS, sd, regime, t)
    nu0 = sd.gamma * regime.omega_th * sd.lam  # kernel at tau = 0
    assert lp.lambda1.real / t == pytest.approx(nu0 / SYS.hbar, rel=0.01)


def test_gamma_linearity():
    sd1 = SpectralDensity(1.0, Cutoff.EXPONENTIAL, 200.0, 1.0)
    sd2 = SpectralDensity(1.0, Cutoff.EXPONENTIAL, 200.0, 2.0)
    a = lambda_closed(SYS, sd1, HIGH(5.0), 0.2)
    b = lambda_closed(SYS, sd2, HIGH(5.0), 0.2)
    assert b.lambda1 == pytest.approx(2 * a.lambda1, rel=1e-13)
    assert b.lambda2 == pytest.approx(2 * a.lambda2, rel=1e-13)


def test_lambda2_vanishes_without_trap():
    sys = SystemParams(omega0=0.0, omega_c=5.0)
    sd = SpectralDensity(1.0, Cutoff.EXPONENTIAL, 100.0)
    lp = lambda_closed(sys, sd, HIGH(4.0), 0.1)
    assert abs(lp.lambda2) < 1e-12
    lq = lambda_quadrature(sys, sd, HIGH(4.0), 0.05)
    assert abs(lq.lambda2) < 1e-12


def test_printed_abrupt_hightemp_lambda2_finding():
    # catalogued finding: printed display = -A'B' x defining integral
    sd = SpectralDensity(1.0, Cutoff.ABRUPT, 1e3)
    regime = HIGH(1e3)
    mc = mode_constants(SYS)
    t = 0.01
    printed = lambda_closed(SYS, sd, regime, t, "printed").lambda2
    validated = lambda_closed(SYS, sd, regime, t, "validated").lambda2
    ratio = printed / validated
    assert ratio.real == pytest.approx(-mc.a_prime * mc.b_prime, rel=1e-8)
    assert abs(ratio.imag) < 1e-8 * abs(ratio.real)


def test_printed_drude_lowtemp_is_cumulative():
    # catalogued finding: the printed g3 display equals int_0^t lambda1 dt'
    sys = SystemParams(omega0=10.0, omega_c=1.0)
    sd = SpectralDensity(1.0, Cutoff.DRUDE_LORENTZ, 20.0)
    regime = ThermalRegime(RegimeKind.LOW_TEMPERATURE, 0.01)
    t = 0.3
    printed = lambda_closed(sys, sd, regime, t, "printed").lambda1
    cumulative = integrate.quad(
        lambda u: lambda_closed(sys, sd, regime, u, "validated").lambda1.real,
        0.0,
        t,
        limit=200,
    )[0]
    assert printed.real == pytest.approx(cumulative, rel=1e-8)
    assert abs(printed.imag) < 1e-12


def test_printed_exponential_lambda1_matches_validated():
    # the exponential-cutoff lambda1 displays are exact as printed
    sd = SpectralDensity(1.0, Cutoff.EXPONENTIAL, 250.0)
    for rkind, oth in ((RegimeKind.HIGH_TEMPERATURE, 9.0), (RegimeKind.LOW_TEMPERATURE, 0.0)):
        regime = ThermalRegime(rkind, oth)
        p = lambda_closed(SYS, sd, regime, 0.13, "printed").lambda1
        v = lambda_closed(SYS, sd, regime, 0.13, "validated").lambda1
        assert p.real == pytest.approx(v.real, rel=1e-10)


def test_unsupported_forms():
    sd = SpectralDensity(1.0, Cutoff.ABRUPT, 1e3)
    # abrupt low temperature: lambda1 has a form, lambda2 (undefined f3) has none
    lp = lambda_closed(SYS, sd, LOW, 0.1)
    assert lp.lambda2 is None
    assert lp.lambda1.real > 0
    with pytest.raises(UnsupportedFormError):
        lambda_closed(SYS, sd, ThermalRegime(RegimeKind.EXACT, 5.0), 0.1)
    with pytest.raises(UnsupportedFormError):
        lambda_closed(SYS, SpectralDensity(1.5, Cutoff.ABRUPT, 1e3), HIGH(5.0), 0.1)


def test_unknown_variant_rejected_at_every_t():
    sd = SpectralDensity(1.0, Cutoff.EXPONENTIAL, 200.0)
    for t in (0.0, 0.1):
        with pytest.raises(ValueError):
            lambda_closed(SYS, sd, HIGH(5.0), t, "bogus")


def test_findings_registry_covers_known_deviations():
    for key in (
        ("abrupt", "high", "lambda2"),
        ("drude", "high", "lambda1"),
        ("drude", "low", "lambda1"),
        ("exp", "high", "lambda2"),
        ("exp", "low", "lambda2"),
    ):
        assert key in coefficients.FINDINGS


def test_criterion_5_detects_a_validated_form_off_by_1e_3(monkeypatch):
    from qbmag import validation

    good = coefficients._exp_validated

    def off(sd, regime, mc, t, hbar):
        l1, l2 = good(sd, regime, mc, t, hbar)
        return l1 * (1.0 + 1e-3), l2

    monkeypatch.setattr(coefficients, "_exp_validated", off)
    res = validation.check_criterion_5()
    assert res.status == "fail"
    worst = res.measured["validated_worst_rel"]
    assert worst["exp-high"] == pytest.approx(1e-3, rel=1e-3)
    assert worst["exp-low"] == pytest.approx(1e-3, rel=1e-3)
    assert max(worst["abrupt-high"], worst["drude-low"]) < 1e-6


@pytest.mark.parametrize("g_name", ["_g5", "_g7"])
def test_criterion_5_flags_a_printed_exp_lambda1_off_by_1e_3(monkeypatch, g_name):
    # the printed g5/g7 are exact for A'/Lam <= 8, so a transcription error
    # there is an undocumented deviation, not a cancellation finding
    from qbmag import validation

    good = getattr(coefficients, g_name)
    monkeypatch.setattr(coefficients, g_name, lambda z, t, lam: good(z, t, lam) * (1.0 + 1e-3))
    res = validation.check_criterion_5()
    assert res.status == "fail"
    regime = "high" if g_name == "_g5" else "low"
    assert res.measured["undocumented_deviations"] == [str(("exp", regime, "lambda1"))]
    assert res.measured["printed_findings"]["exp-%s-lambda1" % regime]["max_rel_deviation"] >= 1e-3 * 0.99


@settings(max_examples=100, deadline=None)
@given(
    cutoff=st.sampled_from(list(Cutoff)),
    rkind=st.sampled_from([RegimeKind.HIGH_TEMPERATURE, RegimeKind.LOW_TEMPERATURE]),
    variant=st.sampled_from(["validated", "printed"]),
    omega0=st.floats(0.5, 20.0),
    omega_c=st.floats(0.0, 15.0),
    oth=st.floats(0.5, 50.0),
    lam_factor=st.floats(10.0, 30.0),
    t_frac=st.floats(0.0, 1.0),
    gamma=st.floats(0.2, 3.0),
)
def test_coverage_contract(cutoff, rkind, variant, omega0, omega_c, oth, lam_factor, t_frac, gamma):
    # inputs drawn inside criterion-5's windows: Lam > A', Drude-Lorentz
    # |sin(Lam/Omega_th)| >= 0.1, 1e-3 <= t <= min(1, 500/Lam)
    sys = SystemParams(omega0=omega0, omega_c=omega_c)
    lam = lam_factor * max(mode_constants(sys).a_prime, oth)
    assume(cutoff is not Cutoff.DRUDE_LORENTZ or abs(np.sin(lam / oth)) >= 0.1)
    t = 1e-3 + t_frac * (min(1.0, 500.0 / lam) - 1e-3)
    regime = ThermalRegime(rkind, oth)
    unit = lambda_closed(sys, SpectralDensity(1.0, cutoff, lam, 1.0), regime, t, variant)
    scaled = lambda_closed(sys, SpectralDensity(1.0, cutoff, lam, gamma), regime, t, variant)
    zero = lambda_closed(sys, SpectralDensity(1.0, cutoff, lam, gamma), regime, 0.0, variant)
    no_l2 = cutoff is Cutoff.ABRUPT and rkind is RegimeKind.LOW_TEMPERATURE
    for lp in (unit, scaled, zero):
        assert (lp.lambda2 is None) == no_l2
    assert zero.lambda1 == 0
    assert no_l2 or zero.lambda2 == 0
    for name in ("lambda1", "lambda2"):
        a, b = getattr(unit, name), getattr(scaled, name)
        if a is not None:
            assert abs(b - gamma * a) <= 1e-13 * abs(gamma * a)


def test_exp_low_validated_lambda2_linear_in_gamma():
    # gamma multiplies the finished difference of the two modes, so
    # gamma-linearity holds to rounding even at small Lam t (0.016 here)
    sys = SystemParams(omega0=1.0, omega_c=1.0)
    lam = 10.0 * mode_constants(sys).a_prime
    regime = ThermalRegime(RegimeKind.LOW_TEMPERATURE, 1.0)
    a = lambda_closed(sys, SpectralDensity(1.0, Cutoff.EXPONENTIAL, lam, 1.0), regime, 1e-3).lambda2
    b = lambda_closed(sys, SpectralDensity(1.0, Cutoff.EXPONENTIAL, lam, 0.375), regime, 1e-3).lambda2
    assert abs(b - 0.375 * a) <= 1e-13 * abs(0.375 * a)


_SD1 = SpectralDensity(1.0, Cutoff.ABRUPT, 1e3)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: lambda_closed(SYS, _SD1, HIGH(1e3), -1e-3), "t must be"),
        (lambda: lambda_from_kernel(SYS, lambda u: 1.0, -1e-3), "t must be"),
        (lambda: lambda_quadrature(SYS, _SD1, LOW, -1e-3), "t must be"),
        *[
            (lambda bad=bad, fn=fn: fn(bad), "t must be")
            for bad in (np.nan, np.inf, -np.inf)
            for fn in (
                lambda t: lambda_closed(SYS, _SD1, HIGH(1e3), t),
                lambda t: lambda_from_kernel(SYS, lambda u: 1.0, t),
                lambda t: lambda_quadrature(SYS, _SD1, LOW, t),
            )
        ],
        # Lam = 5 lies below A' = 10.5 of omega0 = 10, omega_c = 1
        (lambda: lambda_closed(SYS, SpectralDensity(1.0, Cutoff.ABRUPT, 5.0), HIGH(1e3), 0.01), "Lam > A'"),
        (lambda: lambda_closed(SYS, SpectralDensity(1.0, Cutoff.ABRUPT, 5.0), LOW, 0.01), "Lam > A'"),
    ],
)
def test_coefficients_reject_out_of_domain_input(call, match):
    with pytest.raises(DomainError, match=match):
        call()
