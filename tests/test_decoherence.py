import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qbmag import bath, decoherence
from qbmag.bath import Cutoff, RegimeKind, SpectralDensity, ThermalRegime
from qbmag.decoherence import (
    FLAG_CLAMPED,
    FLAG_ERROR,
    FLAG_FALLBACK,
    Separation,
    curve,
    curves,
    default_grid,
    density_ratio,
    exponents,
    frequency_shift,
    hightemp_rate,
    lowtemp_powerlaw,
)
from qbmag.coefficients import lambda_from_kernel
from qbmag.dynamics import SystemParams, mode_constants
from qbmag.errors import DomainError, UnsupportedFormError
from test_bath import bose_integral

SYS = SystemParams(omega0=10.0, omega_c=1.0, omega_th=1e3)
SD = SpectralDensity(1.0, Cutoff.ABRUPT, 1e3)
SD0 = SpectralDensity(1.0, Cutoff.ABRUPT, 1e3, 0.0)
HIGH = ThermalRegime(RegimeKind.HIGH_TEMPERATURE, 1e3)
LOW = ThermalRegime(RegimeKind.LOW_TEMPERATURE)
SEP = Separation(1.0, 1.0)


def test_exponent_trivials():
    ex = exponents(SYS, SD, HIGH, Separation(0.0, 0.0), 0.5)
    assert ex.d1 == 0 and ex.d2 == 0
    ex = exponents(SYS, SD, HIGH, SEP, 0.0)
    assert ex.d1 == 0 and ex.d2 == 0


def test_density_ratio_trivials():
    assert density_ratio(SYS, SD, HIGH, SEP, 0.0) == (1.0, 0.0)
    sd0 = SpectralDensity(1.0, Cutoff.ABRUPT, 1e3, 0.0)
    assert density_ratio(SYS, sd0, HIGH, SEP, 0.4) == (1.0, 0.0)


def test_exchange_and_sign_symmetries():
    a = exponents(SYS, SD, HIGH, Separation(0.7, -1.3), 0.05)
    b = exponents(SYS, SD, HIGH, Separation(-1.3, 0.7), 0.05)
    assert a.d1 == b.d1 and a.d2 == b.d2
    c = exponents(SYS, SD, HIGH, Separation(0.7, 1.3), 0.05)
    assert c.d1 == a.d1
    assert c.d2 == -a.d2


def test_hightemp_rate_formula():
    assert hightemp_rate(SYS, SEP) == 1e3
    assert hightemp_rate(SYS, Separation(0.0, 0.0)) == 0.0
    other = SystemParams(omega0=10.0, omega_c=10.0, omega_th=1e3)
    assert hightemp_rate(other, SEP) == hightemp_rate(SYS, SEP)
    with pytest.raises(DomainError):
        hightemp_rate(SystemParams(omega0=1.0, omega_c=0.0), SEP)


def test_hightemp_cumulative_rate_has_pi_factor():
    # long-time D1(t)/t approaches pi x the catalogued analytic law; the
    # factor is Si(inf) = pi/2 summed over the unit-sum mode weights and is
    # reported by the validation suite (criterion-2).
    ex = exponents(SYS, SD, HIGH, SEP, 0.4)
    rate = ex.d1.real / 0.4
    assert rate == pytest.approx(np.pi * hightemp_rate(SYS, SEP), rel=0.02)


def test_lowtemp_powerlaw_constants():
    sys = SystemParams(omega0=1e-3, omega_c=1e-3)
    exponent, c_const = lowtemp_powerlaw(sys, SD, SEP)
    assert exponent == 2.0
    assert np.log(c_const) == pytest.approx(2 * (0.5772156649 + np.log(1e3)), rel=1e-6)
    with pytest.raises(UnsupportedFormError):
        lowtemp_powerlaw(sys, SpectralDensity(1.0, Cutoff.EXPONENTIAL, 1e3), SEP)
    with pytest.raises(DomainError):
        lowtemp_powerlaw(SystemParams(omega0=5.0, omega_c=0.0), SpectralDensity(1.0, Cutoff.ABRUPT, 2.0), SEP)


def test_curve_gamma_zero_all_ones():
    sd0 = SpectralDensity(1.0, Cutoff.ABRUPT, 1e3, 0.0)
    cs = curve(SYS, sd0, HIGH, SEP, np.logspace(-5, -1, 30))
    assert np.all(cs.magnitude == 1.0)


def test_zero_coupling_builds_no_kernel(monkeypatch):
    def no_kernel(*args):
        raise AssertionError("a gamma = 0 curve needs no kernel")

    monkeypatch.setattr(decoherence, "_kernel_for", no_kernel)
    sd0 = SpectralDensity(1.0, Cutoff.EXPONENTIAL, 50.0, 0.0)
    cs = curve(SYS, sd0, ThermalRegime(RegimeKind.EXACT, 17.0), SEP, np.logspace(-5, -1, 30))
    assert np.all(cs.magnitude == 1.0) and np.all(cs.err_flag == 0)


def test_closed_pole_sum_overflow_is_flagged_without_warnings():
    # the pole-sum kernel grows as cosh(Lam tau): D leaves the exp() range
    # from row 135 on (err_flag 3 below it, 1 above it), and at the last row
    # cosh times the cot(Lam/Omega_th) prefactor overflows; every such point
    # is flagged and none emits a numpy warning
    sd = SpectralDensity(1.0, Cutoff.DRUDE_LORENTZ, 1933.8935)
    sys = SystemParams(omega0=15.6668, omega_c=6.1714, omega_th=53.4883)
    regime = ThermalRegime(RegimeKind.HIGH_TEMPERATURE, 53.4883)
    grid = np.logspace(np.log10(1e-3 / sd.lam), np.log10(700.0 / sd.lam), 200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cs = curve(sys, sd, regime, Separation(1.4177, 1.1896), grid, method="closed")
    want = np.append(np.arange(135, 187), 199)
    assert np.array_equal(np.nonzero(cs.err_flag == FLAG_ERROR)[0], want)
    assert np.all(cs.err_flag[187:199] == FLAG_CLAMPED)


def _same_series(a, b):
    for field in ("times", "magnitude", "phase", "lambda1", "lambda2", "err_flag", "est_error"):
        assert np.array_equal(getattr(a, field), getattr(b, field), equal_nan=True), field
    assert a.method == b.method


@pytest.mark.parametrize("large", [False, True], ids=["fallback", "overflow"])
def test_curves_is_curve_at_each_separation_from_one_moment_pass(monkeypatch, large):
    # "fallback": the closed window ends inside the grid (err_flag 2 rows);
    # "overflow": the pole-sum kernel leaves the exp() range (err_flag 1 and
    # 3 at the larger separations, only the last row at dx = dy = 0)
    if large:
        sd = SpectralDensity(1.0, Cutoff.DRUDE_LORENTZ, 1933.8935)
        grid = np.logspace(np.log10(1e-3 / sd.lam), np.log10(700.0 / sd.lam), 200)
    else:
        sd = SpectralDensity(1.0, Cutoff.DRUDE_LORENTZ, 1e3)
        grid = np.logspace(-5, 0, 40)  # crosses Lam t = 700
    seps = [Separation(1.4177, 1.1896), Separation(0.0, 0.0), Separation(0.01, -0.02), Separation(1.4177, 1.1896)]
    passes = []
    real = decoherence._exponent_arrays
    monkeypatch.setattr(decoherence, "_exponent_arrays", lambda *a: passes.append(a[-1]) or real(*a))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        many = curves(SYS, sd, HIGH, seps, grid, method="closed")
    assert passes == (["closed"] if large else ["quadrature", "closed"])
    assert len(many) == len(seps)
    for sep, one in zip(seps, many):
        _same_series(one, curve(SYS, sd, HIGH, sep, grid, method="closed"))
    # the flags differ between separations, so a shared flag array would show
    assert set(many[0].err_flag) >= {FLAG_CLAMPED, FLAG_ERROR}
    assert set(many[1].err_flag) == ({0, FLAG_ERROR} if large else {0, FLAG_FALLBACK})


@pytest.mark.parametrize("rkind", [RegimeKind.HIGH_TEMPERATURE, RegimeKind.LOW_TEMPERATURE])
def test_closed_pole_sum_curve_integrates_its_own_kernel(rkind):
    # the pole-sum kernel grows as cosh(Lam tau), so a sparse grid needs the
    # 1/Lam panel scale past Lam t = 30 too; sized for the modes alone the
    # panels missed this integral by 3.9e-3.  At this separation err_flag
    # is 3, so the lambda columns are compared
    sys = SystemParams(omega0=10.0, omega_c=1.0)
    sd = SpectralDensity(1.0, Cutoff.DRUDE_LORENTZ, 1000.0)
    regime = ThermalRegime(rkind, 37.0)
    grid = np.array([0.01, 0.1, 0.5])
    cs = curve(sys, sd, regime, Separation(1.0, 1.0), grid, method="closed")
    assert cs.method == ("closed",) * 3
    kernel = lambda u: bath.noise_kernel_closed_parts(sd, regime, u)
    for t, l1, l2 in zip(grid, cs.lambda1, cs.lambda2):
        ref = lambda_from_kernel(sys, kernel, t)
        assert abs(l1 - ref.lambda1) <= 1e-10 * abs(ref.lambda1), t
        assert abs(l2 - ref.lambda2) <= 1e-10 * abs(ref.lambda2), t


def test_curve_monotone_high_temperature():
    rng = np.random.default_rng(9)
    for _ in range(20):
        sys = SystemParams(
            omega0=rng.uniform(0.5, 12), omega_c=rng.uniform(0, 8), omega_th=rng.uniform(10, 500)
        )
        cutoff = [Cutoff.ABRUPT, Cutoff.DRUDE_LORENTZ, Cutoff.EXPONENTIAL][rng.integers(0, 3)]
        sd = SpectralDensity(1.0, cutoff, rng.uniform(50, 500), rng.uniform(0.5, 2))
        regime = ThermalRegime(RegimeKind.HIGH_TEMPERATURE, sys.omega_th)
        cs = curve(sys, sd, regime, SEP, np.logspace(-4, 0, 60))
        ok = cs.err_flag == 0
        assert np.all(np.diff(cs.magnitude[ok]) <= 1e-12)


def test_curve_starts_at_one_and_clamps():
    grid = np.logspace(-6, np.log10(0.7), 120)
    cs = curve(SYS, SD, HIGH, SEP, grid)
    assert cs.magnitude[0] == pytest.approx(1.0, abs=1e-3)
    assert np.all(cs.magnitude > 0)
    assert np.any(cs.err_flag == FLAG_CLAMPED)
    assert np.all(cs.magnitude[cs.err_flag == FLAG_CLAMPED] == decoherence.UNDERFLOW_CLAMP)


def test_default_grid_shape():
    g = default_grid(SD)
    assert len(g) == 200
    assert g[0] == pytest.approx(1e-6)
    assert g[-1] == pytest.approx(0.7)
    assert np.all(np.diff(g) > 0)


def test_curve_closed_method_matches_quadrature_for_exact_kernels():
    grid = np.logspace(-5, np.log10(0.5), 50)
    a = curve(SYS, SD, HIGH, SEP, grid, method="quadrature")
    b = curve(SYS, SD, HIGH, SEP, grid, method="closed")
    ok = a.magnitude > 1e-200
    assert np.allclose(a.magnitude[ok], b.magnitude[ok], rtol=1e-8)
    assert all(m == "closed" for m in b.method)


def test_curve_closed_method_falls_back_past_overflow_window():
    sd = SpectralDensity(1.0, Cutoff.DRUDE_LORENTZ, 1e3)
    grid = np.logspace(-5, 0, 40)  # crosses Lam t = 700
    cs = curve(SYS, sd, HIGH, SEP, grid, method="closed")
    assert np.any(cs.err_flag == FLAG_FALLBACK)
    fb = cs.err_flag == FLAG_FALLBACK
    assert all(np.asarray(cs.method)[fb] == "quadrature")


def test_curve_grid_validation():
    with pytest.raises(DomainError):
        curve(SYS, SD, HIGH, SEP, np.array([0.1, 0.1, 0.2]))
    with pytest.raises(DomainError):
        curve(SYS, SD, HIGH, SEP, np.array([-0.1, 0.2]))


def test_phase_zero_on_real_kernels():
    grid = np.logspace(-5, -2, 20)
    cs = curve(SYS, SD, HIGH, SEP, grid)
    assert np.max(np.abs(cs.phase)) < 1e-12


def test_curves_converge_at_large_cutoff():
    # on the time axis of the Lam = 1e3 figures, the three cutoff models at
    # Lam = 1e6 coincide to better than 2% absolute in both regimes (in the
    # quantum regime the decay itself lives on the 1/Lam scale, so the
    # comparison window starts above ~100/Lam)
    lam = 1e6
    grid = np.logspace(-4, np.log10(0.7), 50)
    for rkind, oth in ((RegimeKind.LOW_TEMPERATURE, 0.01), (RegimeKind.HIGH_TEMPERATURE, 1e3)):
        sys_params = SystemParams(omega0=10.0, omega_c=1.0, omega_th=oth)
        regime = ThermalRegime(rkind, oth)
        mags = np.array(
            [
                curve(sys_params, SpectralDensity(1.0, c, lam), regime, SEP, grid).magnitude
                for c in Cutoff
            ]
        )
        assert np.max(mags.max(axis=0) - mags.min(axis=0)) < 0.02


def test_exponent_error_estimate_small():
    grid = np.logspace(-5, -1, 30)
    cs = curve(SYS, SD, HIGH, SEP, grid)
    ok = cs.err_flag == 0
    assert np.all(cs.est_error[ok] <= 1e-6 * np.maximum(cs.magnitude[ok], 1e-12) + 1e-9)


EXACT_SYS = SystemParams(omega0=5.0, omega_c=2.0, omega_th=17.0)
EXACT_GRID = np.array([0.05, 0.5, 3.0, 10.0]) / 50.0


def _bose_lambda(sys, sd, oth, t):
    """Bose part of lambda1, lambda2 at t: the w integral by plain quad, the
    time integral of cos(w u) against F1 = M cos A'u + P cos B'u and
    F2 = G (sin B'u / B' - sin A'u / A') in closed form."""
    mc = mode_constants(sys)
    ap, bp = mc.a_prime, mc.b_prime
    sin_over = lambda x: t * np.sinc(x * t / np.pi)  # sin(x t) / x
    versin_over = lambda x: t * np.sin(0.5 * x * t) * np.sinc(0.5 * x * t / np.pi)  # (1 - cos x t) / x
    cos_cos = lambda w, a: 0.5 * (sin_over(w - a) + sin_over(w + a))
    cos_sin = lambda w, b: 0.5 * (versin_over(b + w) + versin_over(b - w))
    l1 = bose_integral(sd, oth, lambda w: mc.m_coef * cos_cos(w, ap) + mc.p_coef * cos_cos(w, bp))
    l2 = bose_integral(sd, oth, lambda w: mc.g_coef * (cos_sin(w, bp) / bp - cos_sin(w, ap) / ap))
    return l1 / sys.hbar, l2 / sys.hbar


@pytest.mark.parametrize("cutoff", list(Cutoff))
@pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
def test_exact_curve_lambdas_match_split_oracle(cutoff, s, request):
    if (s, cutoff) == (1.5, Cutoff.DRUDE_LORENTZ):
        # nu_low ~ tau^(-1/2): the time engine's innermost panel defect, the
        # same strict xfail as the low-temperature engine test
        request.applymarker(pytest.mark.xfail(strict=True, reason="inner-panel singularity"))
    sd = SpectralDensity(s, cutoff, 50.0, 1.3)
    cs = curve(EXACT_SYS, sd, ThermalRegime(RegimeKind.EXACT, 17.0), SEP, EXACT_GRID)
    assert cs.method == ("quadrature",) * len(EXACT_GRID)
    low = bath._reference_kernel_fn(sd, LOW)
    mc = mode_constants(EXACT_SYS)
    for t, l1, l2 in zip(EXACT_GRID, cs.lambda1, cs.lambda2):
        ref = lambda_from_kernel(EXACT_SYS, low, t)
        b1, b2 = _bose_lambda(EXACT_SYS, sd, 17.0, t)
        want1, want2 = ref.lambda1 + b1, ref.lambda2 + b2
        # F2 cancels to eps / ((A'^2 - B'^2) t^2) in both paths
        cancel = 1e3 * np.finfo(float).eps / ((mc.a_prime**2 - mc.b_prime**2) * t * t)
        assert abs(l1 - want1) <= 1e-8 * abs(want1)
        assert abs(l2 - want2) <= (1e-8 + cancel) * abs(want2)


@pytest.mark.parametrize("lam, oth", [(50.0, 17.0), (40.0, 90.0), (1200.0, 7.3)])
def test_exact_drude_curve_matches_pole_sum(lam, oth):
    # the residue sum shares no code with the curve's nu_low + Bose split
    sd = SpectralDensity(1.0, Cutoff.DRUDE_LORENTZ, lam, 1.3)
    grid = default_grid(sd)
    cs = curve(EXACT_SYS, sd, ThermalRegime(RegimeKind.EXACT, oth), SEP, grid)
    pole_sum = lambda u: bath.drude_exact_kernel(sd, oth, u)
    mc = mode_constants(EXACT_SYS)
    for row in np.linspace(0, grid.size - 1, 6).astype(int):
        t = grid[row]
        ref = lambda_from_kernel(EXACT_SYS, pole_sum, t)
        # 1e-10 is the relative accuracy lambda_from_kernel asks of QUADPACK;
        # F2 cancels to eps / ((A'^2 - B'^2) t^2) in both paths
        cancel = 1e3 * np.finfo(float).eps / ((mc.a_prime**2 - mc.b_prime**2) * t * t)
        assert abs(cs.lambda1[row] - ref.lambda1) <= 1e-10 * abs(ref.lambda1), t
        assert abs(cs.lambda2[row] - ref.lambda2) <= (1e-10 + cancel) * abs(ref.lambda2), t


def test_exact_kernel_path():
    exact = ThermalRegime(RegimeKind.EXACT, 17.0)
    taus = np.array([1e-6, 0.01, 0.3])
    sd = SpectralDensity(1.0, Cutoff.DRUDE_LORENTZ, 50.0, 1.3)
    kernel = decoherence._kernel_for(sd, exact, "quadrature")
    split = bath.noise_kernel_reference(sd, LOW, taus) + bath._bose_kernel_fn(sd, 17.0)(taus)
    assert np.array_equal(kernel(taus), split)
    # without a closed nu_low the exact kernel stays one quadrature per node
    sub = SpectralDensity(0.8, Cutoff.DRUDE_LORENTZ, 50.0, 1.3)
    kernel = decoherence._kernel_for(sub, exact, "quadrature")
    assert kernel(taus[:1])[0] == bath.noise_kernel_quadrature(sub, exact, taus[0])


@pytest.mark.parametrize("cutoff", list(Cutoff))
def test_exact_curve_emits_no_warnings(cutoff):
    exact = ThermalRegime(RegimeKind.EXACT, 17.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in (0.5, 1.0, 1.5):
            cs = curve(EXACT_SYS, SpectralDensity(s, cutoff, 50.0, 1.3), exact, SEP)
            assert np.all(cs.err_flag == 0) and np.all(np.isfinite(cs.est_error))
            assert np.all((cs.magnitude > 0) & (cs.magnitude <= 1.0))


@settings(max_examples=60, deadline=None)
@given(
    cutoff=st.sampled_from(list(Cutoff)),
    s=st.sampled_from([0.3, 0.5, 0.8, 1.0, 1.5, 2.5]),
    lam=st.floats(5.0, 500.0),
    oth_ratio=st.floats(0.02, 1.0),
    gamma=st.floats(0.05, 3.0),
    x=st.floats(1e-6, 0.5),
)
def test_exact_regime_properties(cutoff, s, lam, oth_ratio, gamma, x):
    sd = SpectralDensity(s, cutoff, lam, gamma)
    oth = oth_ratio * lam
    high = bath._reference_kernel_fn(sd, ThermalRegime(RegimeKind.HIGH_TEMPERATURE, oth))
    # Drude-Lorentz catalogues both transforms for s in {1/2, 1, 3/2} only
    assume(high is not None and bath._reference_kernel_fn(sd, LOW) is not None)
    exact = ThermalRegime(RegimeKind.EXACT, oth)
    kernel = decoherence._kernel_for(sd, exact, "quadrature")
    tau = x / lam
    low = bath.noise_kernel_reference(sd, LOW, tau)
    # 1 < coth(w/Omega_th) < 1 + Omega_th/w, and with Omega_th <= Lam and
    # Lam tau <= 1/2, cos(w tau) stays near 1 where the two bounds differ.
    # (Not for Omega_th >> Lam: Drude-Lorentz s = 3/2, Lam = 5, Omega_th = 35
    # and Lam tau = 1/2 give nu_low = -7.0, nu_exact = 233.19 > low + high.)
    assert low < kernel(tau) < low + high(tau)
    sys = SystemParams(omega0=5.0, omega_c=2.0, omega_th=oth)
    grid = np.array([0.1, 1.0, 4.0]) / lam
    one = curve(sys, sd, exact, SEP, grid)
    three = curve(sys, SpectralDensity(s, cutoff, lam, 3.0 * gamma), exact, SEP, grid)
    # lambda1 can cross zero on the grid, so the scale is its largest value
    for got, base in ((three.lambda1, one.lambda1), (three.lambda2, one.lambda2)):
        assert np.max(np.abs(got - 3.0 * base)) <= 1e-13 * np.max(np.abs(3.0 * base))


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: Separation(float("nan"), 1.0), "finite"),
        (lambda: Separation(1.0, float("inf")), "finite"),
        (lambda: exponents(SYS, SD, HIGH, SEP, -1e-3), "t must be"),
        (lambda: density_ratio(SYS, SD, HIGH, SEP, -1e-3), "start at >= 0"),
        (lambda: curve(SYS, SD, HIGH, SEP, np.array([0.01, 0.1]), "closd"), "method must be"),
        (lambda: curves(SYS, SD, HIGH, [SEP], np.array([np.nan, 1.0])), "finite"),
        (lambda: curves(SYS, SD, HIGH, [SEP], np.array([0.1, np.inf])), "finite"),
        (lambda: exponents(SYS, SD, HIGH, SEP, np.nan), "finite"),
        (lambda: exponents(SYS, SD, HIGH, SEP, np.inf), "finite"),
        (lambda: exponents(SYS, SD, HIGH, SEP, -np.inf), "t must be >= 0"),
        # no kernel is needed here, but the time is still checked
        (lambda: exponents(SYS, SD0, HIGH, Separation(0.0, 0.0), np.nan), "finite"),
        (lambda: frequency_shift(SYS, SD, np.nan), "finite"),
        (lambda: frequency_shift(SYS, SD, np.inf), "finite"),
        (lambda: frequency_shift(SYS, SD, -np.inf), "t_max must be"),
        (lambda: curve(SYS, SD, HIGH, SEP, np.array([0.1, np.nan]), "closed"), "finite"),
    ],
)
def test_decoherence_rejects_out_of_domain_input(call, match):
    with pytest.raises(DomainError, match=match):
        call()


def test_density_ratio_reads_curve():
    # one grid point of curve(), clamped and flagged the same way
    for t in (1e-4, 0.05, 0.4):
        cs = curve(SYS, SD, HIGH, SEP, np.array([t]))
        assert density_ratio(SYS, SD, HIGH, SEP, t) == (cs.magnitude[0], cs.phase[0])
    far = Separation(1e4, 1e4)
    cs = curve(SYS, SD, HIGH, far, np.array([0.4]))
    assert cs.err_flag[0] == FLAG_CLAMPED
    assert density_ratio(SYS, SD, HIGH, far, 0.4) == (1e-300, cs.phase[0])
