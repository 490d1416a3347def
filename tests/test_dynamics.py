import dataclasses
import warnings

import numpy as np
import pytest
from scipy import integrate

from qbmag import bath, coefficients, decoherence, dynamics
from qbmag.bath import Cutoff, RegimeKind, SpectralDensity, ThermalRegime
from qbmag.coefficients import lambda_from_kernel
from qbmag.decoherence import frequency_shift
from qbmag.dynamics import (
    KernelPlan,
    SystemParams,
    f_weight,
    heisenberg_transfer,
    mode_constants,
    time_moments,
)
from qbmag.errors import DegenerateSystemError, DomainError, QbmagError


def test_modes_no_field():
    mc = mode_constants(SystemParams(omega0=1.0, omega_c=0.0))
    assert mc.a_prime == pytest.approx(1.0)
    assert mc.b_prime == pytest.approx(1.0)
    assert mc.m_coef == pytest.approx(0.5)
    assert mc.p_coef == pytest.approx(0.5)
    assert mc.g_coef == pytest.approx(1.0 / np.sqrt(2.0))


def test_modes_identities_random():
    rng = np.random.default_rng(5)
    for _ in range(40):
        sys = SystemParams(omega0=rng.uniform(0.1, 25), omega_c=rng.uniform(0, 25))
        mc = mode_constants(sys)
        assert mc.a_prime >= mc.b_prime >= 0
        assert mc.m_coef + mc.p_coef == pytest.approx(1.0, abs=1e-15)
        assert mc.a_prime**2 + mc.b_prime**2 == pytest.approx(
            2 * sys.omega0**2 + sys.omega_c**2, rel=1e-12
        )
        assert (mc.a_prime * mc.b_prime) ** 2 == pytest.approx(sys.omega0**4, rel=1e-12)


def test_degenerate_system():
    with pytest.raises(DegenerateSystemError):
        SystemParams(omega0=0.0, omega_c=0.0)


def test_f_weights_at_zero():
    sys = SystemParams(omega0=10.0, omega_c=1.0)
    assert f_weight(sys, 0.0, "F1") == pytest.approx(1.0)
    assert f_weight(sys, 0.0, "F2") == 0.0


def test_f1_complex_arithmetic_oracle():
    # re-evaluate the raw cosh expression with A = iA', B = iB'
    sys = SystemParams(omega0=10.0, omega_c=1.0)
    mc = mode_constants(sys)
    tau = 0.1
    root = np.sqrt(4 * sys.omega0**2 + sys.omega_c**2)
    a, b = 1j * mc.a_prime, 1j * mc.b_prime
    raw = (
        (-sys.omega_c + root) * np.cosh(a * tau) + (sys.omega_c + root) * np.cosh(b * tau)
    ) / (2 * root)
    assert abs(raw.imag) < 1e-15
    assert f_weight(sys, tau, "F1") == pytest.approx(raw.real, rel=1e-14)


def test_f1_bounded():
    rng = np.random.default_rng(3)
    for _ in range(30):
        sys = SystemParams(omega0=rng.uniform(0.1, 20), omega_c=rng.uniform(0, 20))
        taus = rng.uniform(0, 20, 40)
        assert np.all(np.abs(f_weight(sys, taus, "F1")) <= 1 + 1e-12)


def test_f2_vanishes_with_field():
    sys = SystemParams(omega0=3.0, omega_c=1e-8)
    taus = np.linspace(0, 5, 50)
    assert np.max(np.abs(f_weight(sys, taus, "F2"))) < 1e-6


def test_transfer_identity_at_zero():
    sys = SystemParams(omega0=10.0, omega_c=1.0)
    assert np.allclose(heisenberg_transfer(sys, 0.0), np.eye(4), atol=1e-14)


def _eom_residual(sys, tau):
    h = 8e-4 / max(1.0, np.hypot(sys.omega0, sys.omega_c))
    tm, t0, tp = (heisenberg_transfer(sys, tau + d) for d in (-h, 0.0, h))
    acc = (tp - 2 * t0 + tm) / h**2
    vel = (tp - tm) / (2 * h)
    rx = acc[0] + sys.omega0**2 * t0[0] - sys.omega_c * vel[1]
    ry = acc[1] + sys.omega0**2 * t0[1] + sys.omega_c * vel[0]
    scale = max(np.max(np.abs(acc)), 1.0)
    return max(np.max(np.abs(rx)), np.max(np.abs(ry))) / scale


def test_transfer_solves_equations_of_motion():
    rng = np.random.default_rng(17)
    for _ in range(50):
        sys = SystemParams(omega0=rng.uniform(0.2, 15), omega_c=rng.uniform(0, 15))
        assert _eom_residual(sys, rng.uniform(0.05, 2.0)) < 1e-6


def test_transfer_x_row_matches_f1():
    rng = np.random.default_rng(23)
    for _ in range(20):
        sys = SystemParams(omega0=rng.uniform(0.5, 15), omega_c=rng.uniform(0, 10))
        tau = rng.uniform(0, 3)
        T = heisenberg_transfer(sys, tau)
        assert T[0, 0] == pytest.approx(f_weight(sys, tau, "F1"), rel=1e-12, abs=1e-14)
        # Y-coefficient carries the cross weight up to the -1/sqrt(2) prefactor
        assert T[0, 1] == pytest.approx(-f_weight(sys, tau, "F2") / np.sqrt(2), rel=1e-12, abs=1e-14)


def test_frequency_shift_zero_coupling():
    sys = SystemParams(omega0=1.0, omega_c=0.0)
    sd = SpectralDensity(1.0, Cutoff.EXPONENTIAL, 10.0, 0.0)
    assert frequency_shift(sys, sd, 5.0) == 0.0


def test_frequency_shift_converged_and_negative():
    sys = SystemParams(omega0=1.0, omega_c=0.0)
    sd = SpectralDensity(1.0, Cutoff.EXPONENTIAL, 10.0, 0.05)
    v1 = frequency_shift(sys, sd, 40.0)
    v2, tail = frequency_shift(sys, sd, 80.0, with_tail_estimate=True)
    assert v1 == pytest.approx(v2, rel=0.01)
    assert v2 < 0  # softening at weak coupling
    assert tail >= 0


def test_frequency_shift_domain():
    sys = SystemParams(omega0=1.0, omega_c=0.0)
    sd = SpectralDensity(1.0, Cutoff.EXPONENTIAL, 10.0)
    with pytest.raises(DomainError):
        frequency_shift(sys, sd, 0.0)


@pytest.mark.parametrize("which", ["F9", "F3", "F4"])
def test_f_weight_rejects_unknown_names(which):
    # the master equation drops the momentum terms, so only F1, F2 exist
    sys = SystemParams(omega0=2.0, omega_c=1.0)
    with pytest.raises(ValueError, match="F1' or 'F2"):
        f_weight(sys, 0.1, which)


def test_f2_zero_without_trap():
    # omega0 = 0 gives B' = 0 and G = 0
    sys = SystemParams(omega0=0.0, omega_c=2.0)
    assert np.all(f_weight(sys, np.linspace(0.0, 3.0, 7), "F2") == 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_system_parameters_rejected(bad):
    base = dict(omega0=1.0, omega_c=0.5, m=1.0, hbar=1.0, omega_th=2.0)
    for field in base:
        with pytest.raises(DomainError):
            SystemParams(**dict(base, **{field: bad}))


ENGINE_SYS = SystemParams(omega0=7.0, omega_c=2.0)


@pytest.mark.parametrize("rkind", [RegimeKind.HIGH_TEMPERATURE, RegimeKind.LOW_TEMPERATURE])
@pytest.mark.parametrize("cutoff", list(Cutoff))
@pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
def test_time_moments_match_same_kernel_quadrature(s, cutoff, rkind, request):
    if (s, cutoff, rkind) == (1.5, Cutoff.DRUDE_LORENTZ, RegimeKind.LOW_TEMPERATURE):
        # nu ~ tau^(-1/2) here; one Gauss panel on [0, grid[0] 2^-42] misses
        # ~2.6% of that singular part, 2e-8 to 3e-7 of lambda1 on this grid
        request.applymarker(pytest.mark.xfail(strict=True, reason="inner-panel singularity"))
    sd = SpectralDensity(s, cutoff, 60.0, 1.3)
    regime = ThermalRegime(rkind, 11.0)
    kernel = decoherence._kernel_for(sd, regime, "quadrature").kernel
    ts = np.array([0.3, 4.0, 11.0]) / sd.lam
    # the abrupt kernel oscillates at Lam at every tau; the others settle past 30/Lam
    until = np.inf if cutoff is Cutoff.ABRUPT else 30.0 / sd.lam
    (mom,) = time_moments(ENGINE_SYS, [KernelPlan(kernel, sd.lam, until, 0.0)], ts)
    mc = mode_constants(ENGINE_SYS)
    for t, (l1, l2) in zip(ts, mom.c0 / ENGINE_SYS.hbar):
        ref = lambda_from_kernel(ENGINE_SYS, kernel, t)
        # F2 cancels to eps / ((A'^2 - B'^2) t^2) in both paths
        cancel = 1e3 * np.finfo(float).eps / ((mc.a_prime**2 - mc.b_prime**2) * t * t)
        assert abs(l1 - ref.lambda1) <= 1e-8 * abs(ref.lambda1)
        assert abs(l2 - ref.lambda2) <= (1e-8 + cancel) * abs(ref.lambda2)


def test_time_moments_estimate_bounds_error():
    # kernel e^{-k u} cos(L u) against F1 = M cos A'u + P cos B'u has the
    # closed integral sum_z Re[(e^{z t} - 1) / z] / 2, z = -k + i(L -+ freq)
    sys = SystemParams(omega0=3.0, omega_c=1.5)
    mc = mode_constants(sys)
    kap, lam = 40.0, 250.0
    kernel = lambda u: np.exp(-kap * u) * np.cos(lam * u)
    grid = np.logspace(-4, 0, 25)
    (mom,) = time_moments(sys, [KernelPlan(kernel, lam, np.inf, 0.0)], grid)

    def exact(t):
        total = 0.0
        for weight, freq in ((mc.m_coef, mc.a_prime), (mc.p_coef, mc.b_prime)):
            for z in (complex(-kap, lam - freq), complex(-kap, lam + freq)):
                total += 0.5 * weight * ((np.exp(z * t) - 1.0) / z).real
        return total

    err = np.abs(mom.c0[:, 0] - np.array([exact(t) for t in grid]))
    assert np.all(err <= np.abs(mom.d0[:, 0]) + 1e-13 * np.abs(mom.c0[:, 0]))
    # the estimate is informative: the 8-node sub-rule differs visibly
    assert np.max(np.abs(mom.d0[:, 0])) > 1e-10 * np.max(np.abs(mom.c0[:, 0]))


def test_frequency_shift_matches_high_precision_value():
    # -(2/m) int_0^40 eta F1 with eta = 2 gamma Lam^3 tau / (1 + Lam^2 tau^2)^2
    # and F1 = cos(tau), by 30-digit mpmath quadrature
    sys = SystemParams(omega0=1.0, omega_c=0.0)
    sd = SpectralDensity(1.0, Cutoff.EXPONENTIAL, 10.0, 0.05)
    assert frequency_shift(sys, sd, 40.0) == pytest.approx(-0.97268720716282673673, rel=1e-13)


def test_frequency_shift_without_closed_eta():
    # Drude-Lorentz s = 0.7, off the integer exponents: the closed eta of
    # the shift against the defining quadrature, node by node
    sys = SystemParams(omega0=2.0, omega_c=0.5)
    sd = SpectralDensity(0.7, Cutoff.DRUDE_LORENTZ, 8.0, 0.1)
    t_max = 0.3
    got = frequency_shift(sys, sd, t_max)
    fn = lambda u: bath.dissipation_kernel_quadrature(sd, u) * f_weight(sys, u, "F1")
    want = -2.0 / sys.m * integrate.quad(fn, 0.0, t_max, epsrel=1e-10)[0]
    assert got == pytest.approx(want, rel=1e-7)


def _counting(kernel, sizes):
    """The kernel, recording the number of tau of every call in ``sizes``."""

    def fn(taus):
        sizes.append(np.size(taus))
        return kernel(taus)

    return fn


def test_time_moments_report_nodes_and_panels():
    sd = SpectralDensity(1.0, Cutoff.EXPONENTIAL, 60.0, 1.3)
    regime = ThermalRegime(RegimeKind.HIGH_TEMPERATURE, 11.0)
    sizes = []
    plan = decoherence._kernel_for(sd, regime, "quadrature")
    plan = dataclasses.replace(plan, kernel=_counting(plan.kernel, sizes))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (mom,) = time_moments(ENGINE_SYS, [plan], np.logspace(-4, 0, 50))
    assert mom.panels > 0
    assert mom.nodes == 16 * mom.panels == sum(sizes)


@pytest.mark.parametrize("block", [None, 1024])
def test_curve_calls_its_kernel_once_per_block(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(dynamics, "_NODE_BLOCK", block)
    sizes = []
    kernel_for = decoherence._kernel_for

    def counted(*args):
        plan = kernel_for(*args)
        return dataclasses.replace(plan, kernel=_counting(plan.kernel, sizes))

    monkeypatch.setattr(decoherence, "_kernel_for", counted)
    sd = SpectralDensity(1.0, Cutoff.ABRUPT, 1e3)
    sys = SystemParams(omega0=10.0, omega_c=1.0, omega_th=1e3)
    regime = ThermalRegime(RegimeKind.HIGH_TEMPERATURE, 1e3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        decoherence.curve(sys, sd, regime, decoherence.Separation(1.0, 1.0))
    assert len(sizes) == -(-sum(sizes) // dynamics._NODE_BLOCK)
    assert max(sizes) <= dynamics._NODE_BLOCK
    assert len(sizes) < 200


@pytest.mark.parametrize("rkind", list(RegimeKind))
@pytest.mark.parametrize("cutoff", list(Cutoff))
def test_time_moments_do_not_depend_on_the_block(monkeypatch, cutoff, rkind):
    sd = SpectralDensity(1.0, cutoff, 200.0, 1.3)
    regime = ThermalRegime(rkind, 17.0)
    # the plan of a curve: the abrupt kernels' Filon panels past Lam t = 36
    args = (ENGINE_SYS, [decoherence._kernel_for(sd, regime, "quadrature")], decoherence.default_grid(sd))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (ref,) = time_moments(*args)
        monkeypatch.setattr(dynamics, "_NODE_BLOCK", 16)
        (got,) = time_moments(*args)
    assert (got.nodes, got.panels) == (ref.nodes, ref.panels)
    # every panel is reduced on its own and the running sum adds the panels
    # in order, so a block boundary changes no bit
    for name in ("c0", "c1", "d0", "d1"):
        assert getattr(got, name).tobytes() == getattr(ref, name).tobytes(), name


def _plans_by_layout(lam, omega_th, t_max):
    """{layout: [(label, plan)]} over every cutoff x regime x method at
    three s and two couplings, plus eta, as ``_kernel_for`` builds them;
    method='closed' where the catalogued kernels hold up to t_max."""
    regimes = [ThermalRegime(kind, omega_th) for kind in RegimeKind]
    groups = {}
    for cutoff in Cutoff:
        for s in (0.5, 1.0, 1.5):
            for gamma in (1.3, 0.2):
                sd = SpectralDensity(s, cutoff, lam, gamma)
                cases = [(regime, method, "cos") for regime in regimes for method in decoherence.METHODS]
                for regime, method, kind in cases + [(bath._LOW, "quadrature", "sin")]:
                    if method == "closed" and bath.closed_kernel_error(sd, regime, t_max) is not None:
                        continue
                    try:
                        plan = decoherence._kernel_for(sd, regime, method, kind)
                    except DomainError:  # Drude-Lorentz kernels not integrable at tau = 0
                        continue
                    label = (cutoff.value, s, gamma, regime.kind.value, method, kind)
                    groups.setdefault(plan.layout, []).append((label, plan))
    return groups


def test_time_moments_of_plans_that_share_a_layout_are_their_own(monkeypatch):
    # a pass of several plans returns each plan's single-plan moments bit
    # for bit, however the blocks cut the panels; the grid runs past
    # Lam t = 36 (the abrupt kernels' Filon tail) and 30 (settled kernels)
    grid = np.concatenate([np.logspace(-5, -2, 12), [0.05, 0.1, 0.2, 0.35]])
    groups = _plans_by_layout(200.0, 17.0, grid[-1])
    # abrupt: the split kernels and the exact regime's; exp: one layout;
    # Drude-Lorentz: the settled kernels and the pole sums
    shared = [[label for label, _ in members] for members in groups.values() if len(members) > 1]
    assert sorted(labels[0][0] for labels in shared) == ["abrupt", "abrupt", "drude", "drude", "exp"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alone = {label: time_moments(ENGINE_SYS, [plan], grid)[0] for members in groups.values() for label, plan in members}
        monkeypatch.setattr(dynamics, "_NODE_BLOCK", 48)  # three panels a block
        for members in groups.values():
            shared = time_moments(ENGINE_SYS, [plan for _, plan in members], grid)
            assert len(shared) == len(members)
            for (label, _), got in zip(members, shared):
                want = alone[label]
                assert (got.nodes, got.panels) == (want.nodes, want.panels), label
                for name in ("c0", "c1", "d0", "d1"):
                    assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (label, name)


def test_time_moments_reject_plans_of_two_layouts():
    sd = SpectralDensity(1.0, Cutoff.ABRUPT, 200.0)
    plan = decoherence._kernel_for(sd, ThermalRegime(RegimeKind.HIGH_TEMPERATURE, 17.0), "quadrature")
    grid = np.logspace(-4, -1, 5)
    others = [
        dataclasses.replace(plan, lam=300.0),
        dataclasses.replace(plan, until=np.inf),
        dataclasses.replace(plan, floor=0.0),
        dataclasses.replace(plan, parts=None),
    ]
    for other in others:
        assert other.layout != plan.layout
        with pytest.raises(ValueError, match="share their layout"):
            time_moments(ENGINE_SYS, [plan, other], grid)
    # a different kernel alone does not change the layout
    same = dataclasses.replace(plan, kernel=lambda u: 2.0 * plan.kernel(u))
    twice, once = time_moments(ENGINE_SYS, [same, plan], grid)
    assert np.array_equal(twice.c0, 2.0 * once.c0)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(m=0.0), "m and hbar"),
        (dict(m=-1.0), "m and hbar"),
        (dict(hbar=0.0), "m and hbar"),
        (dict(omega0=-1.0), "omega0 and omega_c"),
        (dict(omega_c=-0.5), "omega0 and omega_c"),
    ],
)
def test_system_params_reject_out_of_domain(kwargs, match):
    with pytest.raises(DomainError, match=match):
        SystemParams(**dict(dict(omega0=10.0, omega_c=1.0), **kwargs))


def _float64_mode_constants(sys):
    """``mode_constants`` in numpy float64, as np.sqrt gives them: x / 0
    is inf or nan there, where a Python float raises ZeroDivisionError."""
    root = np.sqrt(np.float64(4.0 * sys.omega0**2 + sys.omega_c**2))
    return dynamics.ModeConstants(
        0.5 * (root + sys.omega_c),
        0.5 * (root - sys.omega_c),
        (root - sys.omega_c) / (2.0 * root),
        (root + sys.omega_c) / (2.0 * root),
        np.sqrt(2.0) * sys.omega0**2 / root,
    )


def _degenerate_outputs(sys):
    """mode_constants, F1 and F2, curves and both variants of lambda_closed
    at one system, every value as bytes and every error as its type."""
    out = [np.array(dataclasses.astuple(mode_constants(sys))).tobytes()]
    taus = np.array([0.0, 1e-3, 0.4, 7.0])
    out += [np.asarray(f_weight(sys, taus, which)).tobytes() for which in ("F1", "F2")]
    out.append(repr(f_weight(sys, 0.3, "F2")))
    grid = np.logspace(-4, -0.5, 12)
    for cutoff in Cutoff:
        sd = SpectralDensity(1.0, cutoff, 50.0, 1.3)
        for rkind in (RegimeKind.HIGH_TEMPERATURE, RegimeKind.LOW_TEMPERATURE):
            regime = ThermalRegime(rkind, 7.0)
            for method in decoherence.METHODS:
                cs = decoherence.curve(sys, sd, regime, decoherence.Separation(1.0, 0.5), grid, method)
                out += [a.tobytes() for a in (cs.magnitude, cs.phase, cs.lambda1, cs.lambda2, cs.err_flag)]
            for t in (1e-3, 0.05, 0.3):
                for variant in ("validated", "printed"):
                    try:
                        pair = coefficients.lambda_closed(sys, sd, regime, t, variant)
                        out.append(repr((pair.lambda1, pair.lambda2)))
                    except (QbmagError, ArithmeticError) as err:  # ZeroDivisionError included
                        out.append(type(err).__name__)
    return out


@pytest.mark.parametrize("omega0, omega_c", [(0.0, 3.0), (4.0, 0.0)])
def test_degenerate_modes_give_the_float64_values(monkeypatch, omega0, omega_c):
    # omega0 = 0 (B' = 0, G = 0) and omega_c = 0 (A' = B'): the mode
    # constants as Python floats give every value, and every error, that
    # they give in numpy float64, and no ZeroDivisionError
    sys = SystemParams(omega0=omega0, omega_c=omega_c)
    mc = mode_constants(sys)
    assert dataclasses.astuple(mc) == dataclasses.astuple(_float64_mode_constants(sys))
    assert all(type(v) is float for v in dataclasses.astuple(mc))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got = _degenerate_outputs(sys)
        for module in (dynamics, coefficients):
            monkeypatch.setattr(module, "mode_constants", _float64_mode_constants)
        want = _degenerate_outputs(sys)
    assert "ZeroDivisionError" not in got
    assert got == want
