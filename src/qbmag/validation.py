"""Validation suite: module oracles plus the eight acceptance criteria.

Each check compares an implementation path against an independent oracle
(quadrature of a defining integral, a brute-force series, an algebraic
identity, or a fitted asymptotic law) and returns a CheckResult.  The CLI
``validate`` subcommand serialises the resulting report; the acceptance test
module asserts on the same results.

Two checks are expected to deviate and are reported rather than patched:

* ``criterion-2``: the fitted high-temperature decay rate is pi times the
  catalogued analytic law gamma Omega_th (dx^2+dy^2)/(2 hbar).  The factor
  traces to Si(inf) = pi/2 summed over the M and P mode weights; the
  quadrature value is authoritative, so the check reports status "fail"
  with the measured ratio.
* ``criterion-5``: the transcribed ("printed") coefficient displays deviate
  from the defining integrals in the catalogued ways (see
  ``coefficients.FINDINGS``); the validated forms agree to 1e-4, so the
  criterion passes with findings attached.
"""

import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import bath, coefficients, decoherence, dynamics, specfun
from .bath import Cutoff, RegimeKind, SpectralDensity, ThermalRegime
from .decoherence import Separation
from .dynamics import SystemParams
_SEED = 20260809

ACCEPTANCE_NAMES = tuple("criterion-%d" % i for i in range(1, 9))


@dataclass
class CheckResult:
    name: str
    status: str  # "pass" | "fail"
    measured: dict
    tolerance: str
    oracle: str


@dataclass
class ValidationReport:
    level: str
    checks: list = field(default_factory=list)

    @property
    def passed(self):
        return all(c.status == "pass" for c in self.checks)

    def to_json(self):
        return json.dumps(
            {"level": self.level, "checks": [asdict(c) for c in self.checks]},
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        rep = cls(level=data["level"])
        rep.checks = [CheckResult(**c) for c in data["checks"]]
        return rep

    def acceptance_complete(self):
        names = [c.name for c in self.checks if c.name in ACCEPTANCE_NAMES]
        return sorted(names) == sorted(ACCEPTANCE_NAMES)


def _result(name, ok, measured, tolerance, oracle):
    return CheckResult(name, "pass" if ok else "fail", measured, tolerance, oracle)


def _relerr(a, b, floor=1e-10):
    return abs(a - b) / max(abs(b), floor)


# --------------------------------------------------------------------------
# fast module checks
# --------------------------------------------------------------------------

#: (z, Si(z), Ci(z)) from 30-digit mpmath, frozen, at |z| > 20: near the
#: real axis, and off it for Re z > 0 and Re z < 0
_SICI_FROZEN = (
    (
        30.5 - 4.2j,
        0.82302871602800443 + 0.78759434879717017j,
        -0.7880223972403669 - 0.74754127021911967j,
    ),
    (
        24.04 - 6.86j,
        -11.062292172558289 + 14.505374464905782j,
        -14.505415339253057 - 12.633081775831479j,
    ),
    (
        -25.37 + 5.13j,
        1.4553029290467885 + 1.2731879963490906j,
        1.27318820438769 + 0.11571980762569933j,
    ),
    (
        352.7 - 5.33j,
        1.3785198000816086 - 0.22059297206378401j,
        0.2206030464923995 - 0.19226719548895511j,
    ),
)


def check_specfun_sici():
    worst = 0.0
    worst = max(worst, _relerr(specfun.sin_integral(1.0).real, 0.946083070367183))
    worst = max(worst, _relerr(specfun.cos_integral(1.0).real, 0.3374039229009681))
    for z, si, ci in _SICI_FROZEN:
        worst = max(worst, _relerr(specfun.sin_integral(z), si, 1.0))
        worst = max(worst, _relerr(specfun.cos_integral(z), ci, 1.0))
    rng = np.random.default_rng(_SEED)
    for _ in range(60):
        z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        if abs(z) < 1e-3:
            continue
        worst = max(worst, abs(specfun.sin_integral(-z) + specfun.sin_integral(z)))
        worst = max(
            worst,
            abs(
                specfun.sin_integral(z.conjugate())
                - specfun.sin_integral(z).conjugate()
            ),
        )
    asym = abs(specfun.sin_integral(1e4).real - np.pi / 2)
    return _result(
        "specfun-si-ci",
        worst < 1e-10 and asym < 1e-3,
        {"worst": worst, "si_large_arg_gap": asym},
        "1e-10 (series oracle), 1e-3 (asymptote)",
        "frozen series values at z = 1; frozen 30-digit mpmath values at "
        "|z| > 20; oddness and Schwarz reflection",
    )


def check_dynamics_modes():
    rng = np.random.default_rng(_SEED + 1)
    worst = 0.0
    for _ in range(40):
        sys = SystemParams(omega0=rng.uniform(0.1, 30), omega_c=rng.uniform(0, 30))
        mc = dynamics.mode_constants(sys)
        worst = max(worst, abs(mc.m_coef + mc.p_coef - 1.0))
        worst = max(
            worst,
            _relerr(mc.a_prime**2 + mc.b_prime**2, 2 * sys.omega0**2 + sys.omega_c**2),
        )
        worst = max(worst, _relerr((mc.a_prime * mc.b_prime) ** 2, sys.omega0**4))
    return _result(
        "dynamics-mode-identities",
        worst < 1e-12,
        {"worst": worst},
        "1e-12",
        "Vieta identities of the mode quartic",
    )


def _eom_residual(sys, tau):
    # step balancing second-difference roundoff against truncation
    h = 8e-4 / max(1.0, np.hypot(sys.omega0, sys.omega_c))
    tm = dynamics.heisenberg_transfer(sys, tau - h)
    t0 = dynamics.heisenberg_transfer(sys, tau)
    tp = dynamics.heisenberg_transfer(sys, tau + h)
    acc = (tp - 2 * t0 + tm) / h**2
    vel = (tp - tm) / (2 * h)
    rx = acc[0] + sys.omega0**2 * t0[0] - sys.omega_c * vel[1]
    ry = acc[1] + sys.omega0**2 * t0[1] + sys.omega_c * vel[0]
    scale = max(
        np.max(np.abs(acc)),
        sys.omega0**2 * np.max(np.abs(t0)),
        sys.omega_c * np.max(np.abs(vel)),
        1.0,
    )
    return max(np.max(np.abs(rx)), np.max(np.abs(ry))) / scale


def check_criterion_8():
    """Structural invariants: M+P, F-weights at 0, T(0), EOM residual,
    magnitude(0), separation symmetries, gamma linearity."""
    rng = np.random.default_rng(_SEED + 2)
    measured = {}
    ok = True
    worst_mp = worst_f = worst_t0 = worst_eom = 0.0
    for _ in range(50):
        sys = SystemParams(omega0=rng.uniform(0.2, 15), omega_c=rng.uniform(0, 15))
        mc = dynamics.mode_constants(sys)
        worst_mp = max(worst_mp, abs(mc.m_coef + mc.p_coef - 1.0))
        worst_f = max(worst_f, abs(dynamics.f_weight(sys, 0.0, "F1") - 1.0))
        worst_f = max(worst_f, abs(dynamics.f_weight(sys, 0.0, "F2")))
        worst_t0 = max(
            worst_t0, np.max(np.abs(dynamics.heisenberg_transfer(sys, 0.0) - np.eye(4)))
        )
        worst_eom = max(worst_eom, _eom_residual(sys, rng.uniform(0.05, 2.0)))
    measured.update(
        m_plus_p=worst_mp, f_at_zero=worst_f, t0_identity=worst_t0, eom_residual=worst_eom
    )
    ok &= worst_mp < 1e-12 and worst_f < 1e-12 and worst_t0 < 1e-12 and worst_eom < 1e-6

    sys = SystemParams(omega0=10.0, omega_c=1.0)
    sd = SpectralDensity(1.0, Cutoff.ABRUPT, 1e3, 1.0)
    hi = ThermalRegime(RegimeKind.HIGH_TEMPERATURE, 1e3)
    mag0, ph0 = decoherence.density_ratio(sys, sd, hi, Separation(1.0, 1.0), 0.0)
    measured["magnitude_at_zero"] = abs(mag0 - 1.0) + abs(ph0)
    ok &= measured["magnitude_at_zero"] == 0.0

    exch_a = decoherence.exponents(sys, sd, hi, Separation(0.7, -1.3), 0.05)
    exch_b = decoherence.exponents(sys, sd, hi, Separation(-1.3, 0.7), 0.05)
    flip = decoherence.exponents(sys, sd, hi, Separation(0.7, 1.3), 0.05)
    measured["exchange_symmetry"] = max(
        abs(exch_a.d1 - exch_b.d1), abs(exch_a.d2 - exch_b.d2)
    )
    measured["sign_flip"] = max(abs(flip.d1 - exch_a.d1), abs(flip.d2 + exch_a.d2))
    ok &= measured["exchange_symmetry"] < 1e-14 * abs(exch_a.d1)
    ok &= measured["sign_flip"] < 1e-14 * max(abs(flip.d1), abs(flip.d2))

    sd2 = SpectralDensity(1.0, Cutoff.ABRUPT, 1e3, 2.0)
    l1 = coefficients.lambda_closed(sys, sd, hi, 0.07).lambda1
    l2 = coefficients.lambda_closed(sys, sd2, hi, 0.07).lambda1
    measured["gamma_linearity"] = _relerr(l2, 2 * l1)
    ok &= measured["gamma_linearity"] < 1e-13
    return _result(
        "criterion-8",
        ok,
        measured,
        "identities 1e-12, EOM 1e-6 relative, symmetries machine precision",
        "algebraic identities; central finite differences of T columns",
    )


def check_criterion_1():
    lam = 1e6
    omega = np.logspace(0, 3, 400)
    js = [
        bath.spectral_density(SpectralDensity(1.0, c, lam, 1.0), omega)
        for c in (Cutoff.ABRUPT, Cutoff.DRUDE_LORENTZ, Cutoff.EXPONENTIAL)
    ]
    worst = 0.0
    for i in range(3):
        for j in range(i + 1, 3):
            worst = max(worst, np.max(np.abs(js[i] - js[j]) / js[j]))
    return _result(
        "criterion-1",
        worst < 0.002,
        {"max_pairwise_rel_spread": worst},
        "0.2% for omega in [1, 1e3] at Lam = 1e6",
        "pairwise comparison of the three cutoff models",
    )


def _fit_rate(sys, sd, regime, sep, window):
    grid = np.logspace(np.log10(1e-3 / sd.lam), np.log10(0.7), 400)
    cs = decoherence.curve(sys, sd, regime, sep, grid)
    ok = (
        (grid >= window[0])
        & (grid <= window[1])
        & (cs.err_flag == decoherence.FLAG_OK)
        & (cs.magnitude > decoherence.UNDERFLOW_CLAMP)
    )
    t_fit = grid[ok]
    d_fit = -np.log(cs.magnitude[ok])
    a = np.vstack([t_fit, np.ones_like(t_fit)]).T
    slope, _ = np.linalg.lstsq(a, d_fit, rcond=None)[0]
    return float(slope), int(ok.sum())


def check_criterion_2():
    sys = SystemParams(omega0=10.0, omega_c=1.0)
    sd = SpectralDensity(1.0, Cutoff.ABRUPT, 1e3, 1.0)
    hi = ThermalRegime(RegimeKind.HIGH_TEMPERATURE, 1e3)
    sep = Separation(1.0, 1.0)
    rate, npts = _fit_rate(sys, sd, hi, sep, (0.05, 0.5))
    law = decoherence.hightemp_rate(sys, sd, hi, sep)
    return _result(
        "criterion-2",
        abs(rate - law) <= 0.05 * law,
        {
            "fitted_rate": rate,
            "catalogued_law": law,
            "ratio": rate / law,
            "ratio_over_pi": rate / (np.pi * law),
            "fit_points": npts,
            "note": "fitted rate is pi x the catalogued law (Si(inf)=pi/2 per mode weight); quadrature is authoritative",
        },
        "5% of gamma Omega_th (dx^2+dy^2)/(2 hbar) = 1e3",
        "linear fit of -ln|rho/rho0| vs t on [0.05, 0.5], quadrature path",
    )


def check_criterion_3():
    sd = SpectralDensity(1.0, Cutoff.ABRUPT, 1e3, 1.0)
    hi = ThermalRegime(RegimeKind.HIGH_TEMPERATURE, 1e3)
    sep = Separation(1.0, 1.0)
    rates = {}
    for wc in (1.0, 10.0):
        sys = SystemParams(omega0=10.0, omega_c=wc)
        rates[wc], _ = _fit_rate(sys, sd, hi, sep, (0.05, 0.5))
    change = abs(rates[10.0] / rates[1.0] - 1.0)
    return _result(
        "criterion-3",
        change < 0.02,
        {"rate_wc1": rates[1.0], "rate_wc10": rates[10.0], "rel_change": change},
        "fitted rate changes < 2% between omega_c = 1 and 10",
        "same fit as criterion-2 at both field strengths",
    )


def check_criterion_4():
    sys = SystemParams(omega0=1e-3, omega_c=1e-3)
    sd = SpectralDensity(1.0, Cutoff.ABRUPT, 1e3, 1.0)
    lo = ThermalRegime(RegimeKind.LOW_TEMPERATURE)
    sep = Separation(1.0, 1.0)
    grid = np.logspace(-6, 2, 400)
    cs = decoherence.curve(sys, sd, lo, sep, grid)
    win = (sys.omega0 * grid < 0.1) & (sd.lam * grid * 1e-2 > 0.1)
    tl = np.log(grid[win])
    y = np.log(cs.magnitude[win])
    a = np.vstack([tl, np.ones_like(tl)]).T
    slope, icpt = np.linalg.lstsq(a, y, rcond=None)[0]
    exponent, c_const = decoherence.lowtemp_powerlaw(sys, sd, sep)
    logc_paperform = np.log(c_const)
    slope_ok = abs(-slope - exponent) <= 0.10 * exponent
    icpt_ok = abs(-icpt - logc_paperform) <= 0.15 * abs(logc_paperform)
    return _result(
        "criterion-4",
        slope_ok and icpt_ok,
        {
            "slope": float(slope),
            "expected_exponent": -exponent,
            "neg_intercept": float(-icpt),
            "logc_formula": float(logc_paperform),
            "fit_points": int(win.sum()),
        },
        "slope within 10% of -2; intercept within 15% of the log(c) formula",
        "log-log fit of the quadrature curve on omega0 t < 0.1 < Lam t / 100",
    )


_MATRIX_COMBOS = tuple(
    (c, r)
    for c in (Cutoff.ABRUPT, Cutoff.DRUDE_LORENTZ, Cutoff.EXPONENTIAL)
    for r in (RegimeKind.HIGH_TEMPERATURE, RegimeKind.LOW_TEMPERATURE)
)
#: A'/Lam up to which criterion-5 checks the printed exponential lambda1: g5/g7
#: are exact, but their cosh/sinh(A'/Lam)-weighted Si/Ci terms cancel past ~12
_PRINTED_EXP_MAX_A = 8.0


def check_criterion_5():
    rng = np.random.default_rng(_SEED)
    validated_worst = {}
    printed_dev = {}
    undocumented = []
    for cutoff, rkind in _MATRIX_COMBOS:
        worst = 0.0
        pdev = {"lambda1": 0.0, "lambda2": 0.0}
        n = 0
        while n < 10:
            w0 = rng.uniform(0.5, 20.0)
            wc = rng.uniform(0.0, 15.0)
            sys = SystemParams(omega0=w0, omega_c=wc)
            mc = dynamics.mode_constants(sys)
            oth = rng.uniform(0.5, 50.0)
            if cutoff is Cutoff.EXPONENTIAL:
                # A'/Lam log-uniform in [0.02, 50], through the Lam < A' the
                # cutoff comparison is most sensitive to
                lam = mc.a_prime / np.exp(rng.uniform(np.log(0.02), np.log(50.0)))
            else:
                lam = rng.uniform(10.0, 30.0) * max(mc.a_prime, oth)
            if cutoff is Cutoff.DRUDE_LORENTZ and abs(np.sin(lam / oth)) < 0.1:
                continue
            sd = SpectralDensity(1.0, cutoff, lam, rng.uniform(0.2, 3.0))
            regime = ThermalRegime(rkind, oth)
            ts = np.sort(np.exp(rng.uniform(np.log(1e-3), np.log(min(1.0, 500.0 / lam)), 3)))
            mom = decoherence._moments(sys, sd, regime, ts, "closed")
            for t, (lq1, lq2) in zip(ts, mom.c0):
                lv = coefficients.lambda_closed(sys, sd, regime, float(t), "validated")
                worst = max(worst, _relerr(lv.lambda1, lq1))
                if lv.lambda2 is not None:
                    worst = max(worst, _relerr(lv.lambda2, lq2))
                lp = coefficients.lambda_closed(sys, sd, regime, float(t), "printed")
                if cutoff is not Cutoff.EXPONENTIAL or mc.a_prime / lam <= _PRINTED_EXP_MAX_A:
                    pdev["lambda1"] = max(pdev["lambda1"], _relerr(lp.lambda1, lq1))
                if lp.lambda2 is not None:
                    pdev["lambda2"] = max(pdev["lambda2"], _relerr(lp.lambda2, lq2))
            n += 1
        key = "%s-%s" % (cutoff.value, rkind.value)
        validated_worst[key] = worst
        for lamname, dev in pdev.items():
            if dev > 1e-4:
                fkey = (cutoff.value, rkind.value, lamname)
                printed_dev["%s-%s" % (key, lamname)] = {
                    "max_rel_deviation": dev,
                    "finding": coefficients.FINDINGS.get(fkey, "UNDOCUMENTED"),
                }
                if fkey not in coefficients.FINDINGS:
                    undocumented.append(fkey)
    ok = max(validated_worst.values()) < 1e-4 and not undocumented
    return _result(
        "criterion-5",
        ok,
        {
            "validated_worst_rel": validated_worst,
            "printed_findings": printed_dev,
            "undocumented_deviations": [str(u) for u in undocumented],
        },
        "validated forms within 1e-4 of same-kernel quadrature at 10 random draws per combo; "
        "printed deviations must be catalogued findings (printed exponential lambda1 "
        "compared for A'/Lam <= %g)" % _PRINTED_EXP_MAX_A,
        "Gauss-panel time integration (dynamics.time_moments) of the exact kernel each "
        "closed form integrates",
    )


def check_criterion_6():
    lam = 50.0
    oth = 7.0
    worst = {}
    for s in (0.5, 1.5):
        for cutoff in (Cutoff.ABRUPT, Cutoff.DRUDE_LORENTZ, Cutoff.EXPONENTIAL):
            for rkind in (RegimeKind.HIGH_TEMPERATURE, RegimeKind.LOW_TEMPERATURE):
                sd = SpectralDensity(s, cutoff, lam, 1.3)
                regime = ThermalRegime(rkind, oth)
                xs = np.logspace(-3, np.log10(15.0), 20)
                worst["s=%g-%s-%s" % (s, cutoff.value, rkind.value)] = _reference_gap(sd, regime, xs)
    return _result(
        "criterion-6",
        max(worst.values()) < 1e-4,
        {"worst_rel": worst},
        "1e-4 relative at 20 points per kernel inside Lam tau in [1e-3, 15]",
        "defining integral int J(w) coth-factor cos(w tau) dw by adaptive/Euler quadrature",
    )


def _ordering_curves(regime_kind, oth):
    """Magnitude of the quadrature curve for each (s, cutoff) on one system
    and grid, from one ``decoherence._curves_many`` call; each curve equals
    its own ``decoherence.curve`` bit for bit."""
    lam = 1e3
    regime = ThermalRegime(regime_kind, oth)
    sys = SystemParams(omega0=10.0, omega_c=1.0)
    sep = Separation(1.0, 1.0)
    grid = np.logspace(np.log10(1e-3 / lam), np.log10(0.7), 240)
    sds = [SpectralDensity(s, cutoff, lam, 1.0) for s in (0.5, 1.0, 1.5) for cutoff in Cutoff]
    series = decoherence._curves_many(sys, [(sd, regime, [sep]) for sd in sds], grid)
    return {(sd.s, sd.cutoff): one.magnitude for sd, (one,) in zip(sds, series)}


def check_criterion_7():
    measured = {}
    ok = True
    curves = {
        rkind: _ordering_curves(rkind, oth)
        for rkind, oth in ((RegimeKind.LOW_TEMPERATURE, 0.01), (RegimeKind.HIGH_TEMPERATURE, 1e3))
    }

    # (a) Drude-Lorentz decays faster than exponential, mid-decay
    for rkind in curves:
        mdl = curves[rkind][(1.0, Cutoff.DRUDE_LORENTZ)]
        mex = curves[rkind][(1.0, Cutoff.EXPONENTIAL)]
        band = (mex > 0.005) & (mex < 0.995) & (mdl > 0.005)
        n = int(band.sum())
        holds = bool(np.all(mdl[band] < mex[band])) and n >= 10
        measured["a-%s" % rkind.value] = {"points": n, "holds": holds}
        ok &= holds

    # (b) super-Ohmic fastest, sub-Ohmic slowest
    for rkind in curves:
        for cutoff in (Cutoff.ABRUPT, Cutoff.DRUDE_LORENTZ, Cutoff.EXPONENTIAL):
            m32 = curves[rkind][(1.5, cutoff)]
            m1 = curves[rkind][(1.0, cutoff)]
            m12 = curves[rkind][(0.5, cutoff)]
            band = (m1 > 0.01) & (m1 < 0.99)
            n = int(band.sum())
            holds = (
                bool(np.all(m32[band] < m1[band]))
                and bool(np.all(m1[band] < m12[band]))
                and n >= 10
            )
            measured["b-%s-%s" % (rkind.value, cutoff.value)] = {"points": n, "holds": holds}
            ok &= holds

    # (c) high temperature decays faster than low temperature.  Compared from
    # half-decay of the fast (thermal) curve onward: during the first
    # ~Lam tau < 0.1 the Drude-Lorentz zero-point kernel ~ gamma Lam^2
    # log(1/Lam tau) transiently exceeds the thermal one; beyond quarter-decay
    # of the thermal curve the ordering holds pointwise and only widens.
    for cutoff in (Cutoff.ABRUPT, Cutoff.DRUDE_LORENTZ, Cutoff.EXPONENTIAL):
        ml = curves[RegimeKind.LOW_TEMPERATURE][(1.0, cutoff)]
        mh = curves[RegimeKind.HIGH_TEMPERATURE][(1.0, cutoff)]
        band = (mh < 0.25) & (mh > decoherence.UNDERFLOW_CLAMP)
        n = int(band.sum())
        holds = bool(np.all(mh[band] < ml[band])) and n >= 10
        early = (mh >= 0.25) & (ml < mh)
        measured["c-%s" % cutoff.value] = {
            "points": n,
            "holds": holds,
            "early_transient_points": int(early.sum()),
        }
        ok &= holds

    # (d) higher field decays more slowly: low-T late-decay window.  The
    # high-temperature curves differ by < 1e-5 relative (with reversed sign),
    # below any plotted resolution; that measurement is recorded, not asserted.
    grid_d = np.logspace(np.log10(1e-6), np.log10(50.0), 300)
    lo = ThermalRegime(RegimeKind.LOW_TEMPERATURE, 0.01)
    sep = Separation(1.0, 1.0)
    hi_margin = {}
    for cutoff in (Cutoff.ABRUPT, Cutoff.DRUDE_LORENTZ, Cutoff.EXPONENTIAL):
        sd = SpectralDensity(1.0, cutoff, 1e3, 1.0)
        m = {}
        for wc in (1.0, 10.0):
            sys = SystemParams(omega0=10.0, omega_c=wc)
            m[wc] = decoherence.curve(sys, sd, lo, sep, grid_d).magnitude
        band = (m[1.0] > 1e-8) & (m[1.0] < 1e-2)
        n = int(band.sum())
        holds = bool(np.all(m[10.0][band] >= m[1.0][band])) and n >= 10
        margin = float(np.min((m[10.0][band] - m[1.0][band]) / m[1.0][band])) if n else np.nan
        measured["d-low-%s" % cutoff.value] = {"points": n, "holds": holds, "min_margin": margin}
        ok &= holds
    hi = ThermalRegime(RegimeKind.HIGH_TEMPERATURE, 1e3)
    grid_h = np.logspace(np.log10(1e-6), np.log10(0.7), 200)
    for cutoff in (Cutoff.DRUDE_LORENTZ,):
        sd = SpectralDensity(1.0, cutoff, 1e3, 1.0)
        m = {}
        for wc in (1.0, 10.0):
            sys = SystemParams(omega0=10.0, omega_c=wc)
            m[wc] = decoherence.curve(sys, sd, hi, sep, grid_h).magnitude
        band = (m[1.0] > 0.01) & (m[1.0] < 0.99)
        rel = (m[10.0][band] - m[1.0][band]) / m[1.0][band]
        hi_margin[cutoff.value] = {
            "max_abs_rel_difference": float(np.max(np.abs(rel))),
            "note": "below plot resolution; ordering not asserted at high T",
        }
    measured["d-high-unasserted"] = hi_margin
    return _result(
        "criterion-7",
        ok,
        measured,
        "strict pointwise inequalities on >= 10 grid points per comparison "
        "(d: low-T window, reference-curve magnitude in [1e-8, 1e-2])",
        "quadrature-path curves at the catalogued figure parameters",
    )


def _reference_gap(sd, regime, xs):
    """Worst relative gap of the reference kernel to the defining quadrature
    at tau = x / Lam for increasing xs; each gap is floored at 1e-9 times the
    reference at the smallest x.  The reference takes every tau in one call."""
    taus = np.asarray(xs, dtype=float) / sd.lam
    cvs = bath.noise_kernel_reference(sd, regime, taus)
    scale = abs(cvs[0])
    worst = 0.0
    for tau, cv in zip(taus, cvs):
        qv = bath.noise_kernel_quadrature(sd, regime, float(tau))
        worst = max(worst, abs(cv - qv) / max(abs(qv), 1e-9 * scale))
    return float(worst)


def check_bath_reference():
    """Reference kernels vs defining quadrature for the Ohmic transforms, and
    for the Drude-Lorentz transform at s = 0.8, off the integer exponents."""
    worst = {}
    baths = [(c.value, SpectralDensity(1.0, c, 200.0, 1.0)) for c in Cutoff]
    baths.append(("drude-s0.8", SpectralDensity(0.8, Cutoff.DRUDE_LORENTZ, 200.0, 1.0)))
    for name, sd in baths:
        for rkind in (RegimeKind.HIGH_TEMPERATURE, RegimeKind.LOW_TEMPERATURE):
            worst["%s-%s" % (name, rkind.value)] = _reference_gap(
                sd, ThermalRegime(rkind, 11.0), (1e-2, 0.5, 3.0, 25.0)
            )
    ok = max(worst.values()) < 1e-6
    return _result(
        "bath-reference-kernels",
        ok,
        {"worst_rel": worst},
        "1e-6",
        "defining-integral quadrature",
    )


def check_drude_exact_pole_sum():
    """Exact-regime Drude-Lorentz kernel: residue sum (hyp2f1) vs quadrature.

    Lam tau = 1e-3 puts z = exp(-pi Omega_th tau) at 0.9989 and 0.993, on
    the hyp2f1 branch past z = 0.9; tau in {0.02, 0.11} keeps z <= 0.34."""
    worst = 0.0
    for lam, oth in ((50.0, 17.0), (40.0, 90.0)):
        sd = SpectralDensity(1.0, Cutoff.DRUDE_LORENTZ, lam, 1.0)
        for tau in (1e-3 / lam, 0.02, 0.11):
            ps = bath.drude_exact_kernel(sd, oth, tau)
            qv = bath.noise_kernel_quadrature(sd, ThermalRegime(RegimeKind.EXACT, oth), tau)
            worst = max(worst, _relerr(ps, qv, floor=1e-8))
    return _result(
        "bath-drude-exact-pole-sum",
        worst < 1e-6,
        {"worst_rel": worst},
        "1e-6",
        "exact-coth oscillatory quadrature (Euler-accelerated tail)",
    )


_FAST_CHECKS = (
    check_specfun_sici,
    check_dynamics_modes,
    check_bath_reference,
    check_criterion_1,
    check_criterion_8,
)

_FULL_EXTRA_CHECKS = (
    check_criterion_2,
    check_criterion_3,
    check_criterion_4,
    check_criterion_5,
    check_criterion_6,
    check_criterion_7,
    check_drude_exact_pole_sum,
)


#: seconds a check may take, by check name; ``run_checks`` fails a check
#: that runs past its budget
_RUNTIME_BUDGET_S = {
    "criterion-1": 1.0,
    "criterion-2": 30.0,
    "criterion-4": 60.0,
    "criterion-6": 120.0,
    "criterion-8": 10.0,
}


def run_checks(level="fast"):
    """Run the validation suite; level 'full' adds the expensive criteria
    and the exact-regime Drude-Lorentz oscillatory cross-check.  Every check
    is timed once, here, into its ``runtime_s``; a check with a budget in
    ``_RUNTIME_BUDGET_S`` states it in its tolerance and fails past it.
    The report does not depend on what ran before: Si and Ci give every
    argument the same bits, cached or not (``specfun._sici_cached``)."""
    if level not in ("fast", "full"):
        raise ValueError("level must be 'fast' or 'full'")
    report = ValidationReport(level=level)
    fns = _FAST_CHECKS + (_FULL_EXTRA_CHECKS if level == "full" else ())
    for fn in fns:
        start = time.perf_counter()
        result = fn()
        runtime = result.measured["runtime_s"] = time.perf_counter() - start
        budget = _RUNTIME_BUDGET_S.get(result.name)
        if budget is not None:
            result.tolerance += "; runtime < %g s" % budget
            if runtime >= budget:
                result.status = "fail"
        report.checks.append(result)
    return report
