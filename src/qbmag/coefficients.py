"""Master-equation decoherence coefficients lambda1(t), lambda2(t).

lambda1(t) = (1/hbar) int_0^t nu(tau) F1(tau) dtau and lambda2 likewise with
F2.  Two evaluation paths:

* ``lambda_from_kernel`` -- adaptive time integral of a caller-supplied
  kernel.  With the analytic kernel a closed form integrates it validates
  that form's algebra; composed with the per-node defining quadrature,
  ``lambda_from_kernel(sys, lambda u: noise_kernel_quadrature(sd, regime,
  u), t)``, it is the defining path, slow and oracle-grade.
* ``lambda_closed`` -- analytic forms.  ``variant="validated"`` evaluates
  expressions verified against ``lambda_from_kernel`` to <=1e-7 relative;
  ``variant="printed"`` evaluates the transcribed source forms verbatim.
  Where the two disagree the discrepancy is catalogued in ``FINDINGS`` and
  reported by the validation suite; the quadrature value is authoritative.
"""

from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy import special as _sp

from .bath import Cutoff, RegimeKind, _finite_nonnegative, closed_kernel_error
from .bath import noise_kernel_quadrature  # unused here; perfbench/trace.py wraps this binding
from .dynamics import f_weight, mode_constants
from .errors import DomainError, RangeError, UnsupportedFormError
from .specfun import cos_integral as Ci
from .specfun import sin_integral as Si


@dataclass(frozen=True)
class LambdaPair:
    lambda1: complex
    lambda2: complex | None
    t: float
    method: str
    est_error: float


#: catalogued discrepancies between the transcribed ("printed") analytic
#: displays and the defining integrals, as established against the
#: same-kernel quadrature.  A'B' equals omega0^2.
FINDINGS = {
    ("abrupt", "high", "lambda2"): "printed form equals -A'B' times the defining integral",
    ("abrupt", "low", "lambda2"): "depends on an undefined f3; no closed form (quadrature only)",
    ("drude", "high", "lambda1"): "printed g1 lacks Lam^2 on its second group and has cos(Lam t) for cosh(Lam t)",
    ("drude", "high", "lambda2"): "printed g2 combination does not reduce to the integral by any single rescaling",
    ("drude", "low", "lambda1"): "printed g3 form equals the cumulative int_0^t lambda1 dt', not lambda1",
    ("drude", "low", "lambda2"): "printed g4 form equals -A'B' times the cumulative int_0^t lambda2 dt'",
    ("exp", "high", "lambda2"): "printed g6 equals -A'B' times the integral after reading f1(v'/Lam) as Shi(v'/Lam)",
    ("exp", "low", "lambda2"): "printed g8 equals -A'B' times the integral after reading f1(v'/Lam) as Shi(v'/Lam)",
}


# --------------------------------------------------------------------------
# validated analytic forms (one helper per cutoff/regime)
# --------------------------------------------------------------------------

def _abrupt_validated(sd, regime, mc, t, hbar):
    lam, gam = sd.lam, sd.gamma
    ap, bp, m, p, g = mc.a_prime, mc.b_prime, mc.m_coef, mc.p_coef, mc.g_coef
    if lam <= ap:
        raise DomainError("abrupt closed forms need Lam > A'")
    if regime.kind is RegimeKind.HIGH_TEMPERATURE:
        oth = regime.omega_th
        l1 = complex(
            gam
            * oth
            / (2 * hbar)
            * sum(
                w * (Si((lam - z) * t) + Si((lam + z) * t)).real
                for w, z in ((m, ap), (p, bp))
            )
        )
        if g == 0.0:
            l2 = 0.0 + 0.0j
        else:
            def cgrp(z):
                return (Ci((lam - z) * t) - Ci((lam + z) * t)).real + np.log(
                    (lam + z) / (lam - z)
                )

            l2 = complex(gam * oth * g / (2 * hbar) * (cgrp(bp) / bp - cgrp(ap) / ap))
        return l1, l2
    # low temperature: lambda2 depends on the undefined f3 of the source
    # display, so it has no closed form (the defining path gives it)
    l1 = complex(
        gam
        / (2 * hbar * t)
        * (
            2
            * (1 - np.cos(lam * t))
            * (m * np.cos(ap * t) + p * np.cos(bp * t))
            + sum(
                w
                * z
                * t
                * (Si((lam - z) * t) + 2 * Si(z * t) - Si((lam + z) * t)).real
                for w, z in ((m, ap), (p, bp))
            )
        )
    )
    return l1, None


def _drude_validated(sd, regime, mc, t, hbar):
    lam, gam = sd.lam, sd.gamma
    ap, bp, m, p, g = mc.a_prime, mc.b_prime, mc.m_coef, mc.p_coef, mc.g_coef
    cot = 1.0 / np.tan(lam / regime.omega_th)
    sh, chl = np.sinh(lam * t), np.cosh(lam * t)

    def icc(z):
        return (lam * sh * np.cos(z * t) + z * chl * np.sin(z * t)) / (lam**2 + z**2)

    def ics(z):
        return (lam * sh * np.sin(z * t) - z * chl * np.cos(z * t) + z) / (lam**2 + z**2)

    high = regime.kind is RegimeKind.HIGH_TEMPERATURE
    oth = regime.omega_th
    pref = gam * np.pi * lam**2 / (2 * hbar)

    def ipc(z):
        # pi Omega_th (1 - cos zt)/z^2 - (i + pi Omega_th t) sin(zt)/z, in
        # sinc form: exact at z = 0, and free of the cancellation in 1 - cos zt
        x = z * t / np.pi  # np.sinc(x) = sin(pi x)/(pi x)
        return np.pi * oth * t**2 / 2.0 * np.sinc(x / 2.0) ** 2 - (1j + np.pi * oth * t) * t * np.sinc(x)

    def ips(z):
        if abs(z * t) < 1e-6:
            return -1j * z * t**2 / 2.0 - np.pi * oth * z * t**3 / 3.0
        return -1j * (1 - np.cos(z * t)) / z - np.pi * oth * (np.sin(z * t) - z * t * np.cos(z * t)) / z**2

    if high:
        l1 = pref * sum(w * (cot * icc(z) + ipc(z)) for w, z in ((m, ap), (p, bp)))
    else:
        l1 = complex(pref * cot * (m * icc(ap) + p * icc(bp)))
    if g == 0.0:
        l2 = 0.0 + 0.0j
    elif high:
        s_of = lambda z: cot * ics(z) + ips(z)
        l2 = pref * g * (s_of(bp) / bp - s_of(ap) / ap)
    else:
        l2 = complex(pref * cot * g * (ics(bp) / bp - ics(ap) / ap))
    return l1, l2


#: a T up to which a mode of the exponential cutoff takes the power series in
#: a; past it the scaled-E1 closed form is the more accurate
_SERIES_MAX_AT = 6.0
#: series terms k = 0 .. _SERIES_TERMS - 1 in a^2, enough for a T = 6
_SERIES_TERMS = 26
#: A'/Lam past which E1(A'/Lam) ~ e^{-A'/Lam} leaves the double range
_EXP_MAX_A = 700.0


def _exp_moments(bigt, high, n):
    """m_j = int_0^T y^j k(y) dy for j < n, with the kernel shape k(y) of the
    exponential cutoff: 1/(1+y^2) at high and (1-y^2)/(1+y^2)^2 at low
    temperature.  Extended precision for T >= 1, where the series in
    _exp_mode grows before it cancels."""
    j = np.arange(n)
    if bigt < 1.0:
        # the recurrence below loses a factor 1/T per step here
        bt = float(bigt)
        mu = bt ** (j + 1) / (j + 1) * _sp.hyp2f1(1.0, (j + 1) / 2, (j + 3) / 2, -bt * bt)
    else:
        bt = np.longdouble(bigt)
        # the recurrence on long double scalars, one array at the end
        mu = [np.arctan(bt), np.log1p(bt * bt) / 2]
        for i in range(2, n):
            mu.append(bt ** (i - 1) / (i - 1) - mu[i - 2])
        mu = np.array(mu)
    if high:
        return mu
    # integrating y^j by parts against d/dy [y/(1+y^2)]
    return bt ** (j + 1) / (1 + bt * bt) - j * mu


def _exp_mode(a, bigt, high, m):
    """(Re chi, Im chi / a - m_1) of chi(a) = int_0^T e^{iay} k(y) dy.

    Im chi / a tends to m_1 as a -> 0, so the second value is the part that
    survives the difference between two modes.  For a T <= _SERIES_MAX_AT it
    is the power series sum_n (ia)^n m_n / n!, m the moments
    ``_exp_moments(T, high, 2 _SERIES_TERMS)``; past that the closed form in
    g(w) = e^w E1(w), with g(-a - i0) = e^{-a} (i pi - Ei(a)).
    """
    if a * bigt <= _SERIES_MAX_AT:
        # (-a^2)^k / (2k)!
        k = np.arange(1, _SERIES_TERMS)
        c = np.cumprod(np.concatenate(([1], -np.longdouble(a) ** 2 / ((2 * k - 1) * (2 * k)))))
        return np.sum(c * m[0::2]), np.sum(c[1:] * m[3::2] / (2 * k + 1))
    a, bigt = float(a), float(bigt)
    g = lambda w: np.exp(w) * _sp.exp1(w)
    eit = np.exp(1j * a * bigt)
    lp = np.exp(-a) * (1j * np.pi - _sp.expi(a)) - eit * g(-a * (1 + 1j * bigt))
    lm = g(a) - eit * g(a * (1 - 1j * bigt))
    if high:
        chi = (lp - lm) / 2j
        m1 = np.log1p(bigt * bigt) / 2
    else:
        chi = bigt * eit / (1 + bigt * bigt) - 1j * a * (lp + lm) / 2
        m1 = bigt * bigt / (1 + bigt * bigt) - np.log1p(bigt * bigt) / 2
    return chi.real, chi.imag / a - m1


def _exp_validated(sd, regime, mc, t, hbar):
    # nu(tau) dtau = c k(y) dy with y = Lam tau and c = gamma Omega_th (high)
    # or gamma Lam (low), so int_0^t nu e^{iz tau} dtau = c chi(z / Lam)
    lam, gam = sd.lam, sd.gamma
    ap, bp, m, p, g = mc.a_prime, mc.b_prime, mc.m_coef, mc.p_coef, mc.g_coef
    if ap / lam > _EXP_MAX_A:
        raise RangeError("exponential closed forms overflow for A'/Lam = %g > %g" % (ap / lam, _EXP_MAX_A))
    high = regime.kind is RegimeKind.HIGH_TEMPERATURE
    scale = regime.omega_th if high else lam
    # a and T in extended precision: lambda2 is a difference of two modes,
    # which magnifies their rounding
    bigt = np.longdouble(lam) * t
    modes = [np.longdouble(z) / lam for z in (ap, bp)]
    # the moments of T serve both modes, where either takes the series
    series = min(modes) * bigt <= _SERIES_MAX_AT
    moments = _exp_moments(bigt, high, 2 * _SERIES_TERMS) if series else None
    (ra, qa), (rb, qb) = (_exp_mode(a, bigt, high, moments) for a in modes)
    l1 = float(scale * (m * ra + p * rb) / hbar)
    l2 = float(scale / lam * g * (qb - qa) / hbar)
    return complex(gam * l1), complex(gam * l2)


# --------------------------------------------------------------------------
# printed (verbatim transcription) g-functions g1..g8, for complex z too (the
# source combinations pass iA', iB'); FINDINGS relates them to the integrals
# --------------------------------------------------------------------------

def _g1(z, t, lam, oth):
    cot = 1.0 / np.tan(lam / oth)
    return cot * lam**2 * (
        lam * np.cos(z * t) * np.sinh(lam * t) + np.cos(lam * t) * np.sin(z * t) * z
    ) / (lam**2 + z**2) - (
        np.pi * oth * (-1 + np.cos(z * t)) + (1j + np.pi * oth * t) * z * np.sin(z * t)
    ) / z**2


def _g2(z, vp, t, lam, oth):
    cot = 1.0 / np.tan(lam / oth)
    return cot * lam**2 * (
        z
        * (lam * np.sin(vp * t) * np.sin(lam * t) + (1 - np.cos(vp * t) * np.cosh(lam * t)) * vp)
        / (lam**2 + vp**2)
    ) + z * (
        -np.pi * oth * np.sin(vp * t)
        - 1j * vp * (1 + (-1 + 1j * np.pi * oth * t) * np.cos(vp * t))
    ) / vp**2


def _g3(z, t, lam):
    return (
        2 * lam * np.sin(z * t) * np.sinh(lam * t) * z
        + np.cos(z * t) * np.cosh(lam * t) * (lam**2 - z**2)
        + z**2
        - lam**2
    ) / (lam**2 + z**2) ** 2


def _g4(z, vp, t, lam):
    return z * (
        2 * lam * np.cos(vp * t) * np.sinh(lam * t) * vp
        + np.cosh(lam * t) * np.sin(vp * t) * (vp**2 - lam**2)
        - vp * (vp**2 + lam**2) * t
    ) / (lam**2 + vp**2) ** 2


def _g5(z, t, lam):
    a = z / lam
    wm, wp = (-1j + lam * t) * a, (1j + lam * t) * a
    return -1j * np.cosh(a) * (Ci(wm) - Ci(wp) + 1j * np.pi) - np.sinh(a) * (Si(wm) + Si(wp))


def _g6(z, vp, t, lam):
    a = vp / lam
    wm, wp = (-1j + lam * t) * a, (1j + lam * t) * a
    return z * (Ci(-1j * a) + Ci(1j * a) - Ci(wm) - Ci(wp)) * np.sinh(a) - z * np.cosh(a) * (
        2 * Si(a) - 1j * (Si(wm) - Si(wp))
    )


def _g7(z, t, lam):
    # the trailing mode-frequency factor of the source display is bound to z
    a = z / lam
    wm, wp = (-1j + lam * t) * a, (1j + lam * t) * a
    return 2 * t * lam**2 * np.cos(z * t) + (1 + lam**2 * t**2) * (
        1j * (Ci(wm) - Ci(wp) + 1j * np.pi) * np.sinh(a)
        + np.cosh(a) * (Si(wm) + Si(wp))
    ) * z


def _g8(z, vp, t, lam):
    a = vp / lam
    bigt2 = (lam * t) ** 2
    wm, wp = (-1j + lam * t) * a, (1j + lam * t) * a
    return (
        2j * lam**2 * t * z * np.sin(vp * t)
        + 1j * z * np.cosh(a) * Ci(-1j * a) * vp
        + 1j
        * z
        * np.cosh(a)
        * (bigt2 * Ci(-1j * a) + (1 + bigt2) * (Ci(1j * a) - Ci(wm) - Ci(wp)))
        * vp
        + z
        * (1 + bigt2)
        * np.sinh(a)
        * (-2j * Si(a) - Si(wm) + Si(wp))
        * vp
    )


def _lambda_printed(sd, regime, mc, t, hbar):
    high = regime.kind is RegimeKind.HIGH_TEMPERATURE
    # these displays divide by B' (g1, g2) or take Ci(+-i B'/Lam) (g6, g8)
    if mc.b_prime == 0.0 and (sd.cutoff is Cutoff.EXPONENTIAL or (sd.cutoff is Cutoff.DRUDE_LORENTZ and high)):
        raise DomainError("the printed %s %s forms divide by B' = 0 at omega0 = 0" % (sd.cutoff.value, regime.kind.value))
    lam, gam = sd.lam, sd.gamma
    ap, bp, m, p, g = mc.a_prime, mc.b_prime, mc.m_coef, mc.p_coef, mc.g_coef
    a_im, b_im = 1j * ap, 1j * bp
    if sd.cutoff is Cutoff.ABRUPT:
        if not high:
            return _abrupt_validated(sd, regime, mc, t, hbar)
        oth = regime.omega_th
        l1 = gam * oth / (2 * hbar) * (
            -m * Si(t * (ap - lam))
            - p * Si(t * (bp - lam))
            + m * Si(t * (ap + lam))
            + p * Si(t * (bp + lam))
        )

        def grp(z):
            return (
                Ci(t * (lam - z))
                - Ci(t * (lam + z))
                + np.log((lam + z) / (lam - z))
            )

        l2 = (-1j * oth * gam / (2 * hbar)) * g * (b_im * grp(ap) - a_im * grp(bp))
        return l1, l2
    if sd.cutoff is Cutoff.DRUDE_LORENTZ:
        oth = regime.omega_th
        cot = 1.0 / np.tan(lam / oth)
        if high:
            l1 = gam * np.pi / (2 * hbar) * (_g1(ap, t, lam, oth) * m + _g1(bp, t, lam, oth) * p)
            l2 = (1j * gam * g * np.pi / (2 * hbar)) * (
                _g2(a_im, bp, t, lam, oth) - _g2(b_im, ap, t, lam, oth)
            )
        else:
            l1 = gam * np.pi * lam**2 / (2 * hbar) * cot * (m * _g3(ap, t, lam) + p * _g3(bp, t, lam))
            l2 = (-1j * gam * np.pi * lam**2 * g / (2 * hbar)) * cot * (
                _g4(a_im, bp, t, lam) - _g4(b_im, ap, t, lam)
            )
        return l1, l2
    # exponential
    if high:
        oth = regime.omega_th
        l1 = gam * oth / (2 * hbar) * (m * _g5(ap, t, lam) + p * _g5(bp, t, lam))
        l2 = (-1j * gam * g * oth / (2 * hbar)) * (
            _g6(a_im, bp, t, lam) - _g6(b_im, ap, t, lam)
        )
        return l1, l2
    l1 = gam / (hbar * (2 + 2 * t**2 * lam**2)) * (m * _g7(ap, t, lam) + p * _g7(bp, t, lam))
    l2 = (gam * g / (hbar * (2 + 2 * t**2 * lam**2))) * (
        _g8(a_im, bp, t, lam) - _g8(b_im, ap, t, lam)
    )
    return l1, l2


def lambda_closed(sys, sd, regime, t, variant="validated"):
    """Analytic decoherence coefficients for the Ohmic bath.

    Returns every coefficient the catalogue has a form for: ``lambda2`` is
    None for the abrupt cutoff at low temperature, whose display depends on
    an undefined f3 (the defining path of ``lambda_from_kernel`` gives it).
    The exact regime and s != 1 raise UnsupportedFormError.

    The validated exponential-cutoff forms raise RangeError for A'/Lam > 700.
    At omega0 = 0 the printed Drude-Lorentz high-temperature and exponential
    forms, which divide by B' = 0, raise DomainError at t > 0.

    The forms take Si and Ci of a few arguments many times over; ``specfun``
    calls scipy once per distinct argument while it stays in its cache.
    """
    if variant not in ("validated", "printed"):
        raise ValueError("variant must be 'validated' or 'printed'")
    if regime.kind is RegimeKind.EXACT:
        raise UnsupportedFormError("no closed coefficient forms in the exact regime")
    if sd.s != 1.0:
        raise UnsupportedFormError("closed coefficient forms exist for the Ohmic bath only")
    _finite_nonnegative("t", t)
    if t == 0:
        # every closed form vanishes term by term
        no_l2 = sd.cutoff is Cutoff.ABRUPT and regime.kind is RegimeKind.LOW_TEMPERATURE
        l1, l2 = 0j, None if no_l2 else 0j
    else:
        # the Drude-Lorentz forms integrate the pole-sum kernel, so they share its window
        err = closed_kernel_error(sd, regime, t)
        if err is not None:
            raise err
        if variant == "printed":
            forms = _lambda_printed
        elif sd.cutoff is Cutoff.ABRUPT:
            forms = _abrupt_validated
        elif sd.cutoff is Cutoff.DRUDE_LORENTZ:
            forms = _drude_validated
        else:
            forms = _exp_validated
        l1, l2 = forms(sd, regime, mode_constants(sys), t, sys.hbar)
    return LambdaPair(
        complex(l1),
        None if l2 is None else complex(l2),
        float(t),
        "closed-" + variant,
        0.0,
    )


def _quad(f, t, **opts):
    """scipy quad of f over [0, t] as (value, error estimate); the estimate is
    inf, and no IntegrationWarning is raised, when QUADPACK reports trouble."""
    res = integrate.quad(f, 0.0, t, full_output=1, **opts)
    return res[0], (np.inf if len(res) > 3 else res[1])


def lambda_from_kernel(sys, kernel, t):
    """Time-integrate a caller-supplied (possibly complex) kernel against F1, F2.

    Returns a LambdaPair; the same-kernel oracle used to validate the
    analytic forms.
    """
    _finite_nonnegative("t", t)
    if t == 0:
        return LambdaPair(0j, 0j, 0.0, "same-kernel-quadrature", 0.0)
    out = []
    err = 0.0
    for name in ("F1", "F2"):
        fw = lambda u: f_weight(sys, u, name)
        re, re_err = _quad(
            lambda u: np.real(kernel(u)) * fw(u), t, limit=800, epsabs=1e-13, epsrel=1e-10
        )
        im, im_err = _quad(
            lambda u: np.imag(kernel(u)) * fw(u), t, limit=800, epsabs=1e-13, epsrel=1e-10
        )
        out.append((re + 1j * im) / sys.hbar)
        err = max(err, (re_err + im_err) / sys.hbar)
    return LambdaPair(out[0], out[1], float(t), "same-kernel-quadrature", err)

