#!/usr/bin/env python3
"""Audit the transcribed analytic coefficient formulas against quadrature.

Every closed form of lambda1/lambda2 is integrated against the exact kernel
it claims to integrate (the "same-kernel" oracle, so regime approximations
drop out and only algebra is tested).  The validated variants agree to
better than 1e-6; the raw transcriptions deviate in catalogued, reproducible
ways -- most prominently every lambda2 display carries an overall factor
-A'B' (= -omega0^2), and the Drude-Lorentz quantum-regime displays turn out
to be the time-cumulative integrals of the coefficients rather than the
coefficients themselves.
"""

from qbmag import (
    FINDINGS,
    Cutoff,
    RegimeKind,
    SpectralDensity,
    SystemParams,
    ThermalRegime,
    lambda_closed,
    lambda_from_kernel,
    noise_kernel_closed_parts,
)

SYS = SystemParams(omega0=10.0, omega_c=1.0)
T = 0.05

print("%-22s %-8s %14s %14s" % ("combo", "coef", "validated rel", "printed rel"))
for cutoff in (Cutoff.ABRUPT, Cutoff.DRUDE_LORENTZ, Cutoff.EXPONENTIAL):
    for rkind in (RegimeKind.HIGH_TEMPERATURE, RegimeKind.LOW_TEMPERATURE):
        sd = SpectralDensity(1.0, cutoff, 400.0, 1.0)
        regime = ThermalRegime(rkind, 17.0)
        kern = lambda u: noise_kernel_closed_parts(sd, regime, u)
        oracle = lambda_from_kernel(SYS, kern, T)
        val = lambda_closed(SYS, sd, regime, T, "validated")
        prt = lambda_closed(SYS, sd, regime, T, "printed")
        for name in ("lambda1", "lambda2"):
            v, p, q = getattr(val, name), getattr(prt, name), getattr(oracle, name)
            if v is None:
                print("%-22s %-8s %14s %14s" % ("%s/%s" % (cutoff.value, rkind.value), name,
                                                "unavailable", "unavailable"))
                continue
            rv = abs(v - q) / abs(q)
            rp = abs(p - q) / abs(q)
            print("%-22s %-8s %14.2e %14.2e" % ("%s/%s" % (cutoff.value, rkind.value), name, rv, rp))

print("\ncatalogued findings:")
for key, text in sorted(FINDINGS.items()):
    print("  %-28s %s" % ("/".join(key), text))

mc_prod = 10.0**2  # A'B' = omega0^2
print("\nexample: abrupt/high lambda2 printed / validated =",
      complex(lambda_closed(SYS, SpectralDensity(1.0, Cutoff.ABRUPT, 400.0), ThermalRegime("high", 17.0), T, "printed").lambda2
              / lambda_closed(SYS, SpectralDensity(1.0, Cutoff.ABRUPT, 400.0), ThermalRegime("high", 17.0), T, "validated").lambda2),
      " (-A'B' = %g)" % (-mc_prod))
