#!/usr/bin/env python3
"""Long-time decay laws in the two temperature regimes.

Classical regime: -ln|rho/rho0| grows linearly.  The fitted rate comes out
pi times the law gamma Omega_th (dx^2+dy^2)/2 (hbar = 1), which takes no
mode frequency: each sine-integral in the cumulative exponent tends to pi/2
and the mode weights sum to one, so the prefactor is pi, not 1.  (The validation report tracks this as the
criterion-2 finding.)

Quantum regime with infrared mode frequencies: |rho/rho0| = (c t)^(-2) for
dx = dy = 1 -- a power law, dramatically slower than the classical
exponential.  Slope and intercept of the log-log fit match the analytic
exponent and log(c).
"""

import numpy as np

from qbmag import (
    Cutoff,
    RegimeKind,
    Separation,
    SpectralDensity,
    SystemParams,
    ThermalRegime,
    curve,
    hightemp_rate,
    lowtemp_powerlaw,
)

LAM = 1e3
SEP = Separation(1.0, 1.0)
SD = SpectralDensity(1.0, Cutoff.ABRUPT, LAM)

# classical regime
sys_hi = SystemParams(omega0=10.0, omega_c=1.0)
hi = ThermalRegime(RegimeKind.HIGH_TEMPERATURE, 1e3)
grid = np.logspace(-6, np.log10(0.7), 300)
cs = curve(sys_hi, SD, hi, SEP, grid)
win = (grid >= 0.05) & (grid <= 0.5) & (cs.err_flag == 0)
slope = np.polyfit(grid[win], -np.log(cs.magnitude[win]), 1)[0]
law = hightemp_rate(SD, hi, SEP)
print("classical: fitted rate %.1f, analytic prefactor %.1f, ratio %.6f (pi = %.6f)"
      % (slope, law, slope / law, np.pi))

# quantum regime, infrared modes
sys_lo = SystemParams(omega0=1e-3, omega_c=1e-3)
lo = ThermalRegime(RegimeKind.LOW_TEMPERATURE)
grid = np.logspace(-6, 2, 300)
cs = curve(sys_lo, SD, lo, SEP, grid)
win = (sys_lo.omega0 * grid < 0.1) & (LAM * grid > 10.0)
sl, ic = np.polyfit(np.log(grid[win]), np.log(cs.magnitude[win]), 1)
exponent, c_const = lowtemp_powerlaw(sys_lo, SD, SEP)
print("quantum:   log-log slope %.4f (analytic -%g), -intercept %.4f (log c formula %.4f)"
      % (sl, exponent, -ic, np.log(c_const)))
print("the power law is the quantum zero-point signature: decay slows from"
      " e^{-rate t} to (c t)^{-2}")
