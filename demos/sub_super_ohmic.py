#!/usr/bin/env python3
"""Sub-Ohmic (s = 1/2), Ohmic (s = 1) and super-Ohmic (s = 3/2) baths.

At fixed cutoff model and temperature regime, the larger the spectral
exponent the faster coherence dies: super-Ohmic baths carry far more weight
at the high frequencies that dominate the noise kernel around tau ~ 1/Lam.
Prints the magnitude at a probe time for every (s, cutoff) pair in both
regimes and writes one CSV per combination.
"""

from pathlib import Path

import numpy as np

from qbmag import (
    Cutoff,
    RegimeKind,
    Separation,
    SpectralDensity,
    SystemParams,
    ThermalRegime,
    curve,
)

OUT = Path(__file__).resolve().parent
LAM = 1e3
GRID = np.logspace(np.log10(1e-3 / LAM), np.log10(0.7), 200)
SEP = Separation(1.0, 1.0)

for label, rkind, oth in (
    ("quantum", RegimeKind.LOW_TEMPERATURE, 0.01),
    ("classical", RegimeKind.HIGH_TEMPERATURE, 1e3),
):
    sys_params = SystemParams(omega0=10.0, omega_c=1.0)
    regime = ThermalRegime(rkind, oth)
    print("-- %s regime (Omega_th = %g)" % (label, oth))
    for cutoff in (Cutoff.ABRUPT, Cutoff.DRUDE_LORENTZ, Cutoff.EXPONENTIAL):
        row = {}
        for s in (0.5, 1.0, 1.5):
            sd = SpectralDensity(s, cutoff, LAM)
            series = curve(sys_params, sd, regime, SEP, GRID)
            np.savetxt(
                OUT / ("decay_%s_%s_s%02d.csv" % (label, cutoff.value, int(10 * s))),
                np.column_stack([series.times, series.magnitude]),
                delimiter=",",
                header="t,magnitude",
                comments="",
            )
            # probe where the Ohmic curve is mid-decay
            if s == 1.0:
                idx = np.argmin(np.abs(series.magnitude - 0.3))
            row[s] = series.magnitude
        t_probe = GRID[idx]
        print(
            "   %-7s at t = %.2e: |rho| = %.3e (s=1/2) > %.3e (s=1) > %.3e (s=3/2)"
            % (cutoff.value, t_probe, row[0.5][idx], row[1.0][idx], row[1.5][idx])
        )
