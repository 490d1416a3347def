#!/usr/bin/env python3
"""Decay of the off-diagonal density matrix for an Ohmic bath, three cutoffs.

Reproduces the canonical parameter sets (trap omega0 = 10, cyclotron
omega_c = 1, Lam = 1e3, dx = dy = 1, everything in gamma/m units):

  * quantum regime  (Omega_th = 0.01, coth -> 1): slow, eventually power-law
  * classical regime (Omega_th = 1e3, coth -> Omega_th/w): fast exponential

One CSV per (regime, cutoff) is written next to this script.  Note the
Drude-Lorentz curve always falls below the exponential-cutoff curve in the
mid-decay region, and both temperatures show it.
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
SEP = Separation(1.0, 1.0)
GRID = np.logspace(np.log10(1e-3 / LAM), np.log10(0.7), 250)

for label, rkind, oth in (
    ("quantum", RegimeKind.LOW_TEMPERATURE, 0.01),
    ("classical", RegimeKind.HIGH_TEMPERATURE, 1e3),
):
    sys_params = SystemParams(omega0=10.0, omega_c=1.0)
    regime = ThermalRegime(rkind, oth)
    mags = {}
    for cutoff in (Cutoff.ABRUPT, Cutoff.DRUDE_LORENTZ, Cutoff.EXPONENTIAL):
        sd = SpectralDensity(1.0, cutoff, LAM)
        series = curve(sys_params, sd, regime, SEP, GRID)
        mags[cutoff.value] = series.magnitude
        fname = "decay_%s_%s.csv" % (label, cutoff.value)
        np.savetxt(
            OUT / fname,
            np.column_stack([series.times, series.magnitude, series.phase]),
            delimiter=",",
            header="t,magnitude,phase",
            comments="",
        )
    mid = (mags["exp"] > 0.01) & (mags["exp"] < 0.99)
    print(
        "%s regime: DL below Exp on all %d mid-decay points: %s"
        % (label, mid.sum(), bool(np.all(mags["drude"][mid] < mags["exp"][mid])))
    )

print("wrote decay_{quantum,classical}_{abrupt,drude,exp}.csv")
