"""Decoherence of a charged Brownian particle in a magnetic field.

Bath spectral densities with three ultraviolet-cutoff models, the noise
kernel (defining quadrature and analytic forms), the master-equation
coefficients lambda1/lambda2, and the decay of the off-diagonal reduced
density matrix, with a dual closed-form/quadrature validation layer.
"""

from .bath import (
    Cutoff,
    RegimeKind,
    SpectralDensity,
    ThermalRegime,
    drude_exact_kernel,
    noise_kernel_closed_parts,
    noise_kernel_quadrature,
    noise_kernel_reference,
    spectral_density,
)
from .coefficients import (
    FINDINGS,
    LambdaPair,
    lambda_closed,
    lambda_from_kernel,
)
from .decoherence import (
    CurveSeries,
    DecoherenceExponent,
    Separation,
    curve,
    curves,
    default_grid,
    density_ratio,
    exponents,
    hightemp_rate,
    lowtemp_powerlaw,
)
from .dynamics import (
    ModeConstants,
    SystemParams,
    f_weight,
    heisenberg_transfer,
    mode_constants,
)
from . import errors, specfun

__all__ = [
    "Cutoff",
    "RegimeKind",
    "SpectralDensity",
    "ThermalRegime",
    "SystemParams",
    "ModeConstants",
    "Separation",
    "DecoherenceExponent",
    "CurveSeries",
    "LambdaPair",
    "FINDINGS",
    "spectral_density",
    "noise_kernel_quadrature",
    "noise_kernel_closed_parts",
    "noise_kernel_reference",
    "drude_exact_kernel",
    "mode_constants",
    "f_weight",
    "heisenberg_transfer",
    "lambda_closed",
    "lambda_from_kernel",
    "exponents",
    "density_ratio",
    "hightemp_rate",
    "lowtemp_powerlaw",
    "curve",
    "curves",
    "default_grid",
    "errors",
    "specfun",
]

__version__ = "0.1.0"
