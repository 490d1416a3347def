"""Decoherence of a charged Brownian particle in a magnetic field.

Bath spectral densities with three ultraviolet-cutoff models, noise and
dissipation kernels (defining quadrature and analytic forms), the
master-equation coefficients lambda1/lambda2, and the decay of the
off-diagonal reduced density matrix, with a dual closed-form/quadrature
validation layer.
"""

from .bath import (
    Cutoff,
    RegimeKind,
    SpectralDensity,
    ThermalRegime,
    dissipation_kernel_quadrature,
    dissipation_kernel_reference,
    drude_exact_kernel,
    noise_kernel_closed_parts,
    noise_kernel_quadrature,
    noise_kernel_reference,
    spectral_density,
)
from .coefficients import (
    FINDINGS,
    LambdaPair,
    g_function,
    lambda_closed,
    lambda_from_kernel,
    lambda_quadrature,
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
    frequency_shift,
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
    "dissipation_kernel_quadrature",
    "dissipation_kernel_reference",
    "drude_exact_kernel",
    "mode_constants",
    "f_weight",
    "heisenberg_transfer",
    "frequency_shift",
    "lambda_quadrature",
    "lambda_closed",
    "lambda_from_kernel",
    "g_function",
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
