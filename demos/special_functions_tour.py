#!/usr/bin/env python3
"""Quick tour of the special-function kernel behind the closed forms.

The analytic coefficients consume sine/cosine integrals at complex
arguments like (Lam t -+ i) z / Lam.  The Hurwitz-Lerch transcendent at
s = 1 is the Gauss function Phi(z, 1, a) = 2F1(1, a; a+1; z)/a, the form the
exact Drude-Lorentz pole sum takes from scipy.  Each is checked here
against a throwaway brute-force evaluation.
"""

import math

import numpy as np
from scipy.special import hyp2f1

from qbmag.specfun import cos_integral, sin_integral

z = 2.0 - 0.3j
series = sum((-1) ** k * z ** (2 * k + 1) / ((2 * k + 1) * math.factorial(2 * k + 1)) for k in range(40))
print("Si(%s) = %s   (series %s)" % (z, sin_integral(z), series))
print("Ci(1)  = %s   (gamma + integral form)" % cos_integral(1.0))
print("Si(x) -> pi/2: Si(1e4) = %.6f" % sin_integral(1e4).real)

# conjugate symmetry, the property that makes the g-combinations real
w = (1000 * 0.08 - 1j) * 10.5 / 1000
print("Ci(w) + Ci(conj w) = %s (imaginary part cancels)" % (cos_integral(w) + cos_integral(np.conj(w))))

brute = sum(0.3**k / (k + 1.7) for k in range(200))
print("2F1(1, 1.7; 2.7; 0.3)/1.7 = %.15f (brute force Phi(0.3, 1, 1.7) %.15f)" % (hyp2f1(1.0, 1.7, 2.7, 0.3) / 1.7, brute))
