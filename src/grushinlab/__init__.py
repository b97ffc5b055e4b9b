"""grushinlab: a numerical laboratory for Grushin-type degenerate diffusion.

Explicit quasi-distances, ball volumes and doubling exponents of the
degenerate metric; finite-volume divergence-form operators with harmonic face
averaging; heat-semigroup, wave-propagator and Fourier-multiplier experiments
that verify conservation, decay exponents, Gaussian bounds, Davies-Gaffney
estimates, finite propagation speed, kernel comparison and the weak/strong
degeneracy dichotomy at desk scale.
"""

from .coefficients import (
    CoefficientField,
    DerivedExponents,
    GrusinParameters,
    coefficient_profile,
    derive_exponents,
    piecewise_power,
)

__version__ = "0.1.0"

__all__ = [
    "CoefficientField",
    "DerivedExponents",
    "GrusinParameters",
    "coefficient_profile",
    "derive_exponents",
    "piecewise_power",
    "__version__",
]
