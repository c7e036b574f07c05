"""Canonical-ensemble thermodynamics for parametric Hamiltonians H(lam) = H0 + lam*H1.

The package computes partition functions, thermodynamic potentials and
Boltzmann-weighted averages from discrete spectra, and cross-checks the
finite-temperature Hellmann-Feynman identity dF/dlam = <H1>_T (and its
entropy corollary dS/dlam = -d<H1>/dT) on three backends: the 1D harmonic
oscillator, the 1D Ising chain and the Lipkin two-level model.
"""

from .ensemble import (
    EnsemblePoint,
    Spectrum,
    ThermoPotentials,
    log_partition,
    potentials,
    thermal_average,
)
from .numdiff import DiffConfig, central_diff, lambda_derivatives

__all__ = [
    "EnsemblePoint",
    "Spectrum",
    "ThermoPotentials",
    "log_partition",
    "potentials",
    "thermal_average",
    "DiffConfig",
    "central_diff",
    "lambda_derivatives",
]
