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
    potentials,
)
from .numdiff import DiffConfig, central_diff

__all__ = [
    "EnsemblePoint",
    "Spectrum",
    "ThermoPotentials",
    "potentials",
    "DiffConfig",
    "central_diff",
]
