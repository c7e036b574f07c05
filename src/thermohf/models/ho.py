"""One-dimensional harmonic oscillator in h.o. units.

The coupling lam multiplies the potential term, which renormalizes the
frequency by sqrt(lam): E_n(lam) = (n + 1/2) sqrt(lam). Closed forms for
all potentials exist and serve as the oracle for the generic spectrum +
finite-difference machinery. The closed forms take a single temperature
or a grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..ensemble import EnsemblePoint, Spectrum, ThermoPotentials, potentials

__all__ = [
    "HarmonicOscillator",
    "ho_spectrum",
    "ho_closed_potentials",
    "ho_potential_average",
    "ho_entropy_lambda_derivative",
    "truncation_level",
]


def truncation_level(t_max: float, lam_min: float = 1.0) -> int:
    """Truncation level keeping the neglected Boltzmann tail below 1e-16.

    n_max = max(64, ceil(40 T_max / sqrt(lam_min))) gives tail weight
    exp(-beta sqrt(lam) n_max) < 1e-16 for every beta >= 1/T_max.
    """
    return max(64, math.ceil(40.0 * t_max / math.sqrt(lam_min)))


def ho_spectrum(lam: float, n_max: int) -> Spectrum:
    """Levels (n + 1/2) sqrt(lam), n = 0..n_max, all non-degenerate."""
    if lam <= 0:
        raise ValueError(f"coupling must be positive, got {lam}")
    n = np.arange(n_max + 1, dtype=float)
    return Spectrum((n + 0.5) * math.sqrt(lam))


def ho_closed_potentials(lam: float, point: EnsemblePoint) -> ThermoPotentials:
    """Exact lnZ, F, E, S of the oscillator with frequency sqrt(lam)."""
    if lam <= 0:
        raise ValueError(f"coupling must be positive, got {lam}")
    beta = point.beta
    w = math.sqrt(lam)
    bw = beta * w
    # lnZ = -bw/2 - ln(1 - e^{-bw})
    ln_z = -0.5 * bw - np.log1p(-np.exp(-bw))
    free_energy = -ln_z / beta
    occupation = np.exp(-bw) / (-np.expm1(-bw))  # 1/(e^{bw}-1)
    energy = w * (0.5 + occupation)
    entropy = beta * (energy - free_energy)
    return ThermoPotentials(ln_z=ln_z, free_energy=free_energy, energy=energy, entropy=entropy)


def ho_potential_average(point: EnsemblePoint):
    """Thermal average of the potential term x^2/2 at lam = 1.

    Equals dF/dlam at lam = 1: 1/4 + (1/2) e^{-beta}/(1 - e^{-beta}).
    """
    beta = point.beta
    return 0.25 + 0.5 * np.exp(-beta) / (-np.expm1(-beta))


def ho_entropy_lambda_derivative(point: EnsemblePoint):
    """dS/dlam at lam = 1: -(beta^2/2) e^{-beta}/(1 - e^{-beta})^2.

    Also equals minus the temperature derivative of the potential average.
    """
    beta = point.beta
    denom = -np.expm1(-beta)
    return -0.5 * beta * beta * np.exp(-beta) / (denom * denom)


@dataclass(frozen=True)
class HarmonicOscillator:
    """Truncated-spectrum oscillator backend.

    n_max must satisfy the truncation_level bound for every temperature the
    model is evaluated at.
    """

    n_max: int = 1024

    def __post_init__(self):
        if self.n_max < 64:
            raise ValueError(f"n_max must be >= 64, got {self.n_max}")

    def potentials(self, lam: float, point: EnsemblePoint) -> ThermoPotentials:
        return potentials(ho_spectrum(lam, self.n_max), point)

    def h1_direct(self, point: EnsemblePoint):
        """Closed-form thermal average of the potential term at lam = 1."""
        return ho_potential_average(point)
