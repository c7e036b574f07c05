"""One-dimensional harmonic oscillator in h.o. units.

The coupling lam multiplies the potential term, which renormalizes the
frequency by sqrt(lam): E_n(lam) = (n + 1/2) sqrt(lam). ho_closed_potentials
gives lnZ, F, E, S and <x^2/2> in closed form, the oracle for the generic
spectrum + finite-difference machinery, at a single temperature or a grid.

The engine sums a truncated spectrum, each temperature with the levels
the truncation rule asks for at that temperature and coupling, rounded up
to 64 * 2^k and capped at the rule's count at the model's t_max; one engine
call per coupling takes every temperature, and temperatures that round to
the same count share its blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..ensemble import EnsemblePoint, Spectrum, ThermoPotentials, potentials

__all__ = [
    "HarmonicOscillator",
    "ho_spectrum",
    "ho_closed_potentials",
    "ho_entropy_lambda_derivative",
    "truncation_level",
]

# Largest truncation level: bounds the level arrays (8 MB each) and the
# per-temperature work; the truncation rule reaches it at T_max = 26214.4.
MAX_LEVELS = 2**20


def truncation_level(t_max: float) -> int:
    """Truncation level keeping the neglected Boltzmann tail below 1e-16.

    n_max = max(64, ceil(40 T_max)) gives tail weight exp(-beta sqrt(lam) n_max)
    < 1e-16 for every beta >= 1/T_max and lam >= 1; a smaller lam needs the
    level of T_max / sqrt(lam). Raises ValueError where that is more than
    MAX_LEVELS.
    """
    levels = 40.0 * t_max
    if not levels <= MAX_LEVELS:  # also inf and nan
        raise ValueError(f"T_max = {t_max:g} needs {levels:.3g} oscillator levels, "
                         f"more than the {MAX_LEVELS} allowed")
    return max(64, math.ceil(levels))


def _frequency(lam: float) -> float:
    """sqrt(lam); raises ValueError unless lam > 0 (nan passes through)."""
    if lam <= 0:
        raise ValueError(f"coupling must be positive, got {lam}")
    return math.sqrt(lam)


def ho_spectrum(lam: float, n_max: int) -> Spectrum:
    """Levels (n + 1/2) sqrt(lam), n = 0..n_max, all non-degenerate."""
    n = np.arange(n_max + 1, dtype=float)
    return Spectrum((n + 0.5) * _frequency(lam))


def ho_closed_potentials(lam: float, point: EnsemblePoint) -> ThermoPotentials:
    """Exact lnZ, F, E, S and h1 = <x^2/2> = dF/dlam of the oscillator with
    frequency w = sqrt(lam), the bundle the model's potentials returns:
    h1 = (1/2 + 1/(e^{beta w} - 1)) / (2 w), the virial E / (2 lam)."""
    beta = point.beta
    w = _frequency(lam)
    bw = beta * w
    # lnZ = -bw/2 - ln(1 - e^{-bw})
    ln_z = -0.5 * bw - np.log1p(-np.exp(-bw))
    occupation = np.exp(-bw) / (-np.expm1(-bw))  # 1/(e^{bw}-1)
    return ThermoPotentials.from_ln_z(beta, ln_z, w * (0.5 + occupation),
                                      (0.5 + occupation) / (2.0 * w))


def ho_entropy_lambda_derivative(point: EnsemblePoint):
    """dS/dlam at lam = 1, which is -d<x^2/2>/dT: -(beta^2/2) e^{-beta}/(1 - e^{-beta})^2."""
    beta = point.beta
    denom = -np.expm1(-beta)
    return -0.5 * beta * beta * np.exp(-beta) / (denom * denom)


def _truncation_levels(lam: float, point: EnsemblePoint, n_max: int) -> np.ndarray:
    """Per temperature of the point, as an int array: the truncation_level
    rule at that temperature and coupling, rounded up to 64 * 2^k, at most
    n_max."""
    w = _frequency(lam)
    # a huge T or a nan lam asks for more than the cap, which fmin keeps
    with np.errstate(over="ignore"):
        levels = np.fmin(np.ceil(40.0 * np.atleast_1d(point.temperature) / w), n_max)
    blocks = np.ceil(np.maximum(levels, 64.0) / 64.0)
    # 64 * 2^k with 2^(k-1) < blocks <= 2^k: k is frexp's exponent of blocks - 1
    return np.minimum(64 * np.left_shift(1, np.frexp(blocks - 1.0)[1]), n_max)


@dataclass(frozen=True)
class HarmonicOscillator:
    """Truncated-spectrum oscillator backend serving temperatures up to t_max.

    Each temperature T gets max(64, ceil(40 T / sqrt(lam))) levels, the
    truncation_level rule at that T and coupling, rounded up to 64 * 2^k and
    capped at truncation_level(t_max), so no temperature up to t_max is cut
    short at lam >= 1. t_max must be positive and within MAX_LEVELS' reach;
    the default, 26214.4, is the hottest it reaches, and costs nothing at
    the temperatures that need fewer levels.
    """

    t_max: float = MAX_LEVELS / 40

    def __post_init__(self):
        if not self.t_max > 0:  # also nan
            raise ValueError(f"t_max must be positive, got {self.t_max!r}")
        truncation_level(self.t_max)

    def potentials(self, lam: float, point: EnsemblePoint, *, h1: bool = True) -> ThermoPotentials:
        """Engine potentials of the truncated spectrum, one engine call with
        each temperature's own level count; h1 is ho_closed_potentials' <x^2/2>,
        or None with h1=False."""
        levels = _truncation_levels(lam, point, truncation_level(self.t_max))
        numeric = potentials(ho_spectrum(lam, int(levels.max())), point, n_levels=levels + 1)
        return replace(numeric, h1=ho_closed_potentials(lam, point).h1) if h1 else numeric
