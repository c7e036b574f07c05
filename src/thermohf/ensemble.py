"""Canonical-ensemble potentials and averages from a discrete spectrum.

All thermodynamics here is derived from a list of (energy, degeneracy)
levels -- the only representation of the density operator used anywhere.
Conventions: k_B = 1, beta = 1/T, energies in the model's natural units.

Numerical stability: every Boltzmann sum is anchored at the ground-state
energy, so all exponentials are <= 1 and lnZ stays finite for arbitrarily
large beta.

A point may hold one temperature or a 1-D grid of them. A grid is
evaluated as one (temperatures x levels) log-sum-exp, formed a block of
temperatures at a time; a single temperature gives floats, a grid arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Spectrum",
    "EnsemblePoint",
    "ThermoPotentials",
    "log_partition",
    "potentials",
    "thermal_average",
]

# Most (temperature, level) weights formed at once; bounds the temporaries
# of a whole-grid evaluation.
_BLOCK_ELEMENTS = 2**16


@dataclass(frozen=True)
class Spectrum:
    """Sorted eigenvalues with exact integer degeneracies.

    Parameters
    ----------
    energies : array_like
        Level energies, ascending.
    degeneracies : array_like, optional
        Positive integer weight per level. Defaults to all ones. Weights
        beyond the int64 range are kept as Python ints in an object array.

    ``log_degeneracies`` holds ln g per level, computed once, so Boltzmann
    weights never form g itself as a float.
    """

    energies: np.ndarray
    degeneracies: np.ndarray = None
    log_degeneracies: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        e = np.atleast_1d(np.asarray(self.energies, dtype=float))
        if e.size == 0:
            raise ValueError("spectrum must contain at least one level")
        if not np.all(np.isfinite(e)):
            raise ValueError("spectrum energies must be finite")
        if np.any(np.diff(e) < 0):
            raise ValueError("spectrum energies must be sorted ascending")
        if self.degeneracies is None:
            g = np.ones(e.shape, dtype=np.int64)
        else:
            g = np.atleast_1d(np.asarray(self.degeneracies))
            if g.shape != e.shape:
                raise ValueError("degeneracies must align with energies")
            if g.dtype == object:
                if not all(isinstance(x, (int, np.integer)) for x in g):
                    raise ValueError("degeneracies must be integers")
            elif not np.issubdtype(g.dtype, np.integer):
                gi = g.astype(np.int64)
                if not np.array_equal(gi, g):
                    raise ValueError("degeneracies must be integers")
                g = gi
            if np.any(g < 1):
                raise ValueError("degeneracies must be >= 1")
        e = e.copy()
        e.flags.writeable = False
        g = g.copy()
        g.flags.writeable = False
        # math.log takes integers of any size; np.log only fixed-width ones
        log_g = np.array([math.log(x) for x in g]) if g.dtype == object else np.log(g)
        log_g.flags.writeable = False
        object.__setattr__(self, "energies", e)
        object.__setattr__(self, "degeneracies", g)
        object.__setattr__(self, "log_degeneracies", log_g)

    def __len__(self):
        return self.energies.size

    @property
    def dimension(self) -> int:
        """Total weighted number of states, summed exactly as Python ints."""
        return sum(self.degeneracies.tolist())


def _check_positive(name: str, value):
    v = np.asarray(value, dtype=float)
    if v.ndim > 1 or not np.all(np.isfinite(v) & (v > 0)):
        raise ValueError(f"{name} must be finite and positive, got {value}")
    return v


@dataclass(frozen=True)
class EnsemblePoint:
    """One temperature or a 1-D grid of them; beta is the internal variable.

    Every entry must be finite and positive. A grid is stored as a
    read-only float array.
    """

    beta: float | np.ndarray

    def __post_init__(self):
        beta = _check_positive("beta", self.beta)
        if beta.ndim == 1:
            beta = beta.copy()
            beta.flags.writeable = False
            object.__setattr__(self, "beta", beta)

    @classmethod
    def from_temperature(cls, temperature) -> "EnsemblePoint":
        t = _check_positive("temperature", temperature)
        return cls(beta=1.0 / t if t.ndim else 1.0 / float(t))

    @property
    def temperature(self):
        return 1.0 / self.beta


@dataclass(frozen=True)
class ThermoPotentials:
    """Bundle {lnZ, F, E, S} at one (beta, lam) point, or arrays over a grid."""

    ln_z: float | np.ndarray
    free_energy: float | np.ndarray
    energy: float | np.ndarray
    entropy: float | np.ndarray


def _boltzmann_sums(spectrum: Spectrum, point: EnsemblePoint, values):
    """Per temperature: sum_n w_n and sum_n w_n values_n, as 1-D arrays.

    w_n = exp(ln g_n - beta (E_n - E_min)) is anchored at the ground state.
    Each temperature's sums depend only on its own beta, so a grid gives
    the same numbers as its temperatures one at a time.
    """
    betas = np.atleast_1d(point.beta)
    gap = spectrum.energies - spectrum.energies[0]
    rows = max(1, _BLOCK_ELEMENTS // gap.size)
    z0 = np.empty(betas.size)
    total = np.empty(betas.size)
    for i in range(0, betas.size, rows):
        w = np.exp(spectrum.log_degeneracies - betas[i:i + rows, None] * gap)
        z0[i:i + rows] = w.sum(axis=1)
        total[i:i + rows] = (w * values).sum(axis=1)
    return z0, total


def _like_beta(values: np.ndarray, point: EnsemblePoint):
    """A float for a single temperature, the array for a grid."""
    return float(values[0]) if np.ndim(point.beta) == 0 else values


def potentials(spectrum: Spectrum, point: EnsemblePoint) -> ThermoPotentials:
    """Free energy, mean energy and entropy of a spectrum at each temperature.

    E is the ensemble average sum_n p_n E_n (no differentiation in beta);
    F = -lnZ/beta and S = beta (E - F).
    """
    beta = np.atleast_1d(point.beta)
    z0, weighted_e = _boltzmann_sums(spectrum, point, spectrum.energies)
    ln_z = -beta * spectrum.energies[0] + np.log(z0)
    energy = weighted_e / z0
    free_energy = -ln_z / beta
    entropy = beta * (energy - free_energy)
    return ThermoPotentials(*(_like_beta(x, point) for x in (ln_z, free_energy, energy, entropy)))


def log_partition(spectrum: Spectrum, point: EnsemblePoint):
    """ln Z = ln sum_n g_n exp(-beta E_n), evaluated in the log domain."""
    return potentials(spectrum, point).ln_z


def thermal_average(per_level_values, spectrum: Spectrum, point: EnsemblePoint):
    """Boltzmann average of a per-level observable at each temperature.

    ``per_level_values[n]`` must be the expectation within level n, already
    averaged over the degenerate subspace (trace over the subspace divided
    by the degeneracy).
    """
    v = np.asarray(per_level_values, dtype=float)
    if v.shape != spectrum.energies.shape:
        raise ValueError(
            f"per-level values ({v.shape}) must align with spectrum ({spectrum.energies.shape})"
        )
    z0, weighted = _boltzmann_sums(spectrum, point, v)
    return _like_beta(weighted / z0, point)
