"""Canonical-ensemble potentials and averages from a discrete spectrum.

All thermodynamics here is derived from a list of (energy, degeneracy)
levels -- the only representation of the density operator used anywhere.
Conventions: k_B = 1, beta = 1/T, energies in the model's natural units.

Numerical stability: every Boltzmann sum is anchored at the ground-state
energy, so all exponentials are <= 1 and lnZ stays finite for arbitrarily
large beta.
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

    def shifted(self, offset: float) -> "Spectrum":
        """Same spectrum with a constant added to every level."""
        return Spectrum(self.energies + offset, self.degeneracies)


@dataclass(frozen=True)
class EnsemblePoint:
    """One point on the temperature axis; beta is the internal variable."""

    beta: float

    def __post_init__(self):
        if not (np.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"beta must be finite and positive, got {self.beta}")

    @classmethod
    def from_temperature(cls, temperature: float) -> "EnsemblePoint":
        if not (np.isfinite(temperature) and temperature > 0):
            raise ValueError(f"temperature must be finite and positive, got {temperature}")
        return cls(beta=1.0 / temperature)

    @property
    def temperature(self) -> float:
        return 1.0 / self.beta


@dataclass(frozen=True)
class ThermoPotentials:
    """Bundle {lnZ, F, E, S} at one (beta, lam) point."""

    ln_z: float
    free_energy: float
    energy: float
    entropy: float


def _weights(spectrum: Spectrum, beta: float):
    """Ground-state-anchored Boltzmann weights exp(ln g_n - beta (E_n - E_min))."""
    e = spectrum.energies
    e_min = e[0]
    w = np.exp(spectrum.log_degeneracies - beta * (e - e_min))
    return w, e_min


def log_partition(spectrum: Spectrum, point: EnsemblePoint) -> float:
    """ln Z = ln sum_n g_n exp(-beta E_n), evaluated in the log domain."""
    w, e_min = _weights(spectrum, point.beta)
    return -point.beta * e_min + float(np.log(w.sum()))


def potentials(spectrum: Spectrum, point: EnsemblePoint) -> ThermoPotentials:
    """Free energy, mean energy and entropy of a spectrum at one temperature.

    E is the ensemble average sum_n p_n E_n (no differentiation in beta);
    F = -lnZ/beta and S = beta (E - F).
    """
    beta = point.beta
    w, e_min = _weights(spectrum, beta)
    z0 = w.sum()
    ln_z = -beta * e_min + float(np.log(z0))
    energy = float(np.dot(w, spectrum.energies) / z0)
    free_energy = -ln_z / beta
    entropy = beta * (energy - free_energy)
    return ThermoPotentials(ln_z=ln_z, free_energy=free_energy, energy=energy, entropy=entropy)


def thermal_average(per_level_values, spectrum: Spectrum, point: EnsemblePoint) -> float:
    """Boltzmann average of a per-level observable.

    ``per_level_values[n]`` must be the expectation within level n, already
    averaged over the degenerate subspace (trace over the subspace divided
    by the degeneracy).
    """
    v = np.asarray(per_level_values, dtype=float)
    if v.shape != spectrum.energies.shape:
        raise ValueError(
            f"per-level values ({v.shape}) must align with spectrum ({spectrum.energies.shape})"
        )
    w, _ = _weights(spectrum, point.beta)
    return float(np.dot(w, v) / w.sum())
