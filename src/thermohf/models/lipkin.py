"""Two-level Lipkin model over SU(2) quasi-spin blocks.

H(lam) = eps*J0 + lam*H1 with H1 = -(V/2)(Jp^2 + Jm^2). The Fock space of
N particles splits into angular-momentum blocks j = j_min..N/2, each
occurring with an exact integer multiplicity; the full spectrum is the
multiplicity-weighted union of the block spectra. Each block is
diagonalized with numpy's LAPACK ``eigh``.

Half-integer j is carried as twice-j integers so all bookkeeping is exact.
Multiplicities stay exact integers at any N: int64 while they fit, Python
ints from N = 63 on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..ensemble import EnsemblePoint, Spectrum, ThermoPotentials, potentials

__all__ = [
    "LipkinModel",
    "multiplicity",
    "build_block",
    "build_block_h1",
    "lipkin_spectrum",
    "lipkin_levels_with_h1",
]


def multiplicity(n_particles: int, two_j: int) -> int:
    """Number of SU(2) blocks with angular momentum j = two_j/2 for N spins.

    (1 + 2j)/(1 + j + N/2) * C(N, N/2 - j), evaluated in exact integer
    arithmetic (the division is exact).
    """
    n = n_particles
    if two_j < 0 or two_j > n or (n - two_j) % 2 != 0:
        raise ValueError(f"j = {two_j}/2 is not a valid block for N = {n}")
    numerator = 2 * (1 + two_j) * math.comb(n, (n - two_j) // 2)
    denominator = 2 + two_j + n
    if numerator % denominator != 0:
        raise AssertionError("multiplicity formula must divide exactly")
    return numerator // denominator


def _block_j_values(n_particles: int):
    """two_j values from j_min (0 or 1/2) up to N/2."""
    start = n_particles % 2
    return range(start, n_particles + 1, 2)


def build_block_h1(two_j: int, v_coupling: float) -> np.ndarray:
    """Matrix of H1 = -(V/2)(Jp^2 + Jm^2) in the ordered m-basis of one block.

    Couples only m <-> m+2: element -(V/2) sqrt(j(j+1)-m(m+1)) *
    sqrt(j(j+1)-(m+1)(m+2)).
    """
    dim = two_j + 1
    h1 = np.zeros((dim, dim))
    jj = 0.25 * two_j * (two_j + 2)  # j(j+1)
    i = np.arange(dim - 2)
    m = -0.5 * two_j + i
    amp = np.sqrt(jj - m * (m + 1)) * np.sqrt(jj - (m + 1) * (m + 2))
    h1[i, i + 2] = h1[i + 2, i] = -0.5 * v_coupling * amp
    return h1


def build_block(two_j: int, epsilon: float, v_coupling: float, lam: float = 1.0) -> np.ndarray:
    """Block Hamiltonian eps*diag(m) + lam*H1 in the ordered m-basis."""
    dim = two_j + 1
    m = -0.5 * two_j + np.arange(dim)
    return np.diag(epsilon * m) + lam * build_block_h1(two_j, v_coupling)


def _block_eigensystem(two_j: int, epsilon: float, v_coupling: float, lam: float):
    """Eigenvalues and H1 expectations of one block, one m-parity sector
    after the other, each sector in ascending order.

    The block couples only m <-> m+2, so even and odd m-offsets decouple
    and are diagonalized separately. H1 conserves that parity too, and the
    eigenvalues within a sector are simple (a tridiagonal matrix with
    nonzero off-diagonal), so each eigenvector's <H1> is basis independent.
    """
    h = build_block(two_j, epsilon, v_coupling, lam)
    h1 = build_block_h1(two_j, v_coupling)
    energies = []
    h1_values = []
    for p in (0, 1):
        values, vectors = np.linalg.eigh(h[p::2, p::2])
        energies.append(values)
        h1_values.append(np.einsum("ij,jk,ki->i", vectors.T, h1[p::2, p::2], vectors))
    return np.concatenate(energies), np.concatenate(h1_values)


@dataclass(frozen=True)
class LipkinModel:
    """N particles on two levels split by epsilon, interacting with strength V."""

    n_particles: int = 10
    epsilon: float = 1.0
    v_coupling: float = 3.0

    def __post_init__(self):
        if self.n_particles < 1:
            raise ValueError(f"need at least one particle, got {self.n_particles}")
        if not 0 < self.epsilon < math.inf:
            raise ValueError(f"level splitting must be positive and finite, got {self.epsilon}")
        if not math.isfinite(self.v_coupling):
            raise ValueError(f"v_coupling must be finite, got {self.v_coupling}")

    def potentials(self, lam: float, point: EnsemblePoint) -> ThermoPotentials:
        """Potentials of H(lam), with h1 = <H1>_T from v^T H1 v per eigenvector.

        h1 takes no coupling derivative: the per-eigenvector values are
        Boltzmann-averaged with the block multiplicities.
        """
        spectrum, h1 = lipkin_levels_with_h1(self, lam)
        return potentials(spectrum, point, h1)


def lipkin_levels_with_h1(model: LipkinModel, lam: float = 1.0):
    """(Spectrum, aligned per-level H1 expectations) over all blocks.

    Each block eigenvalue enters once with the block multiplicity as its
    degeneracy; levels are globally sorted ascending.
    """
    two_js = _block_j_values(model.n_particles)
    mults = [multiplicity(model.n_particles, two_j) for two_j in two_js]
    g_dtype = np.int64 if max(mults) <= np.iinfo(np.int64).max else object
    all_e = []
    all_g = []
    all_h1 = []
    for two_j, mult in zip(two_js, mults):
        energies, h1_values = _block_eigensystem(
            two_j, model.epsilon, model.v_coupling, lam
        )
        all_e.append(energies)
        all_g.append(np.full(energies.size, mult, dtype=g_dtype))
        all_h1.append(h1_values)
    e = np.concatenate(all_e)
    g = np.concatenate(all_g)
    h1 = np.concatenate(all_h1)
    order = np.argsort(e, kind="stable")
    return Spectrum(e[order], g[order]), h1[order]


def lipkin_spectrum(model: LipkinModel, lam: float = 1.0) -> Spectrum:
    """Multiplicity-weighted spectrum of H(lam); weighted dimension is 2^N."""
    spectrum, _ = lipkin_levels_with_h1(model, lam)
    return spectrum
