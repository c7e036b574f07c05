"""Two-level Lipkin model over SU(2) quasi-spin blocks.

H(lam) = eps*J0 + lam*H1 with H1 = -(V/2)(Jp^2 + Jm^2). The Fock space of
N particles splits into angular-momentum blocks j = j_min..N/2, each
occurring with an exact integer multiplicity; the full spectrum is the
multiplicity-weighted union of the block spectra.

A block couples only m <-> m+2, so it falls into two tridiagonal m-parity
sectors. The sectors come in batches of at most _BATCH_ELEMENTS padded
matrix elements, each built once per model at its own largest sector size
(with the per-level multiplicities, but no ln g, kept read-only on the
model), and diagonalized by one stacked LAPACK call per batch: each
sector is padded to the batch's largest with decoupled diagonal entries
above the batch's Gershgorin bound, so its eigenvalues come out bit for bit
as from its own call. One generator, ``_padded_stacks``, writes the stacks
of H(lam); ``lipkin_levels`` solves them: with h1 it calls ``eigh``, and
each eigenvector's <H1> is 2 sum_i o_i v_i v_i+1 over the sector's
off-diagonal o, O(n) per vector; without, it calls ``eigvalsh`` and forms
no eigenvectors. The sorted levels make a checked Spectrum like any other.

Half-integer j is carried as twice-j integers so all bookkeeping is exact.
Multiplicities stay exact integers at any N: int64 to N = 62, Python
ints from N = 63 on.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ..ensemble import EnsemblePoint, Spectrum, ThermoPotentials, potentials

__all__ = ["LipkinModel", "multiplicity", "lipkin_levels"]

# Most matrix elements in one stacked LAPACK call; bounds its memory at large N.
_BATCH_ELEMENTS = 2**18
# Largest particle number: the spectrum has about N^2/4 levels, and the
# default grid at this N takes about 40 s and 73 MB.
MAX_PARTICLES = 1040


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


def _h1_amplitudes(two_j, m):
    """sqrt(j(j+1)-m(m+1)) * sqrt(j(j+1)-(m+1)(m+2)): the m <-> m+2 amplitude
    of Jp^2 + Jm^2; two_j and m broadcast."""
    jj = 0.25 * two_j * (two_j + 2)  # j(j+1)
    return np.sqrt(jj - m * (m + 1)) * np.sqrt(jj - (m + 1) * (m + 2))


class _Batch(NamedTuple):
    """The lam-independent parts of one run of sectors diagonalized together,
    padded to its largest sector's size k, read-only.

    rows: the (sectors, k) mask of each sector's own rows. diagonal and off:
    the sectors' eps*m and H1 off-diagonals at the stack's order.
    pad_scale: the factor 1 + (i + 1)/k by which row i's pad entry exceeds
    the Gershgorin bound. diagonal_max and off_max: max |diagonal| and
    max |off| (0 for one-row sectors), the bound's lam-independent parts.
    """

    rows: np.ndarray
    diagonal: np.ndarray
    off: np.ndarray
    pad_scale: np.ndarray
    diagonal_max: float
    off_max: float


class _SectorLayout(NamedTuple):
    """The lam-independent arrays of a model's spectrum, read-only.

    batches: a _Batch per run of m-parity sectors diagonalized together, in
    order.
    degeneracies: each sector level's block multiplicity, sector after sector.
    """

    batches: tuple
    degeneracies: np.ndarray


def _batches(sizes: np.ndarray):
    """(start, stop) runs of consecutive sectors whose stack, padded to the
    run's largest sector, holds at most _BATCH_ELEMENTS (one sector at least)."""
    widths = np.maximum.accumulate(sizes)
    start = 0
    while start < sizes.size:
        cost = np.arange(1, sizes.size - start + 1) * widths[start:] ** 2
        stop = start + max(1, int(np.searchsorted(cost, _BATCH_ELEMENTS, side="right")))
        yield start, stop
        start = stop


def _batch(model: LipkinModel, two_j, parity, sizes) -> _Batch:
    """The _Batch of a run of m-parity sectors, at its largest size k.

    A block couples only m <-> m+2, so its even and odd m-offsets form two
    tridiagonal sectors; H1 conserves that parity too. Row r of a sector is
    the block's m-index p + 2r; rows past a sector's size hold zeros.
    """
    k = int(sizes.max())
    r = np.arange(k)
    rows = r < sizes[:, None]
    m = -0.5 * two_j[:, None] + (parity[:, None] + 2 * r)
    diagonal = np.where(rows, model.epsilon * m, 0.0)
    # rows are leading runs, so row r + 1 of a sector exists only with row r:
    # the coupled pairs are (sector, r) where rows[sector, r + 1]
    sector, row = np.nonzero(rows[:, 1:])
    off = np.zeros((sizes.size, k - 1))
    off[sector, row] = -0.5 * model.v_coupling * _h1_amplitudes(two_j[sector], m[sector, row])
    pad_scale = 1.0 + np.arange(1, k + 1) / k
    for array in (rows, diagonal, off, pad_scale):
        array.flags.writeable = False
    return _Batch(rows, diagonal, off, pad_scale, float(np.abs(diagonal).max()),
                  float(np.abs(off).max(initial=0.0)))


def _sector_layout(model: LipkinModel) -> _SectorLayout:
    """Sectors come by ascending j, even m-offset before odd."""
    n = model.n_particles
    mults = [multiplicity(n, two_j) for two_j in _block_j_values(n)]
    # Python ints from N = 63, where the total 2^N outgrows int64; Spectrum
    # takes math.log of those, and np.log of int64 ones, which gives the same
    # bits for every multiplicity to N = 62 (not for one at N = 69)
    g_dtype = np.int64 if n <= 62 else object
    two_j = np.array(_block_j_values(n)).repeat(2)
    parity = np.arange(two_j.size) % 2
    sizes = (two_j + 2 - parity) // 2
    level_block = np.repeat(np.arange(sizes.size) // 2, sizes)  # two sectors per block
    degeneracies = np.array(mults, dtype=g_dtype)[level_block]
    degeneracies.flags.writeable = False
    batches = tuple(_batch(model, two_j[start:stop], parity[start:stop], sizes[start:stop])
                    for start, stop in _batches(sizes))
    return _SectorLayout(batches, degeneracies)


def _padded_stacks(model: LipkinModel, lam: float):
    """(batch, stack) per batch of the model's layout, the stack its run of
    sectors as one (sectors, k, k) stack of H(lam).

    Each sector is padded with distinct diagonal entries above the run's
    Gershgorin bound and zero coupling, so its lowest `size` eigenvalues are
    the sector's own, bit for bit: LAPACK's tridiagonal reduction leaves a
    tridiagonal matrix as it is, and its tridiagonal solvers (with and without
    eigenvectors) split at the exact zeros. The bound is max |eps*m| plus
    twice max |lam * off|, which rounds to |lam| max |off|. The stack is
    written through strided views of its rows: the diagonal is every
    (k + 1)-th element from 0, the couplings above and below it every
    (k + 1)-th from 1 and from k.
    """
    for batch in model._layout.batches:
        sectors, k = batch.rows.shape
        stack = np.zeros((sectors, k, k))
        flat = stack.reshape(sectors, k * k)
        diagonal = flat[:, ::k + 1]
        np.multiply(batch.diagonal_max + 2 * (abs(lam) * batch.off_max), batch.pad_scale,
                    out=diagonal)
        np.copyto(diagonal, batch.diagonal, where=batch.rows)
        np.multiply(lam, batch.off, out=flat[:, 1::k + 1])
        flat[:, k::k + 1] = flat[:, 1::k + 1]
        yield batch, stack


@dataclass(frozen=True)
class LipkinModel:
    """N particles on two levels split by epsilon, interacting with strength V."""

    n_particles: int = 10
    epsilon: float = 1.0
    v_coupling: float = 3.0

    def __post_init__(self):
        if not isinstance(self.n_particles, numbers.Integral):
            raise ValueError(f"n_particles must be an integer, got {self.n_particles!r}")
        if not 1 <= self.n_particles <= MAX_PARTICLES:
            raise ValueError(f"need 1 to {MAX_PARTICLES} particles, got {self.n_particles}")
        if not 0 < self.epsilon < math.inf:
            raise ValueError(f"level splitting must be positive and finite, got {self.epsilon}")
        if not math.isfinite(self.v_coupling):
            raise ValueError(f"v_coupling must be finite, got {self.v_coupling}")

    @cached_property
    def _layout(self) -> _SectorLayout:
        """The sector arrays and level multiplicities, built once per model."""
        return _sector_layout(self)

    def potentials(self, lam: float, point: EnsemblePoint, *, h1: bool = True) -> ThermoPotentials:
        """Potentials of H(lam), with h1 = <H1>_T from v^T H1 v per eigenvector.

        h1 takes no coupling derivative: the per-eigenvector values are
        Boltzmann-averaged with the block multiplicities. With h1=False the
        result's h1 is None and the spectrum comes from eigenvalues alone.
        """
        spectrum, h1_values = lipkin_levels(self, lam, h1=h1)
        return potentials(spectrum, point, h1_values)


def lipkin_levels(model: LipkinModel, lam: float = 1.0, *, h1: bool = True):
    """(Spectrum, aligned per-level <H1> or None) of H(lam) over all blocks;
    the weighted dimension is 2^N.

    Each sector eigenvalue enters once with its block's multiplicity as the
    degeneracy; levels are sorted ascending (stable, so ties keep the sector
    order). With h1, eigh's eigenvectors give <v|H1|v>, basis independent as
    a sector's eigenvalues are simple (nonzero off-diagonal); without,
    eigvalsh's levels may differ from eigh's by rounding.
    """
    energies, h1_values = [], []
    for batch, stack in _padded_stacks(model, lam):
        if h1:
            values, vectors = np.linalg.eigh(stack)
            h1_values.append(2 * np.einsum("si,sij,sij->sj", batch.off, vectors[:, :-1],
                                           vectors[:, 1:])[batch.rows])
        else:
            values = np.linalg.eigvalsh(stack)
        energies.append(values[batch.rows])
    energies = np.concatenate(energies)
    order = energies.argsort(kind="stable")
    spectrum = Spectrum(energies.take(order), model._layout.degeneracies.take(order))
    return spectrum, np.concatenate(h1_values).take(order) if h1 else None
