"""Two-level Lipkin model over SU(2) quasi-spin blocks.

H(lam) = eps*J0 + lam*H1 with H1 = -(V/2)(Jp^2 + Jm^2). The Fock space of
N particles splits into angular-momentum blocks j = j_min..N/2, each
occurring with an exact integer multiplicity; the full spectrum is the
multiplicity-weighted union of the block spectra.

A block couples only m <-> m+2, so it falls into two tridiagonal m-parity
sectors. All sectors are formed in one numpy pass, once per model (with the
per-level multiplicities and their logarithms, kept read-only on the model),
and diagonalized by one stacked LAPACK call per batch: each sector is padded
to the batch's largest with decoupled diagonal entries above the batch's
Gershgorin bound, so its eigenvalues come out bit for bit as from its own
call. A batch holds at most _BATCH_ELEMENTS matrix elements. Both solvers
walk the same padded stacks: ``lipkin_levels_with_h1`` calls ``eigh``, and
each eigenvector's <H1> is 2 sum_i o_i v_i v_i+1 over the sector's
off-diagonal o, O(n) per vector; ``lipkin_spectrum`` calls ``eigvalsh`` and
forms no eigenvectors.

Half-integer j is carried as twice-j integers so all bookkeeping is exact.
Multiplicities stay exact integers at any N: int64 while they fit, Python
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

__all__ = [
    "LipkinModel",
    "multiplicity",
    "lipkin_spectrum",
    "lipkin_levels_with_h1",
]

# Most matrix elements in one stacked eigh; bounds its memory at large N.
_BATCH_ELEMENTS = 2**18


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
    the sectors' eps*m and H1 off-diagonals cut to the stack's order.
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
    degeneracies and log_degeneracies: each sector level's block multiplicity
    g and ln g, sector after sector.
    """

    batches: tuple
    degeneracies: np.ndarray
    log_degeneracies: np.ndarray


def _sectors(model: LipkinModel):
    """Sizes, diagonals eps*m and H1 off-diagonals of every m-parity sector.

    A block couples only m <-> m+2, so its even and odd m-offsets form two
    tridiagonal sectors; H1 conserves that parity too. Sectors come by
    ascending j, even offset before odd. Row r of a sector is the block's
    m-index p + 2r; rows past a sector's size hold zeros.
    """
    n = model.n_particles
    two_j = np.array(_block_j_values(n)).repeat(2)
    parity = np.arange(two_j.size) % 2
    sizes = (two_j + 2 - parity) // 2
    r = np.arange(sizes.max())
    rows = r < sizes[:, None]
    m = -0.5 * two_j[:, None] + (parity[:, None] + 2 * r)
    diagonal = np.where(rows, model.epsilon * m, 0.0)
    # rows are leading runs, so row r + 1 of a sector exists only with row r:
    # the coupled pairs are (sector, r) where rows[sector, r + 1]
    sector, row = np.nonzero(rows[:, 1:])
    off = np.zeros((two_j.size, r.size - 1))
    off[sector, row] = -0.5 * model.v_coupling * _h1_amplitudes(two_j[sector], m[sector, row])
    return sizes, diagonal, off


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


def _batch(sizes, diagonal, off) -> _Batch:
    """The _Batch of a run of sectors, from views of the layout's arrays."""
    k = int(sizes.max())
    rows = np.arange(k) < sizes[:, None]
    rows.flags.writeable = False
    pad_scale = 1.0 + np.arange(1, k + 1) / k
    pad_scale.flags.writeable = False
    diagonal, off = diagonal[:, :k], off[:, :k - 1]
    return _Batch(rows, diagonal, off, pad_scale, float(np.abs(diagonal).max()),
                  float(np.abs(off).max(initial=0.0)))


def _sector_layout(model: LipkinModel) -> _SectorLayout:
    n = model.n_particles
    mults = [multiplicity(n, two_j) for two_j in _block_j_values(n)]
    g_dtype = np.int64 if max(mults) <= np.iinfo(np.int64).max else object
    sizes, diagonal, off = _sectors(model)
    diagonal.flags.writeable = off.flags.writeable = False
    level_block = np.repeat(np.arange(sizes.size) // 2, sizes)  # two sectors per block
    degeneracies = np.array(mults, dtype=g_dtype)[level_block]
    # math.log takes integers of any size; one call per block
    log_degeneracies = np.array([math.log(x) for x in mults])[level_block]
    degeneracies.flags.writeable = log_degeneracies.flags.writeable = False
    batches = tuple(_batch(sizes[start:stop], diagonal[start:stop], off[start:stop])
                    for start, stop in _batches(sizes))
    return _SectorLayout(batches, degeneracies, log_degeneracies)


def _padded_stack(batch: _Batch, lam: float) -> np.ndarray:
    """A run of sectors as one (sectors, k, k) stack of H(lam).

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
    sectors, k = batch.rows.shape
    stack = np.zeros((sectors, k, k))
    flat = stack.reshape(sectors, k * k)
    diagonal = flat[:, ::k + 1]
    np.multiply(batch.diagonal_max + 2 * (abs(lam) * batch.off_max), batch.pad_scale,
                out=diagonal)
    np.copyto(diagonal, batch.diagonal, where=batch.rows)
    np.multiply(lam, batch.off, out=flat[:, 1::k + 1])
    flat[:, k::k + 1] = flat[:, 1::k + 1]
    return stack


def _sorted_spectrum(layout: _SectorLayout, energies: np.ndarray):
    """(Spectrum, order): sector levels sorted ascending, stable, so ties keep
    the sector order, each with its block multiplicity."""
    order = energies.argsort(kind="stable")
    spectrum = Spectrum._from_valid_levels(
        energies.take(order), layout.degeneracies.take(order), layout.log_degeneracies.take(order)
    )
    return spectrum, order


@dataclass(frozen=True)
class LipkinModel:
    """N particles on two levels split by epsilon, interacting with strength V."""

    n_particles: int = 10
    epsilon: float = 1.0
    v_coupling: float = 3.0

    def __post_init__(self):
        if not isinstance(self.n_particles, numbers.Integral):
            raise ValueError(f"n_particles must be an integer, got {self.n_particles!r}")
        if self.n_particles < 1:
            raise ValueError(f"need at least one particle, got {self.n_particles}")
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
        if not h1:
            return potentials(lipkin_spectrum(self, lam), point)
        spectrum, h1_values = lipkin_levels_with_h1(self, lam)
        return potentials(spectrum, point, h1_values)


def lipkin_levels_with_h1(model: LipkinModel, lam: float = 1.0):
    """(Spectrum, aligned per-level H1 expectations) over all blocks.

    Each sector eigenvalue enters once with its block's multiplicity as the
    degeneracy; levels are globally sorted ascending (stable, so ties keep
    the sector order). One stacked eigh per batch; the eigenvalues within a
    sector are simple (nonzero off-diagonal), so each eigenvector's
    <v|H1|v> = 2 sum_i o_i v_i v_i+1 is basis independent.
    """
    energies, h1_values = [], []
    for batch in model._layout.batches:
        values, vectors = np.linalg.eigh(_padded_stack(batch, lam))
        energies.append(values[batch.rows])
        h1_values.append(2 * np.einsum("si,sij,sij->sj", batch.off, vectors[:, :-1],
                                       vectors[:, 1:])[batch.rows])
    spectrum, order = _sorted_spectrum(model._layout, np.concatenate(energies))
    return spectrum, np.concatenate(h1_values).take(order)


def lipkin_spectrum(model: LipkinModel, lam: float = 1.0) -> Spectrum:
    """Multiplicity-weighted spectrum of H(lam); weighted dimension is 2^N.

    The levels of lipkin_levels_with_h1, from eigenvalues alone (one stacked
    eigvalsh per batch), so they may differ from its levels by rounding.
    """
    energies = [np.linalg.eigvalsh(_padded_stack(batch, lam))[batch.rows]
                for batch in model._layout.batches]
    return _sorted_spectrum(model._layout, np.concatenate(energies))[0]
