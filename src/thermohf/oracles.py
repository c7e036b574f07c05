"""Independent brute-force references for the Ising and Lipkin backends.

These live in the package (not only in tests) so the CLI verify command
can run them on demand. Capacity caps keep them at desk scale: 2^20 spin
configurations, 2^12-dimensional Fock matrices.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .ensemble import EnsemblePoint, Spectrum
from .models.ising import IsingChain
from .models.lipkin import LipkinModel

__all__ = ["EnumerationResult", "ising_enumerate", "lipkin_fock"]

MAX_ENUM_SPINS = 20
MAX_FOCK_PARTICLES = 12


@dataclass(frozen=True)
class EnumerationResult:
    """Exact sums over all spin configurations at one temperature."""

    ln_z: float
    h_j_average: float
    h_h_average: float


@functools.lru_cache(maxsize=1)
def _configuration_sums(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Bond sum (PBC, each bond once) and site sum of every one of the 2^n
    spin configurations, as read-only int64 arrays. One size is kept:
    verify draws its chains one size after another."""
    states = np.arange(2**n, dtype=np.uint32)
    spins = ((states[:, None] >> np.arange(n, dtype=np.uint32)) & 1).astype(np.int8)
    spins = 2 * spins - 1  # +-1 per site
    bond_sum = np.sum(spins * np.roll(spins, -1, axis=1), axis=1, dtype=np.int64)
    site_sum = np.sum(spins, axis=1, dtype=np.int64)
    bond_sum.flags.writeable = False
    site_sum.flags.writeable = False
    return bond_sum, site_sum


def ising_enumerate(params: IsingChain, point: EnsemblePoint) -> EnumerationResult:
    """Exhaustive sum over all 2^N spin configurations.

    Uses the same bond convention as the transfer-matrix backend (PBC, each
    bond once) and ground-state-anchored weights so large beta is safe.
    """
    n = params.n_spins
    if n > MAX_ENUM_SPINS:
        raise ValueError(f"enumeration capped at {MAX_ENUM_SPINS} spins, got {n}")
    beta = point.beta
    bond_sum, site_sum = _configuration_sums(n)
    h_j = -params.coupling_j * bond_sum
    h_h = -params.field_h * site_sum
    total = h_j + h_h

    e_min = total.min()
    w = np.exp(-beta * (total - e_min))
    z0 = w.sum()
    ln_z = -beta * e_min + float(np.log(z0))
    h_j_avg = float(np.dot(w, h_j) / z0)
    h_h_avg = float(np.dot(w, h_h) / z0)
    return EnumerationResult(ln_z=ln_z, h_j_average=h_j_avg, h_h_average=h_h_avg)


def _site_operator(op: np.ndarray, site: int, n_sites: int) -> np.ndarray:
    out = np.array([[1.0]])
    for p in range(n_sites):
        out = np.kron(out, op if p == site else np.eye(2))
    return out


def lipkin_fock(model: LipkinModel, lam: float = 1.0) -> Spectrum:
    """Full 2^N Fock-space spectrum, bypassing the block decomposition.

    Builds the quasi-spin operators site by site (each site a two-state
    system), forms H(lam) = eps*J0 - lam*(V/2)(Jp^2 + Jm^2) and
    diagonalizes the dense matrix with numpy's LAPACK ``eigvalsh``. All
    2^N levels carry degeneracy 1. This stays independent of the block
    route: no angular-momentum structure or multiplicity enters.
    """
    n = model.n_particles
    if n > MAX_FOCK_PARTICLES:
        raise ValueError(f"Fock oracle capped at {MAX_FOCK_PARTICLES} particles, got {n}")

    sz_half = np.array([[0.5, 0.0], [0.0, -0.5]])
    sp = np.array([[0.0, 1.0], [0.0, 0.0]])  # raises bottom -> top

    dim = 2**n
    j0 = np.zeros((dim, dim))
    jp = np.zeros((dim, dim))
    for site in range(n):
        j0 += _site_operator(sz_half, site, n)
        jp += _site_operator(sp, site, n)
    jm = jp.T

    h = model.epsilon * j0 - lam * 0.5 * model.v_coupling * (jp @ jp + jm @ jm)
    return Spectrum(np.linalg.eigvalsh(h))
