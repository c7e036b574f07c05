"""Independent brute-force references for the Ising and Lipkin backends.

These live in the package (not only in tests) so the CLI verify command
can run them on demand. Capacity caps keep them at desk scale: 2^20 spin
configurations, 2^12-dimensional Fock matrices.
"""

from __future__ import annotations

import numpy as np

from .ensemble import Spectrum
from .models.lipkin import LipkinModel

__all__ = ["ising_enumerate", "lipkin_fock"]

MAX_ENUM_SPINS = 20
MAX_FOCK_PARTICLES = 12


def ising_enumerate(n_spins: int, coupling, field, beta):
    """lnZ, <H_J> and <H_h> of a chain of n_spins with bond coupling J' and
    field h', by exhaustive sum over all 2^N spin configurations.

    Takes ising_transfer's arguments: coupling, field and beta broadcast
    together, scalars giving floats and arrays the broadcast shape. The bond
    sum (PBC, each bond once, the transfer-matrix convention) and the site
    sum of every configuration are formed once per call; each chain's 2^N
    ground-state-anchored weights are then formed and summed on their own,
    so large beta is safe and a chain's result does not depend on the others.
    """
    n = n_spins
    if not 2 <= n <= MAX_ENUM_SPINS:
        raise ValueError(f"enumeration needs 2 to {MAX_ENUM_SPINS} spins, got {n}")
    states = np.arange(2**n, dtype=np.uint32)
    spins = ((states[:, None] >> np.arange(n, dtype=np.uint32)) & 1).astype(np.int8)
    spins = 2 * spins - 1  # +-1 per site
    bond_sum = np.sum(spins * np.roll(spins, -1, axis=1), axis=1, dtype=np.int64)
    site_sum = np.sum(spins, axis=1, dtype=np.int64)

    coupling, field, beta = np.broadcast_arrays(coupling, field, beta)
    ln_z, h_j_avg, h_h_avg = (np.empty(coupling.shape) for _ in range(3))
    for i in np.ndindex(coupling.shape):
        h_j = -coupling[i] * bond_sum
        h_h = -field[i] * site_sum
        total = h_j + h_h
        e_min = total.min()
        w = np.exp(-beta[i] * (total - e_min))
        z0 = w.sum()
        ln_z[i] = -beta[i] * e_min + np.log(z0)
        h_j_avg[i] = np.dot(w, h_j) / z0
        h_h_avg[i] = np.dot(w, h_h) / z0
    return ln_z[()], h_j_avg[()], h_h_avg[()]


def lipkin_fock(model: LipkinModel, lam: float = 1.0) -> Spectrum:
    """Full 2^N Fock-space spectrum, bypassing the block decomposition.

    Each of the N sites is a two-state system; bit p of a state index is
    site p's level, 0 the upper. H(lam) = eps*J0 - lam*(V/2)(Jp^2 + Jm^2)
    is written entry by entry: the diagonal is eps*(N/2 - number of down
    spins), and Jp^2 + Jm^2 raises or lowers a pair of sites, each pair in
    two orders, so -lam*V joins every state to the one with two of its down
    spins raised. The dense matrix is diagonalized with numpy's LAPACK
    ``eigvalsh``. All 2^N levels carry degeneracy 1. This stays independent
    of the block route: no angular-momentum structure or multiplicity enters.
    """
    n = model.n_particles
    if n > MAX_FOCK_PARTICLES:
        raise ValueError(f"Fock oracle capped at {MAX_FOCK_PARTICLES} particles, got {n}")

    states = np.arange(2**n)
    down = (states[:, None] >> np.arange(n)) & 1
    h = np.diag(model.epsilon * (n / 2 - down.sum(axis=1)))
    coupling = -lam * model.v_coupling
    for p in range(n):
        for q in range(p + 1, n):
            pair_down = states[(down[:, p] & down[:, q]).astype(bool)]
            raised = pair_down ^ (1 << p | 1 << q)
            h[raised, pair_down] = h[pair_down, raised] = coupling
    return Spectrum(np.linalg.eigvalsh(h))
