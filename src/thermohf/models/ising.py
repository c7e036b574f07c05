"""One-dimensional Ising chain with periodic boundary conditions.

H = -J sum_i s_i s_{i+1} - h sum_i s_i with s_i = +-1 and s_{N+1} = s_1
(each bond counted once; for N = 2 both coincident bonds are counted,
which is the convention under which the transfer-matrix formula matches
brute-force enumeration).

lnZ and the thermal averages of the bond and field terms come from one
eigensystem of the 2x2 transfer matrix, with no derivative in beta or in
the couplings: ising_transfer gives all three, and IsingChain.potentials
forms lnZ, F, E and S from them. Scaling the bond term alone by lam1 is the
chain with coupling lam1 J (the field term likewise), so by the
Hellmann-Feynman theorem the term averages equal the derivatives of F in
those factors, which makes them an independent check. ising_transfer takes
a single temperature or a grid, and a set of chains of one size as well;
oracles.ising_enumerate takes the same arguments.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from ..ensemble import EnsemblePoint, ThermoPotentials

__all__ = ["IsingChain", "ising_transfer"]


@dataclass(frozen=True)
class IsingChain:
    """Chain parameters; energies and temperatures in units of the field h."""

    coupling_j: float = 2.0
    field_h: float = 1.0
    n_spins: int = 10

    def __post_init__(self):
        if not isinstance(self.n_spins, numbers.Integral):
            raise ValueError(f"n_spins must be an integer, got {self.n_spins!r}")
        if self.n_spins < 2:
            raise ValueError(f"need at least 2 spins, got {self.n_spins}")
        for name in ("coupling_j", "field_h"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    def potentials(self, lam: float, point: EnsemblePoint, *, h1: bool = True) -> ThermoPotentials:
        """lnZ, F, E, S with both couplings scaled by lam, from one transfer
        eigensystem.

        H0 = 0 here, so h1 = <H1> = dF/dlam = E(lam)/lam: at lam = 1 it is E
        itself. With h1=False the result's h1 is None.
        """
        beta = point.beta
        ln_z, h_j, h_h = ising_transfer(self.n_spins, lam * self.coupling_j,
                                        lam * self.field_h, beta)
        free_energy = -ln_z / beta
        energy = h_j + h_h
        entropy = beta * (energy - free_energy)
        return ThermoPotentials(ln_z=ln_z, free_energy=free_energy, energy=energy,
                                entropy=entropy, h1=energy / lam if h1 else None)


def ising_transfer(n_spins: int, coupling, field, beta):
    """lnZ, <H_J> and <H_h> of a chain of n_spins with bond coupling J' and
    field h', from the eigenpairs of the transfer matrix. coupling, field and
    beta broadcast together, so one call serves a temperature grid or a set
    of chains of one size, with the bits of a call per element.

    With b = beta J' and a = beta |h'|, T = e^b [[e^a, e^{-2b}], [e^{-2b}, e^{-a}]]
    has eigenvalues lam_+- = e^b (cosh a +- R), R = sqrt(sinh^2 a + e^{-4b}),
    and eigenvectors at angle phi with cos 2phi = sinh a / R. With
    rho = lam_-/lam_+: Z = lam_+^N (1 + rho^N), <s> = cos 2phi (1 - rho^N)/(1 + rho^N)
    and <s s'> = cos^2 2phi + sin^2 2phi rho (1 + rho^{N-2})/(1 + rho^N).
    e^{b+m}, m = max(a, -2b), is factored out of everything, so no
    exponential formed exceeds 1, and rho comes from det T, not from a
    difference. For odd N and rho < -1/2 (antiferromagnets), 1 + rho^k would
    cancel; it is taken as (1 + rho) sum_{i<k} (-rho)^i, with
    1 + rho = 2 cosh a / (cosh a + R) in log space.
    """
    n, jj, hh = n_spins, coupling, field
    a, b = beta * abs(hh), beta * jj
    m = np.maximum(a, -2.0 * b)
    ep, em, q = np.exp(a - m), np.exp(-a - m), np.exp(-2.0 * b - m)
    c = 0.5 * (ep + em)  # e^{-m} cosh a
    s = -0.5 * ep * np.expm1(-2.0 * a)  # e^{-m} sinh a
    # e^{-m} R; 0 only where h' = 0 and e^{-2b} underflowed, so that s = 0
    r = np.maximum(np.hypot(s, q), np.finfo(float).tiny)
    top = c + r  # e^{-b-m} lam_+ >= 1/2
    # det T e^{-2b-2m} = e^{-2m} - e^{-4b-2m}, without cancellation at small b;
    # top * top, not top**2, which on a numpy scalar is pow and can differ
    # from an array's square in the last bit
    rho = np.where(b >= 0.0, ep * em, -q * q) * -np.expm1(-4.0 * np.abs(b)) / (top * top)
    cos2 = s / r

    cancel = (rho < -0.5) & (n % 2 == 1)
    t = np.where(cancel, 0.0, rho)
    t_n = t**n
    log_one_plus = np.log1p(t_n)
    spin = cos2 * (1.0 - t_n) / (1.0 + t_n)
    pair = t * (1.0 + t ** (n - 2)) / (1.0 + t_n)
    if np.any(cancel):
        # with d = 1 + rho and e_k = (-rho)^k - 1: 1 + rho^k = -e_k = d sum_{i<k} (-rho)^i
        d = np.maximum(np.where(cancel, 2.0 * c / top, 0.5), np.finfo(float).tiny)
        log_x = np.log1p(-d)
        e_n, e_n2 = np.expm1(n * log_x), np.expm1((n - 2) * log_x)
        log_d = a - m + np.log1p(np.exp(-2.0 * a)) - np.log(top)
        log_one_plus = np.where(cancel, log_d + np.log(-e_n / d), log_one_plus)
        # cos 2phi = d tanh(a) top / 2r stays exact where s and c underflow
        spin = np.where(cancel, np.tanh(a) * top * (2.0 + e_n) * d / (-2.0 * r * e_n), spin)
        pair = np.where(cancel, rho * e_n2 / e_n, pair)

    ln_z = n * (b + m + np.log(top)) + log_one_plus
    bond = pair + cos2 * cos2 * (1.0 - pair)  # cos^2 2phi + sin^2 2phi pair
    return ln_z, -jj * n * bond, -abs(hh) * n * spin

