"""One-dimensional Ising chain with periodic boundary conditions.

H = -J sum_i s_i s_{i+1} - h sum_i s_i with s_i = +-1 and s_{N+1} = s_1
(each bond counted once; for N = 2 both coincident bonds are counted,
which is the convention under which the transfer-matrix formula matches
brute-force enumeration).

Two independent couplings modulate the Hamiltonian: lambda1 scales the
bond term, lambda2 the field term. Thermal averages of either term follow
from the coupling derivative of the free energy. Every function takes a
single temperature or a grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..ensemble import EnsemblePoint, ThermoPotentials
from ..numdiff import DiffConfig, central_diff

__all__ = [
    "IsingChain",
    "ising_log_z",
    "ising_potentials",
    "ising_total_energy",
    "ising_term_averages",
]


@dataclass(frozen=True)
class IsingChain:
    """Chain parameters; energies and temperatures in units of the field h."""

    coupling_j: float = 2.0
    field_h: float = 1.0
    n_spins: int = 10
    lambda1: float = 1.0
    lambda2: float = 1.0

    def __post_init__(self):
        if self.n_spins < 2:
            raise ValueError(f"need at least 2 spins, got {self.n_spins}")
        for name in ("coupling_j", "field_h", "lambda1", "lambda2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    def potentials(self, lam: float, point: EnsemblePoint) -> ThermoPotentials:
        """Potentials with both couplings scaled by lam, so dF/dlam = E.

        h1 is None: the term averages have no derivative-free route here.
        """
        scaled = replace(self, lambda1=lam * self.lambda1, lambda2=lam * self.lambda2)
        return ising_potentials(scaled, point)


def _transfer_terms(params: IsingChain, beta):
    """Pieces of the transfer-matrix eigenvalues for the scaled couplings."""
    jj = params.lambda1 * params.coupling_j
    hh = params.lambda2 * params.field_h
    a = beta * hh
    c = np.cosh(a)
    s = np.sinh(a)
    q = np.exp(-4.0 * beta * jj)
    r = np.sqrt(s * s + q)
    return jj, hh, c, s, q, r


def _one_plus_ratio_pow(c, lam_plus, ratio, n: int):
    """(1 + ratio^n, its log) without cancellation.

    For ratio near -1 (negative subdominant eigenvalue, odd n) the naive
    1 + ratio^n loses all precision; factoring the geometric sum,
    1 + r^n = (1 + r) sum_k (-r)^k with 1 + r = 2 cosh(beta h')/lam_+,
    keeps every factor positive and well conditioned. Each branch sees
    only the entries it is used for, so neither can overflow or divide
    by zero on the other's.
    """
    cancel = (ratio < 0.0) & (n % 2 == 1)
    t = np.power(np.where(cancel, 0.0, ratio), n)
    value, log_value = 1.0 + t, np.log1p(t)
    if np.any(cancel):
        neg = np.where(cancel, -ratio, 0.0)
        geom = sum(np.power(neg, k) for k in range(n))
        one_plus_r = 2.0 * c / lam_plus
        value = np.where(cancel, one_plus_r * geom, value)
        log_value = np.where(cancel, np.log(one_plus_r) + np.log(geom), log_value)
    return value, log_value


def ising_log_z(params: IsingChain, point: EnsemblePoint):
    """ln Z from the two transfer-matrix eigenvalues, overflow-safe.

    Z = e^{N beta J'} (lam_+^N + lam_-^N) with lam_+- = cosh(beta h') +- R
    and R = sqrt(sinh^2(beta h') + e^{-4 beta J'}); |lam_-| <= lam_+ always,
    so the subdominant branch enters through a bounded ratio.
    """
    n = params.n_spins
    beta = point.beta
    jj, _, c, _, _, r = _transfer_terms(params, beta)
    lam_plus = c + r
    ratio = (c - r) / lam_plus
    _, log_term = _one_plus_ratio_pow(c, lam_plus, ratio, n)
    return n * beta * jj + n * np.log(lam_plus) + log_term


def ising_total_energy(params: IsingChain, point: EnsemblePoint):
    """E = -d lnZ/d beta via the analytic beta-derivative of the transfer form.

    Closed form, no numerical differentiation, so the energy curve carries
    no finite-difference noise.
    """
    n = params.n_spins
    beta = point.beta
    jj, hh, c, s, q, r = _transfer_terms(params, beta)
    lam_plus = c + r
    lam_minus = c - r
    # d/d beta of cosh, sinh, e^{-4 beta J'} and R. R = 0 only where
    # s = q = 0 (h' = 0, e^{-4 beta J'} underflowed), where dR -> 0.
    dr = np.divide(s * c * hh - 2.0 * jj * q, r, out=np.zeros(np.shape(r)), where=r > 0)
    dlam_plus = s * hh + dr
    dlam_minus = s * hh - dr
    ratio = lam_minus / lam_plus
    dratio = (dlam_minus * lam_plus - lam_minus * dlam_plus) / (lam_plus * lam_plus)
    one_plus, _ = _one_plus_ratio_pow(c, lam_plus, ratio, n)
    dlnz = n * jj + n * dlam_plus / lam_plus
    dlnz += n * np.power(ratio, n - 1) * dratio / one_plus
    return -dlnz


def ising_potentials(params: IsingChain, point: EnsemblePoint) -> ThermoPotentials:
    """lnZ, F, E, S at each temperature; E from the analytic beta-derivative."""
    beta = point.beta
    ln_z = ising_log_z(params, point)
    free_energy = -ln_z / beta
    energy = ising_total_energy(params, point)
    entropy = beta * (energy - free_energy)
    return ThermoPotentials(ln_z=ln_z, free_energy=free_energy, energy=energy, entropy=entropy)


def ising_term_averages(params: IsingChain, point: EnsemblePoint,
                        config: DiffConfig = DiffConfig()):
    """Thermal averages of the bond term -J sum s_i s_{i+1} and the field
    term -h sum s_i, as (dF/dlambda1, dF/dlambda2) at lambda1 = lambda2 = 1.
    """
    if params.lambda1 != 1.0 or params.lambda2 != 1.0:
        raise ValueError("term averages are defined at lambda1 = lambda2 = 1")

    def free_energy(**coupling):
        return -ising_log_z(replace(params, **coupling), point) / point.beta

    h_j, _ = central_diff(lambda l1: free_energy(lambda1=l1), 1.0, config)
    h_h, _ = central_diff(lambda l2: free_energy(lambda2=l2), 1.0, config)
    return h_j, h_h
