"""Self-verification suites: each check measures a deviation against a bound.

Automates the agreement checks between independent computation routes:
closed forms vs. the generic spectrum engine, transfer matrix vs.
exhaustive enumeration, block decomposition vs. full Fock diagonalization,
and the free-energy derivative vs. directly computed thermal averages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensemble import EnsemblePoint, potentials, thermal_average
from .models.ho import (
    HarmonicOscillator,
    ho_closed_potentials,
    ho_entropy_lambda_derivative,
    ho_potential_average,
    truncation_level,
)
from .models.ising import (
    IsingChain,
    ising_log_z,
    ising_term_averages,
    ising_total_energy,
)
from .models.lipkin import (
    LipkinModel,
    lipkin_levels_with_h1,
    lipkin_spectrum,
    multiplicity,
)
from .numdiff import DiffConfig, central_diff, lambda_derivatives
from .oracles import ising_enumerate, lipkin_fock
from .sweep import temperature_grid

__all__ = ["CheckResult", "verify_ho", "verify_ising", "verify_lipkin", "verify_all"]


@dataclass(frozen=True)
class CheckResult:
    """Measured deviation of one check against its tolerance."""

    name: str
    deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tolerance


def _max_abs(values) -> float:
    return float(np.max(np.abs(values)))


def verify_ho(config: DiffConfig = DiffConfig()) -> list[CheckResult]:
    """Oscillator: generic engine vs. closed forms, virial, limits."""
    checks = []
    model = HarmonicOscillator(n_max=truncation_level(50.0))
    point = EnsemblePoint.from_temperature(temperature_grid(0.05, 20.0, 200))
    numeric = model.potentials(1.0, point)
    closed = ho_closed_potentials(1.0, point)
    deriv = lambda_derivatives(lambda lam: model.potentials(lam, point), 1.0, config)
    direct = ho_potential_average(point)
    dev_f = _max_abs(numeric.free_energy - closed.free_energy)
    dev_e = _max_abs(numeric.energy - closed.energy)
    dev_s = _max_abs(numeric.entropy - closed.entropy)
    dev_df = _max_abs(deriv.free_energy - direct)
    dev_ds = _max_abs(deriv.entropy - ho_entropy_lambda_derivative(point))
    dev_virial = _max_abs(direct - 0.5 * closed.energy)

    checks.append(CheckResult("ho closed-form F agreement", dev_f, 1e-6))
    checks.append(CheckResult("ho closed-form E agreement", dev_e, 1e-6))
    checks.append(CheckResult("ho closed-form S agreement", dev_s, 1e-6))
    checks.append(CheckResult("ho dF/dlam vs potential average", dev_df, 1e-6))
    checks.append(CheckResult("ho dS/dlam vs closed form", dev_ds, 1e-6))
    checks.append(CheckResult("ho virial <x^2/2> = E/2", dev_virial, 1e-10))

    cold = EnsemblePoint.from_temperature(0.01)
    checks.append(CheckResult(
        "ho low-T potential average -> 1/4", abs(ho_potential_average(cold) - 0.25), 1e-12
    ))
    hot = EnsemblePoint.from_temperature(20.0)
    deriv_f = lambda_derivatives(lambda lam: model.potentials(lam, hot), 1.0, config).free_energy
    checks.append(CheckResult(
        "ho high-T dF/dlam -> T/2", abs(deriv_f - 10.0) / 10.0, 0.02
    ))
    hot50 = EnsemblePoint.from_temperature(50.0)
    checks.append(CheckResult(
        "ho high-T dS/dlam -> -1/2",
        abs(ho_entropy_lambda_derivative(hot50) + 0.5) / 0.5,
        0.02,
    ))
    ground, _ = central_diff(lambda lam: 0.5 * math.sqrt(lam), 1.0, config)
    checks.append(CheckResult("ho zero-T dE0/dlam = 1/4", abs(ground - 0.25), 1e-10))
    return checks


def verify_ising(n_spins: int = 12, config: DiffConfig = DiffConfig(),
                 seed: int = 20260823) -> list[CheckResult]:
    """Ising: enumeration oracle, term decomposition, symmetry, limits."""
    checks = []
    rng = np.random.default_rng(seed)

    dev_lnz = 0.0
    for n in range(2, n_spins + 1):
        for _ in range(20):
            params = IsingChain(
                coupling_j=float(rng.uniform(-2.5, 2.5)),
                field_h=float(rng.uniform(-2.5, 2.5)),
                n_spins=n,
                lambda1=float(rng.uniform(0.5, 1.5)),
                lambda2=float(rng.uniform(0.5, 1.5)),
            )
            point = EnsemblePoint(beta=float(rng.uniform(0.05, 3.0)))
            exact = ising_enumerate(params, point)
            ln_z = ising_log_z(params, point)
            dev_lnz = max(dev_lnz, abs(ln_z - exact.ln_z) / max(abs(exact.ln_z), 1e-300))
    checks.append(CheckResult("ising lnZ vs enumeration (relative)", dev_lnz, 1e-12))

    base = IsingChain(coupling_j=2.0, field_h=1.0, n_spins=10)
    point = EnsemblePoint.from_temperature(temperature_grid(0.1, 30.0, 40))
    hj, hh = ising_term_averages(base, point, config)
    dev_terms = _max_abs(hj + hh - ising_total_energy(base, point))
    checks.append(CheckResult(
        "ising <H_J> + <H_h> = E over sweep", dev_terms, 1e-6 * base.n_spins
    ))

    cold = EnsemblePoint.from_temperature(0.1)
    hj, hh = (x / base.n_spins for x in ising_term_averages(base, cold, config))
    e = ising_total_energy(base, cold) / base.n_spins
    checks.append(CheckResult("ising low-T <H_J>/N -> -J", abs(hj + 2.0), 0.01))
    checks.append(CheckResult("ising low-T <H_h>/N -> -h", abs(hh + 1.0), 0.01))
    checks.append(CheckResult("ising low-T E/N -> -(J+h)", abs(e + 3.0), 0.01))

    dev_sym = 0.0
    for _ in range(20):
        j = float(rng.uniform(-2.0, 2.0))
        h = float(rng.uniform(0.0, 2.0))
        n = int(rng.integers(2, 13))
        beta = float(rng.uniform(0.1, 2.0))
        point = EnsemblePoint(beta=beta)
        lz_p = ising_log_z(IsingChain(j, h, n), point)
        lz_m = ising_log_z(IsingChain(j, -h, n), point)
        dev_sym = max(dev_sym, abs(lz_p - lz_m))
    checks.append(CheckResult("ising lnZ even in h", dev_sym, 1e-13))

    t_hot = 100.0 * max(base.coupling_j, base.field_h)
    e_hot = ising_total_energy(base, EnsemblePoint.from_temperature(t_hot)) / base.n_spins
    law = -(base.coupling_j**2 + base.field_h**2) / t_hot
    checks.append(CheckResult(
        "ising high-T E/N -> -(J^2+h^2)/T", abs(e_hot - law), 0.05 * abs(law)
    ))
    return checks


def verify_lipkin(n_oracle: int = 8, config: DiffConfig = DiffConfig(),
                  seed: int = 20260823) -> list[CheckResult]:
    """Lipkin: dimension identity, Fock oracle, HF identity, corollary, limits."""
    checks = []

    dev_dim = 0
    for n in range(1, 65):
        total = sum(
            (two_j + 1) * multiplicity(n, two_j) for two_j in range(n % 2, n + 1, 2)
        )
        dev_dim = max(dev_dim, abs(total - 2**n))
    checks.append(CheckResult("lipkin weighted dimension = 2^N (N<=64)", float(dev_dim), 0.0))

    model_oracle = LipkinModel(n_particles=n_oracle, epsilon=1.0, v_coupling=3.0)
    block = lipkin_spectrum(model_oracle)
    fock = lipkin_fock(model_oracle)
    expanded = np.repeat(block.energies, block.degeneracies)
    dev_levels = float(np.max(np.abs(expanded - fock.energies)))
    checks.append(CheckResult(
        f"lipkin block vs Fock spectrum (N={n_oracle})", dev_levels, 1e-8
    ))
    betas = EnsemblePoint(beta=np.geomspace(0.01, 10.0, 10))
    dev_lnz = _max_abs(potentials(block, betas).ln_z - potentials(fock, betas).ln_z)
    checks.append(CheckResult(
        f"lipkin block vs Fock lnZ (N={n_oracle})", dev_lnz, 1e-9
    ))

    model = LipkinModel(n_particles=10, epsilon=1.0, v_coupling=3.0)
    spectrum, h1_values = lipkin_levels_with_h1(model, 1.0)

    def h1_direct(temps):
        return thermal_average(h1_values, spectrum, EnsemblePoint.from_temperature(temps))

    t_grid = temperature_grid(0.1, 100.0, 50, "geometric")
    point = EnsemblePoint.from_temperature(t_grid)
    deriv = lambda_derivatives(lambda lam: model.potentials(lam, point), 1.0, config)
    direct = h1_direct(t_grid)
    dev_hf = float(np.max(np.abs(deriv.free_energy - direct) / np.maximum(1.0, np.abs(direct))))
    dh1_dt, _ = central_diff(h1_direct, t_grid, config)
    dev_corollary = _max_abs(deriv.entropy + dh1_dt)
    checks.append(CheckResult("lipkin dF/dlam vs direct <H1>", dev_hf, 1e-6))
    checks.append(CheckResult("lipkin dS/dlam = -d<H1>/dT", dev_corollary, 1e-4))

    idx = int(np.argmin(deriv.energy))
    t_min_loc = float(t_grid[idx])
    in_window = 5.0 <= t_min_loc <= 20.0 and 0 < idx < t_grid.size - 1
    checks.append(CheckResult(
        f"lipkin dE/dlam minimum at T={t_min_loc:.2f} in [5, 20]",
        0.0 if in_window else 1.0,
        0.0,
    ))

    hot = EnsemblePoint.from_temperature(1e4)
    s_hot = potentials(spectrum, hot).entropy
    checks.append(CheckResult(
        "lipkin S(T=1e4) -> N ln 2", abs(s_hot - model.n_particles * math.log(2)), 1e-3
    ))

    rng = np.random.default_rng(seed)
    dev_res = 0.0
    dev_orth = 0.0
    for _ in range(25):
        order = int(rng.integers(2, 65))
        m = rng.standard_normal((order, order))
        m = 0.5 * (m + m.T)
        values, vectors = np.linalg.eigh(m)
        fro = np.linalg.norm(m)
        residual = np.linalg.norm(m @ vectors - vectors * values, axis=0).max()
        dev_res = max(dev_res, residual / fro)
        dev_orth = max(dev_orth, float(np.max(np.abs(vectors.T @ vectors - np.eye(order)))))
    checks.append(CheckResult("eigensolver residual / ||A||_F", dev_res, 1e-10))
    checks.append(CheckResult("eigensolver orthonormality", dev_orth, 1e-12))
    return checks


def verify_all(config: DiffConfig = DiffConfig()) -> list[CheckResult]:
    return verify_ho(config) + verify_ising(config=config) + verify_lipkin(config=config)
