"""Self-verification suites: each check measures a deviation against a bound.

Automates the agreement checks between independent computation routes:
closed forms vs. the generic spectrum engine, transfer matrix vs.
exhaustive enumeration, block decomposition vs. full Fock diagonalization,
and the free-energy derivative vs. directly computed thermal averages.
Each suite is one pass over what the CLI prints: the oscillator and Lipkin
checks, and the Ising HF and low-T checks over a grid, read the table sweep
returns, the one `thermohf sweep` prints; the Ising oracle and symmetry
checks read ising_transfer and ising_enumerate on the same chains, and the
Fock oracle is compared with the lam = 1 levels the printed Lipkin rows come
from. The eigensolver checks solve the padded sector stacks _padded_stacks
yields to the Lipkin model's own solves.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

import numpy as np

from .ensemble import EnsemblePoint, potentials
from .models.ho import (
    HarmonicOscillator,
    ho_closed_potentials,
    ho_entropy_lambda_derivative,
    ho_spectrum,
)
from .models.ising import IsingChain, ising_transfer
from .models.lipkin import (
    LipkinModel,
    _padded_stacks,
    lipkin_levels,
    multiplicity,
)
from .numdiff import DiffConfig, central_diff
from .oracles import check_oracle_size, ising_enumerate, lipkin_fock
from .sweep import sweep, temperature_grid

__all__ = ["CheckResult", "verify_ho", "verify_ising", "verify_lipkin", "verify_all"]

# Seeds the random chains of verify_ising.
_SEED = 20260823


@dataclass(frozen=True)
class CheckResult:
    """Measured deviation of one check against its tolerance."""

    name: str
    deviation: float
    tolerance: float


def _max_abs(values) -> float:
    return float(np.max(np.abs(values)))


def verify_ho(config: DiffConfig = DiffConfig()) -> list[CheckResult]:
    """Oscillator: the sweep table vs. closed forms, virial, limits."""
    checks = []
    t_grid = temperature_grid(0.05, 20.0, 200)
    # the oscillator `thermohf sweep --model ho` builds for this grid
    model = HarmonicOscillator(t_max=float(t_grid.max()))
    table = sweep(model, t_grid, config)
    point = EnsemblePoint.from_temperature(t_grid)
    closed = ho_closed_potentials(1.0, point)
    dev_f = _max_abs(table.free_energy - closed.free_energy)
    dev_e = _max_abs(table.energy - closed.energy)
    dev_s = _max_abs(table.entropy - closed.entropy)
    dev_df = _max_abs(table.df_dlambda - table.h1_direct)
    dev_ds = _max_abs(table.ds_dlambda - ho_entropy_lambda_derivative(point))
    # the closed-form <x^2/2> against the engine's E
    dev_virial = _max_abs(table.h1_direct - 0.5 * table.energy)

    checks.append(CheckResult("ho closed-form F agreement", dev_f, 1e-6))
    checks.append(CheckResult("ho closed-form E agreement", dev_e, 1e-6))
    checks.append(CheckResult("ho closed-form S agreement", dev_s, 1e-6))
    checks.append(CheckResult("ho dF/dlam vs potential average", dev_df, 1e-6))
    checks.append(CheckResult("ho dS/dlam vs closed form", dev_ds, 1e-6))
    checks.append(CheckResult("ho virial <x^2/2> = E/2", dev_virial, 1e-10))

    cold = ho_closed_potentials(1.0, EnsemblePoint.from_temperature(0.01)).h1
    checks.append(CheckResult("ho low-T potential average -> 1/4", abs(cold - 0.25), 1e-12))
    hot = table[-1]  # the grid's last row, T = 20
    half_t = 0.5 * hot.temperature
    checks.append(CheckResult(
        "ho high-T dF/dlam -> T/2", abs(hot.df_dlambda - half_t) / half_t, 0.02
    ))
    checks.append(CheckResult(
        "ho high-T dS/dlam -> -1/2", abs(hot.ds_dlambda + 0.5) / 0.5, 0.02
    ))
    # the ground level the engine sums
    ground, _ = central_diff(lambda lam: ho_spectrum(lam, 0).energies[0], 1.0, config)
    checks.append(CheckResult("ho zero-T dE0/dlam = 1/4", abs(ground - 0.25), 1e-10))
    return checks


def verify_ising(config: DiffConfig = DiffConfig(), n_spins: int = 12) -> list[CheckResult]:
    """Ising: enumeration oracle, HF term decomposition, symmetry, limits."""
    check_oracle_size("ising", n_spins)
    checks = []
    # the stdlib generator: numpy imports it anyway, while numpy's own
    # random module would add about 6 MB to a verify process
    rng = random.Random(_SEED)
    # the (low, high) each chain is drawn from, in stream order: J, h, lam1,
    # lam2 and beta
    box = ((-2.5, 2.5), (-2.5, 2.5), (0.5, 1.5), (0.5, 1.5), (0.05, 3.0))

    dev_lnz = dev_avg = dev_sym = 0.0
    for n in range(2, n_spins + 1):
        j, h, lam1, lam2, beta = np.array(
            [[rng.uniform(low, high) for low, high in box] for _ in range(20)]).T
        coupling, field = lam1 * j, lam2 * h
        # the chains of one size in one call of each route, the enumeration
        # at -h' as well: ising_transfer takes |h'| itself, so the symmetry
        # check compares its lnZ at +h' with the enumeration at -h'
        (exact_ln_z, mirror_ln_z), (exact_hj, _), (exact_hh, _) = ising_enumerate(
            n, coupling, np.stack([field, -field]), beta)
        ln_z, hj, hh = ising_transfer(n, coupling, field, beta)
        dev_lnz = max(dev_lnz, _max_abs((ln_z - exact_ln_z) / np.maximum(np.abs(exact_ln_z),
                                                                          1e-300)))
        # scaled by the largest magnitude either term can reach
        scale = np.maximum(1.0, n * (np.abs(coupling) + np.abs(field)))
        dev_avg = max(dev_avg, _max_abs((hj - exact_hj) / scale), _max_abs((hh - exact_hh) / scale))
        dev_sym = max(dev_sym, _max_abs(ln_z - mirror_ln_z))
    checks.append(CheckResult("ising lnZ vs enumeration (relative)", dev_lnz, 1e-12))
    checks.append(CheckResult("ising <H_J>, <H_h> vs enumeration", dev_avg, 1e-12))

    # the HF side: <H_J>, <H_h> as one central_diff of the stacked F of the
    # chains (lam J, h) and (J, lam h), and the sweep's dF/dlam against <H1>
    base = IsingChain(coupling_j=2.0, field_h=1.0, n_spins=10)
    t_grid = temperature_grid(0.1, 30.0, 40)
    table = sweep(base, t_grid, config)
    point = EnsemblePoint.from_temperature(t_grid)

    def split_free_energies(lam):
        chains = (replace(base, coupling_j=lam * base.coupling_j),
                  replace(base, field_h=lam * base.field_h))
        return np.array([chain.potentials(1.0, point, h1=False).free_energy for chain in chains])

    (hj, hh), _ = central_diff(split_free_energies, 1.0, config)
    dev_terms = _max_abs(hj + hh - table.energy)
    checks.append(CheckResult(
        "ising <H_J> + <H_h> = E over sweep", dev_terms, 1e-6 * base.n_spins
    ))
    direct = table.h1_direct
    dev_hf = _max_abs((table.df_dlambda - direct) / np.maximum(1.0, np.abs(direct)))
    checks.append(CheckResult("ising dF/dlam vs H1_direct over sweep", dev_hf, 1e-6))

    # the grid's first row, T = 0.1
    cold_hj, cold_hh, cold_e = (x[0] / base.n_spins for x in (hj, hh, table.energy))
    checks.append(CheckResult("ising low-T <H_J>/N -> -J", abs(cold_hj + 2.0), 0.01))
    checks.append(CheckResult("ising low-T <H_h>/N -> -h", abs(cold_hh + 1.0), 0.01))
    checks.append(CheckResult("ising low-T E/N -> -(J+h)", abs(cold_e + 3.0), 0.01))
    checks.append(CheckResult("ising lnZ even in h", dev_sym, 1e-13))

    t_hot = 100.0 * max(base.coupling_j, base.field_h)
    hot = EnsemblePoint.from_temperature(t_hot)
    e_hot = base.potentials(1.0, hot, h1=False).energy / base.n_spins
    law = -(base.coupling_j**2 + base.field_h**2) / t_hot
    checks.append(CheckResult(
        "ising high-T E/N -> -(J^2+h^2)/T", abs(e_hot - law), 0.05 * abs(law)
    ))
    return checks


def verify_lipkin(config: DiffConfig = DiffConfig(), n_oracle: int = 8) -> list[CheckResult]:
    """Lipkin: dimension identity, Fock oracle, HF identity, corollary, limits."""
    check_oracle_size("lipkin", n_oracle)
    checks = []

    dev_dim = 0
    for n in range(1, 65):
        total = sum(
            (two_j + 1) * multiplicity(n, two_j) for two_j in range(n % 2, n + 1, 2)
        )
        dev_dim = max(dev_dim, abs(total - 2**n))
    checks.append(CheckResult("lipkin weighted dimension = 2^N (N<=64)", float(dev_dim), 0.0))

    model_oracle = LipkinModel(n_particles=n_oracle, epsilon=1.0, v_coupling=3.0)
    # the lam = 1 levels the printed rows come from
    block, _ = lipkin_levels(model_oracle)
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
    t_grid = temperature_grid(0.1, 100.0, 50, "geometric")
    table = sweep(model, t_grid, config)
    direct = table.h1_direct
    dev_hf = float(np.max(np.abs(table.df_dlambda - direct) / np.maximum(1.0, np.abs(direct))))
    # the lam = 1 eigensystem of model.potentials(1.0, ...), built once for
    # the corollary's temperature abscissae and the high-T entropy
    spectrum, h1 = lipkin_levels(model)
    dh1_dt, _ = central_diff(
        lambda temps: potentials(spectrum, EnsemblePoint.from_temperature(temps), h1).h1,
        t_grid, config,
    )
    dev_corollary = _max_abs(table.ds_dlambda + dh1_dt)
    checks.append(CheckResult("lipkin dF/dlam vs direct <H1>", dev_hf, 1e-6))
    checks.append(CheckResult("lipkin dS/dlam = -d<H1>/dT", dev_corollary, 1e-4))

    idx = int(np.argmin(table.de_dlambda))
    t_min_loc = float(t_grid[idx])
    in_window = 5.0 <= t_min_loc <= 20.0 and 0 < idx < t_grid.size - 1
    checks.append(CheckResult(
        f"lipkin dE/dlam minimum at T={t_min_loc:.2f} in [5, 20]",
        0.0 if in_window else 1.0,
        0.0,
    ))

    hot = EnsemblePoint.from_temperature(1e4)
    s_hot = potentials(spectrum, hot, h1).entropy
    checks.append(CheckResult(
        "lipkin S(T=1e4) -> N ln 2", abs(s_hot - model.n_particles * math.log(2)), 1e-3
    ))

    # the padded stacks lipkin_levels solves at lam = 1, for the model
    # above and for N = 200, which takes several batches
    dev_res = 0.0
    dev_orth = 0.0
    above_pads = 0
    for stacked in (model, LipkinModel(n_particles=200, epsilon=1.0, v_coupling=3.0)):
        for batch, stack in _padded_stacks(stacked, 1.0):
            values, vectors = np.linalg.eigh(stack)
            residual = np.linalg.norm(stack @ vectors - vectors * values[:, None, :], axis=1)
            fro = np.linalg.norm(stack, axis=(1, 2))
            dev_res = max(dev_res, _max_abs(residual.max(axis=1) / fro))
            gram = vectors.transpose(0, 2, 1) @ vectors
            dev_orth = max(dev_orth, _max_abs(gram - np.eye(values.shape[1])))
            # a sector's levels are its stack's lowest eigenvalues only if
            # they lie below every pad of that stack
            diagonal = np.diagonal(stack, axis1=1, axis2=2)
            lowest_pad = np.where(batch.rows, np.inf, diagonal).min(axis=1)
            above_pads += np.count_nonzero(batch.rows & (values >= lowest_pad[:, None]))
    checks.append(CheckResult("eigensolver residual / ||A||_F", dev_res, 1e-10))
    checks.append(CheckResult("eigensolver orthonormality", dev_orth, 1e-12))
    checks.append(CheckResult("eigensolver sector levels below pads", float(above_pads), 0.0))
    return checks


def verify_all(config: DiffConfig = DiffConfig()) -> list[CheckResult]:
    return verify_ho(config) + verify_ising(config) + verify_lipkin(config)
