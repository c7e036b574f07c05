"""Periodic Ising chain: transfer-matrix thermodynamics and the energy split.

Two independent couplings lam1 (bonds, strength J) and lam2 (field, strength
h) let the total energy be decomposed by differentiating lnZ with respect to
each coupling separately:

    E = <H_J> + <H_h>,   <H_J> = dF/dlam1,   <H_h> = dF/dlam2.

For small chains the decomposition is checked against brute-force enumeration
over all 2^N configurations.
"""

from thermohf import EnsemblePoint
from thermohf.models.ising import IsingChain, ising_term_averages, ising_total_energy
from thermohf.oracles import ising_enumerate
from thermohf.sweep import temperature_grid


def main():
    params = IsingChain(coupling_j=2.0, field_h=1.0, n_spins=10)
    print(f"chain: N={params.n_spins}, J={params.coupling_j}, h={params.field_h}\n")

    print(f"{'T':>8} {'E/N':>10} {'<H_J>/N':>10} {'<H_h>/N':>10} {'split dev':>11}")
    temps = temperature_grid(0.1, 30.0, 12)
    point = EnsemblePoint.from_temperature(temps)
    energies = ising_total_energy(params, point)
    n = params.n_spins
    for t, e, hj, hh in zip(temps, energies, *ising_term_averages(params, point)):
        print(f"{t:8.2f} {e / n:10.5f} {hj / n:10.5f} {hh / n:10.5f} "
              f"{abs(e - hj - hh):11.2e}")

    # Ground state: all spins aligned with the field, so per site
    # <H_J>/N -> -J, <H_h>/N -> -h.
    hj, hh = ising_term_averages(params, EnsemblePoint.from_temperature(0.05))
    print(f"\nT=0.05 per-site averages: "
          f"bonds {hj / params.n_spins:.4f} (-> -J), "
          f"field {hh / params.n_spins:.4f} (-> -h)")

    # Cross-check a small chain against exhaustive enumeration.
    small = IsingChain(1.3, -0.7, 8)
    point = EnsemblePoint(beta=0.9)
    exact = ising_enumerate(small, point)
    hj, hh = ising_term_averages(small, point)
    print(f"\nN=8 enumeration cross-check at beta=0.9:")
    print(f"  <H_J>: transfer {hj:.12f}  enumeration {exact.h_j_average:.12f}")
    print(f"  <H_h>: transfer {hh:.12f}  enumeration {exact.h_h_average:.12f}")


if __name__ == "__main__":
    main()
