"""Periodic Ising chain: transfer-matrix thermodynamics and the energy split.

Two independent factors lam1 (on the bond strength J) and lam2 (on the field
h) split the total energy into two terms, E = <H_J> + <H_h>. Each term
average is computed twice:

- by the Hellmann-Feynman theorem, as a coupling derivative of the free
  energy, <H_J> = dF/dlam1 and <H_h> = dF/dlam2 (central differences);
- in closed form from the transfer-matrix eigenvectors, with no derivative.

Their agreement is the theorem at finite temperature. For a small chain
both are checked against brute-force enumeration over all 2^N
configurations.
"""

from dataclasses import replace

from thermohf import EnsemblePoint, central_diff
from thermohf.models.ising import IsingChain, ising_transfer
from thermohf.oracles import ising_enumerate
from thermohf.sweep import temperature_grid


def hf_term_averages(params, point):
    """(dF/dlam1, dF/dlam2) at lam1 = lam2 = 1: the chain with lam1 J and lam2 h."""

    def free_energy(**coupling):
        return replace(params, **coupling).potentials(1.0, point, h1=False).free_energy

    h_j, _ = central_diff(lambda l1: free_energy(coupling_j=l1 * params.coupling_j), 1.0)
    h_h, _ = central_diff(lambda l2: free_energy(field_h=l2 * params.field_h), 1.0)
    return h_j, h_h


def main():
    params = IsingChain(coupling_j=2.0, field_h=1.0, n_spins=10)
    n = params.n_spins
    print(f"chain: N={n}, J={params.coupling_j}, h={params.field_h}\n")

    print(f"{'':8} {'':10} {'dF/dlam_i':^21} {'eigenvectors':^21}")
    print(f"{'T':>8} {'E/N':>10} {'<H_J>/N':>10} {'<H_h>/N':>10} "
          f"{'<H_J>/N':>10} {'<H_h>/N':>10} {'HF dev':>9}")
    temps = temperature_grid(0.1, 30.0, 12)
    point = EnsemblePoint.from_temperature(temps)
    energies = params.potentials(1.0, point, h1=False).energy
    hf = zip(*hf_term_averages(params, point))
    _, *term_averages = ising_transfer(n, params.coupling_j, params.field_h, point.beta)
    closed = zip(*term_averages)
    for t, e, (hf_j, hf_h), (hj, hh) in zip(temps, energies, hf, closed):
        dev = max(abs(hf_j - hj), abs(hf_h - hh))
        print(f"{t:8.2f} {e / n:10.5f} {hf_j / n:10.5f} {hf_h / n:10.5f} "
              f"{hj / n:10.5f} {hh / n:10.5f} {dev:9.2e}")

    # Ground state: all spins aligned with the field, so per site
    # <H_J>/N -> -J, <H_h>/N -> -h.
    _, hj, hh = ising_transfer(n, params.coupling_j, params.field_h, 1.0 / 0.05)
    print(f"\nT=0.05 per-site averages: "
          f"bonds {hj / n:.4f} (-> -J), "
          f"field {hh / n:.4f} (-> -h)")

    # Cross-check a small chain against exhaustive enumeration.
    small = IsingChain(1.3, -0.7, 8)
    point = EnsemblePoint(beta=0.9)
    couplings = (small.n_spins, small.coupling_j, small.field_h, point.beta)
    _, exact_hj, exact_hh = ising_enumerate(*couplings)
    hf_j, hf_h = hf_term_averages(small, point)
    _, hj, hh = ising_transfer(*couplings)
    print(f"\nN=8 enumeration cross-check at beta=0.9:")
    print(f"  <H_J>: dF/dlam1 {hf_j:.12f}  eigenvectors {hj:.12f}  "
          f"enumeration {exact_hj:.12f}")
    print(f"  <H_h>: dF/dlam2 {hf_h:.12f}  eigenvectors {hh:.12f}  "
          f"enumeration {exact_hh:.12f}")


if __name__ == "__main__":
    main()
