"""Lipkin model: Hellmann-Feynman verification on a genuinely quantum system.

H^lam = eps J0 + lam H1 with H1 = -(V/2)(J+^2 + J-^2).  The Hilbert space
splits into angular-momentum blocks of dimension 2j+1, each appearing with
an exact integer multiplicity; diagonalizing the blocks gives the full
2^N-level spectrum.  Per-eigenvector matrix elements of H1 then give the
thermal average <H1>_T directly, which the free-energy derivative dF/dlam
must reproduce.  The entropy corollary dS/dlam = -d<H1>/dT is checked on
the same grid.
"""

import numpy as np

from thermohf import EnsemblePoint, potentials
from thermohf.models.lipkin import LipkinModel, lipkin_spectrum, multiplicity
from thermohf.numdiff import central_diff
from thermohf.sweep import sweep, temperature_grid


def main():
    model = LipkinModel(n_particles=10, epsilon=1.0, v_coupling=3.0)

    print("block structure for N=10:")
    total = 0
    for two_j in range(0, 11, 2):
        mult = multiplicity(10, two_j)
        total += (two_j + 1) * mult
        print(f"  j={two_j // 2}: dimension {two_j + 1}, multiplicity {mult}")
    print(f"  weighted total {total} = 2^10\n")

    t_grid = temperature_grid(0.1, 100.0, 120, "geometric")
    rows = sweep(model, t_grid)

    def h1_average(temps):
        return model.potentials(1.0, EnsemblePoint.from_temperature(temps)).h1

    dh1_dt, _ = central_diff(h1_average, t_grid)

    print(f"{'T':>9} {'dF/dlam':>12} {'<H1>_T':>12} {'HF dev':>10} "
          f"{'dS/dlam':>12} {'-d<H1>/dT':>12}")
    for k in range(0, len(rows), 15):
        row = rows[k]
        print(f"{row.temperature:9.3f} {row.df_dlambda:12.6f} {row.h1_direct:12.6f} "
              f"{abs(row.df_dlambda - row.h1_direct):10.2e} "
              f"{row.ds_dlambda:12.6f} {-dh1_dt[k]:12.6f}")

    hf_dev = max(abs(r.df_dlambda - r.h1_direct) for r in rows)
    print(f"\nmax |dF/dlam - <H1>_T| over the sweep: {hf_dev:.3e}")

    # Thermodynamic limits: the entropy saturates at N ln 2 once T dwarfs
    # every level spacing, and dE/dlam dips at intermediate temperature.
    s_hot = potentials(lipkin_spectrum(model),
                       EnsemblePoint.from_temperature(1e4)).entropy
    print(f"S(T=1e4) = {s_hot:.6f}   (N ln 2 = {10 * np.log(2):.6f})")

    de = np.array([r.de_dlambda for r in rows])
    k_min = int(np.argmin(de))
    print(f"dE/dlam minimum {de[k_min]:.4f} at T = {rows[k_min].temperature:.2f}")


if __name__ == "__main__":
    main()
