"""Harmonic oscillator: the numerical engine against closed forms.

The oscillator with a scaled potential, H^lam = p^2/2 + lam x^2/2, has
levels E_n = (n + 1/2) sqrt(lam), so every quantity the engine computes
numerically is also available in closed form.  This script sweeps
temperature, compares both routes, and checks the finite-temperature
Hellmann-Feynman identity dF/dlam = <x^2/2> along the way.
"""

import numpy as np

from thermohf import EnsemblePoint
from thermohf.models.ho import (
    HarmonicOscillator,
    ho_closed_potentials,
    ho_entropy_lambda_derivative,
)
from thermohf.sweep import sweep, temperature_grid


def main():
    t_grid = temperature_grid(0.05, 20.0, 40)
    model = HarmonicOscillator(t_max=float(t_grid[-1]))

    # The engine takes the whole grid at once; sweep's table holds the
    # potentials, their coupling derivatives and the direct <x^2/2>.
    temps = t_grid[::5]
    point = EnsemblePoint.from_temperature(temps)
    table = sweep(model, temps)
    closed = ho_closed_potentials(1.0, point)
    direct = table.h1_direct
    ds_exact = ho_entropy_lambda_derivative(point)

    print(f"{'T':>8} {'F num':>12} {'F exact':>12} {'dF/dlam':>12} "
          f"{'<x^2/2>':>12} {'dS/dlam':>12} {'exact':>12}")
    for row in zip(temps, table.free_energy, closed.free_energy,
                   table.df_dlambda, direct, table.ds_dlambda, ds_exact):
        print("{:8.2f} {:12.6f} {:12.6f} {:12.6f} {:12.6f} {:12.6f} {:12.6f}".format(*row))
    worst = max(np.max(np.abs(table.df_dlambda - direct)),
                np.max(np.abs(table.ds_dlambda - ds_exact)))

    print()
    print(f"worst Hellmann-Feynman residual over the grid: {worst:.3e}")

    # The two classic limits: <x^2/2> -> 1/4 as T -> 0 (zero-point motion)
    # and dF/dlam -> T/2 at high temperature (equipartition).
    cold = ho_closed_potentials(1.0, EnsemblePoint.from_temperature(0.01)).h1
    hot = ho_closed_potentials(1.0, EnsemblePoint.from_temperature(100.0)).h1
    print(f"<x^2/2> at T=0.01:  {cold:.6f}   (zero-point value 0.25)")
    print(f"<x^2/2> at T=100:   {hot:.4f}   (equipartition T/2 = 50)")


if __name__ == "__main__":
    main()
