"""The engine against an exact reference: 40-digit sums in the stdlib decimal.

The reference takes the spectrum's own float levels as exact binary values,
its integer multiplicities, per-level h1 and beta, and forms
z0 = sum g e^{-beta (E - E0)}, lnZ, F, E, <H1> and S = ln z0 + beta <E - E0>
to 40 significant digits, so each engine value's error is measured in ulps
of the true value for the levels given. S is formed but not asserted: the
engine's S = beta (E - F) cancels at low T (ROADMAP item 1).
"""

import decimal
import math
from decimal import Decimal

import numpy as np
import pytest

from thermohf import EnsemblePoint, Spectrum, potentials
from thermohf.models.ho import ho_spectrum
from thermohf.models.lipkin import LipkinModel, lipkin_levels

DIGITS = 40
ASSERTED = ("ln_z", "free_energy", "energy", "h1")


def exact_potentials(spectrum, h1, beta: float) -> dict[str, Decimal]:
    """lnZ, F, E, S and <H1> of the spectrum at one beta, to DIGITS digits."""
    with decimal.localcontext(decimal.Context(prec=DIGITS)):
        b = Decimal(float(beta))
        energies = [Decimal(float(x)) for x in spectrum.energies]
        e0 = energies[0]
        gaps = [e - e0 for e in energies]
        weights = [int(g) * (-b * gap).exp() for g, gap in zip(spectrum.degeneracies, gaps)]
        z0 = sum(weights)
        mean_gap = sum(w * gap for w, gap in zip(weights, gaps)) / z0
        ln_z = z0.ln() - b * e0
        return {
            "ln_z": ln_z,
            "free_energy": -ln_z / b,
            "energy": e0 + mean_gap,
            "entropy": z0.ln() + b * mean_gap,
            "h1": sum(w * Decimal(float(h)) for w, h in zip(weights, h1)) / z0,
        }


def ulps(got: float, exact: Decimal) -> float:
    """|got - exact| in units of the last place of exact's nearest float."""
    with decimal.localcontext(decimal.Context(prec=DIGITS)):
        return float(abs(Decimal(float(got)) - exact) / Decimal(math.ulp(float(exact))))


def worst_ulps(spectrum, h1, temperatures) -> dict[str, float]:
    """Each asserted quantity's largest error in ulps over the temperatures,
    the engine evaluating them all in one grid call."""
    engine = vars(potentials(spectrum, EnsemblePoint.from_temperature(temperatures), h1))
    worst = dict.fromkeys(ASSERTED, 0.0)
    for i, t in enumerate(temperatures):
        exact = exact_potentials(spectrum, h1, 1.0 / t)
        for name in worst:
            worst[name] = max(worst[name], ulps(engine[name][i], exact[name]))
    return worst


def _lipkin(n_particles, v_coupling, epsilon=1.0):
    return lipkin_levels(LipkinModel(n_particles=n_particles, epsilon=epsilon,
                                     v_coupling=v_coupling))


def _oscillator():
    # 2001 levels n + 1/2 at lam = 1; per-level <x^2/2> is half of each
    spectrum = ho_spectrum(1.0, 2000)
    return spectrum, spectrum.energies / 2


# (case, temperatures, largest ulps allowed for lnZ, F, E and <H1>). Each
# bound is the worst measured over 25 geometric temperatures from T = 0.01
# to 100, plus a margin of 2 ulps, rounded up: Lipkin N = 10, V = 3 read
# 0.99, 1.16, 2.15 and 2.22 ulps; N = 37, V = 4.7 read 0.73, 1.18, 1.41 and
# 2.48; the oscillator 5.39, 5.39, 2.22 and 2.22. S read 4.3e4, 2.9e5 and
# 8.0e15 ulps. The oscillator's 2001-level reference costs about 50 ms a
# temperature, so the test runs it at every sixth of the 25 (T = 0.01, 0.1,
# 1, 10 and 100), which still hold its worst lnZ and F. Lipkin N = 37,
# eps = 0.856, V = -2.27 has a ground doublet split by 4.5e-12, so only the
# doublet is populated from T = 6e-6 to 7e-5, where S = ln 2 (ROADMAP item
# 1): on the grid it read 0.79, 1.55, 2.29 and 1.91 ulps, and at 9 geometric
# temperatures from 6e-6 to 7e-5 0.84, 1.19, 1.0 and 1.0.
GRID = np.geomspace(0.01, 100.0, 25)
DOUBLET_T = np.geomspace(6e-6, 7e-5, 9)
CASES = {
    "lipkin-N10-V3": (lambda: _lipkin(10, 3.0), GRID, (3.0, 3.2, 4.2, 4.3)),
    "lipkin-N37-V4.7": (lambda: _lipkin(37, 4.7), GRID, (2.8, 3.2, 3.5, 4.5)),
    "lipkin-N37-doublet": (lambda: _lipkin(37, -2.27, 0.856), GRID, (2.8, 3.6, 4.3, 4.0)),
    "lipkin-N37-doublet-low-T": (lambda: _lipkin(37, -2.27, 0.856), DOUBLET_T,
                                 (2.9, 3.2, 3.1, 3.0)),
    "oscillator-2001": (_oscillator, GRID[::6], (7.4, 7.4, 4.3, 4.3)),
}


@pytest.mark.parametrize("case", CASES.values(), ids=CASES)
def test_engine_within_bound_of_exact_sums(case):
    make, temperatures, bounds = case
    worst = worst_ulps(*make(), temperatures)
    for name, bound in zip(ASSERTED, bounds):
        assert worst[name] <= bound, (name, worst[name])


def test_reference_is_exact_on_a_two_level_closed_form():
    # g = (1, 3) at gap 1: lnZ = ln(1 + 3 e^{-beta}), E = 3 e^{-beta} / (1 + 3 e^{-beta})
    spectrum = Spectrum([0.0, 1.0], [1, 3])
    exact = exact_potentials(spectrum, [0.0, 1.0], 2.0)
    with decimal.localcontext(decimal.Context(prec=DIGITS)):
        z = 1 + 3 * Decimal(-2).exp()
        assert abs(exact["ln_z"] - z.ln()) < Decimal("1e-38")
        assert abs(exact["energy"] - (z - 1) / z) < Decimal("1e-38")
        assert abs(exact["h1"] - exact["energy"]) < Decimal("1e-38")
        assert abs(exact["entropy"] - (z.ln() + 2 * exact["energy"])) < Decimal("1e-38")
