import math

import numpy as np
import pytest

from thermohf import EnsemblePoint
from thermohf.models.ising import (
    IsingChain,
    ising_log_z,
    ising_potentials,
    ising_term_averages,
    ising_total_energy,
)
from thermohf.oracles import ising_enumerate


class TestParams:
    def test_rejects_single_spin(self):
        with pytest.raises(ValueError):
            IsingChain(n_spins=1)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            IsingChain(coupling_j=math.inf)


class TestLogZ:
    def test_zero_field_closed_form(self):
        # lnZ = ln[(2 cosh bJ)^N + (2 sinh bJ)^N]
        for n, j, beta in [(4, 1.0, 0.7), (7, 2.0, 0.3), (10, 0.5, 1.4)]:
            got = ising_log_z(IsingChain(j, 0.0, n), EnsemblePoint(beta=beta))
            expected = math.log(
                (2 * math.cosh(beta * j)) ** n + (2 * math.sinh(beta * j)) ** n
            )
            assert got == pytest.approx(expected, abs=1e-12)

    def test_two_spins_hand_sum(self):
        got = ising_log_z(IsingChain(1.0, 0.0, 2), EnsemblePoint(beta=1.0))
        assert math.exp(got) == pytest.approx(4 * math.cosh(2.0), rel=1e-14)

    def test_couplings_identity_matches_enumeration(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            params = IsingChain(
                coupling_j=float(rng.uniform(-2, 2)),
                field_h=float(rng.uniform(-2, 2)),
                n_spins=int(rng.integers(2, 11)),
            )
            point = EnsemblePoint(beta=float(rng.uniform(0.1, 2.0)))
            exact = ising_enumerate(params, point)
            assert ising_log_z(params, point) == pytest.approx(
                exact.ln_z, rel=1e-12, abs=1e-12
            )

    def test_even_in_field(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            j = float(rng.uniform(-2, 2))
            h = float(rng.uniform(0, 2))
            n = int(rng.integers(2, 13))
            point = EnsemblePoint(beta=float(rng.uniform(0.1, 2.0)))
            assert ising_log_z(IsingChain(j, h, n), point) == pytest.approx(
                ising_log_z(IsingChain(j, -h, n), point), abs=1e-13
            )

    def test_large_system_no_overflow(self):
        got = ising_log_z(IsingChain(2.0, 1.0, 10**6), EnsemblePoint(beta=5.0))
        assert math.isfinite(got)


class TestTermAverages:
    def test_zero_bond_coupling(self):
        params = IsingChain(0.0, 1.0, 6)
        for t in (0.2, 1.0, 10.0):
            got, _ = ising_term_averages(params, EnsemblePoint.from_temperature(t))
            assert got == pytest.approx(0.0, abs=1e-9)

    def test_zero_field(self):
        params = IsingChain(1.5, 0.0, 6)
        for t in (0.2, 1.0, 10.0):
            _, got = ising_term_averages(params, EnsemblePoint.from_temperature(t))
            assert got == pytest.approx(0.0, abs=1e-9)

    def test_matches_enumeration(self):
        params = IsingChain(1.0, 0.5, 4)
        point = EnsemblePoint(beta=1.0)
        exact = ising_enumerate(params, point)
        h_j, h_h = ising_term_averages(params, point)
        assert h_j == pytest.approx(exact.h_j_average, abs=1e-7)
        assert h_h == pytest.approx(exact.h_h_average, abs=1e-7)

    def test_low_temperature_per_spin_limits(self):
        params = IsingChain(2.0, 1.0, 10)
        h_j, h_h = ising_term_averages(params, EnsemblePoint.from_temperature(0.05))
        assert h_j / 10 == pytest.approx(-2.0, abs=1e-3)
        assert h_h / 10 == pytest.approx(-1.0, abs=1e-3)

    def test_field_average_vanishes_at_high_temperature(self):
        params = IsingChain(2.0, 1.0, 10)
        _, h_h = ising_term_averages(params, EnsemblePoint.from_temperature(500.0))
        got = h_h / 10
        assert abs(got) < 1e-2

    def test_requires_unit_coupling(self):
        with pytest.raises(ValueError):
            ising_term_averages(IsingChain(1.0, 1.0, 4, lambda1=1.2), EnsemblePoint(beta=1.0))
        with pytest.raises(ValueError):
            ising_term_averages(IsingChain(1.0, 1.0, 4, lambda2=0.8), EnsemblePoint(beta=1.0))


class TestTotalEnergy:
    def test_analytic_matches_beta_difference(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            params = IsingChain(
                coupling_j=float(rng.uniform(-2, 2)),
                field_h=float(rng.uniform(-2, 2)),
                n_spins=int(rng.integers(2, 12)),
            )
            beta = float(rng.uniform(0.1, 2.0))
            h = 1e-6 * beta
            numeric = -(
                ising_log_z(params, EnsemblePoint(beta=beta + h))
                - ising_log_z(params, EnsemblePoint(beta=beta - h))
            ) / (2 * h)
            got = ising_total_energy(params, EnsemblePoint(beta=beta))
            assert got == pytest.approx(numeric, rel=1e-7, abs=1e-6)

    def test_low_temperature_per_spin(self):
        got = ising_total_energy(IsingChain(2.0, 1.0, 10), EnsemblePoint.from_temperature(0.05))
        assert got / 10 == pytest.approx(-3.0, abs=1e-6)

    def test_high_temperature_decay(self):
        t = 300.0
        got = ising_total_energy(IsingChain(2.0, 1.0, 10), EnsemblePoint.from_temperature(t)) / 10
        assert got == pytest.approx(-(4.0 + 1.0) / t, rel=0.05)

    def test_equals_sum_of_term_averages(self):
        params = IsingChain(2.0, 1.0, 10)
        point = EnsemblePoint.from_temperature(np.geomspace(0.1, 30.0, 12))
        total = ising_total_energy(params, point)
        h_j, h_h = ising_term_averages(params, point)
        assert total == pytest.approx(h_j + h_h, abs=1e-6)

    def test_free_energy_entropy_identity(self):
        params = IsingChain(2.0, 1.0, 10)
        for t in (0.5, 3.0, 20.0):
            point = EnsemblePoint.from_temperature(t)
            pots = ising_potentials(params, point)
            assert pots.free_energy == pytest.approx(
                pots.energy - t * pots.entropy, rel=1e-12, abs=1e-10
            )
            assert pots.entropy >= -1e-12


class TestGrid:
    """A temperature grid gives the same numbers as one temperature at a time."""

    @pytest.mark.parametrize("params", [
        IsingChain(2.0, 1.0, 10),
        IsingChain(-1.5, 0.4, 7),  # odd antiferromagnet: the cancellation branch
        IsingChain(-0.8, -1.2, 12, lambda1=1.3, lambda2=0.6),
    ], ids=["ferro", "odd-antiferro", "scaled"])
    def test_potentials_match_pointwise(self, params):
        temps = np.geomspace(0.02, 40.0, 300)
        grid = ising_potentials(params, EnsemblePoint.from_temperature(temps))
        for k in range(0, temps.size, 11):
            single = ising_potentials(params, EnsemblePoint.from_temperature(float(temps[k])))
            for field, value in vars(single).items():
                got = getattr(grid, field)[k]
                assert abs(got - value) <= 1e-14 * max(1.0, abs(value))
