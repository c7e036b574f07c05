import math

import numpy as np
import pytest

from thermohf import (
    EnsemblePoint,
    Spectrum,
    log_partition,
    potentials,
    thermal_average,
)


class TestSpectrum:
    def test_default_degeneracies(self):
        s = Spectrum([0.0, 1.0, 2.0])
        assert np.array_equal(s.degeneracies, [1, 1, 1])
        assert s.dimension == 3

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Spectrum([])

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            Spectrum([1.0, 0.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Spectrum([0.0, math.inf])

    def test_rejects_zero_degeneracy(self):
        with pytest.raises(ValueError):
            Spectrum([0.0], [0])

    def test_immutable_arrays(self):
        s = Spectrum([0.0, 1.0])
        with pytest.raises(ValueError):
            s.energies[0] = 5.0


class TestEnsemblePoint:
    def test_beta_temperature_inverse(self):
        p = EnsemblePoint.from_temperature(4.0)
        assert p.beta == 0.25
        assert p.temperature == 4.0

    @pytest.mark.parametrize("beta", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_beta(self, beta):
        with pytest.raises(ValueError):
            EnsemblePoint(beta=beta)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_entry_in_grid(self, bad):
        grid = np.array([0.5, 1.0, bad, 2.0])
        with pytest.raises(ValueError):
            EnsemblePoint(beta=grid)
        with pytest.raises(ValueError):
            EnsemblePoint.from_temperature(grid)

    def test_grid_is_read_only_copy(self):
        grid = np.array([0.5, 1.0, 2.0])
        p = EnsemblePoint.from_temperature(grid)
        assert np.array_equal(p.beta, 1.0 / grid)
        with pytest.raises(ValueError):
            p.beta[0] = 3.0

    def test_rejects_two_dimensional_grid(self):
        with pytest.raises(ValueError):
            EnsemblePoint(beta=np.ones((2, 2)))


class TestLogPartition:
    def test_single_level_at_zero(self):
        assert log_partition(Spectrum([0.0]), EnsemblePoint(beta=1.0)) == 0.0

    def test_two_level_closed_form(self):
        got = log_partition(Spectrum([0.0, 1.0]), EnsemblePoint(beta=1.0))
        assert got == pytest.approx(math.log(1.0 + math.exp(-1.0)), abs=1e-15)

    def test_truncated_oscillator_vs_csch(self):
        # sum_{n=0}^{200} e^{-(n+1/2)} vs (1/2) csch(1/2)
        s = Spectrum(np.arange(201) + 0.5)
        got = log_partition(s, EnsemblePoint(beta=1.0))
        assert got == pytest.approx(math.log(0.5 / math.sinh(0.5)), abs=1e-14)

    def test_degeneracy_counts(self):
        # {(0,2)} is the same as {(0,1),(0,1)}
        got = log_partition(Spectrum([0.0], [2]), EnsemblePoint(beta=3.0))
        assert got == pytest.approx(math.log(2.0), abs=1e-15)

    def test_large_beta_no_overflow(self):
        s = Spectrum([-1000.0, 0.0])
        got = log_partition(s, EnsemblePoint(beta=1e4))
        assert math.isfinite(got)
        assert got == pytest.approx(1e7, rel=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(7)
        e = np.sort(rng.uniform(-5, 5, 40))
        s = Spectrum(e)
        for beta in (0.1, 1.0, 10.0):
            p = EnsemblePoint(beta=beta)
            base = log_partition(s, p)
            shifted = log_partition(Spectrum(e + 3.7), p)
            assert shifted == pytest.approx(base - beta * 3.7, abs=1e-13 * max(1, abs(base)))


class TestPotentials:
    def test_pure_state(self):
        for beta in (0.2, 1.0, 50.0):
            pots = potentials(Spectrum([-2.5]), EnsemblePoint(beta=beta))
            assert pots.free_energy == pytest.approx(-2.5, abs=1e-14)
            assert pots.energy == pytest.approx(-2.5, abs=1e-14)
            assert pots.entropy == pytest.approx(0.0, abs=1e-14)

    def test_oscillator_energy(self):
        s = Spectrum(np.arange(201) + 0.5)
        pots = potentials(s, EnsemblePoint(beta=1.0))
        expected = 0.5 + math.exp(-1.0) / (1.0 - math.exp(-1.0))
        assert pots.energy == pytest.approx(expected, abs=1e-14)

    def test_oscillator_low_temperature_limit(self):
        s = Spectrum(np.arange(201) + 0.5)
        pots = potentials(s, EnsemblePoint(beta=50.0))
        assert pots.energy == pytest.approx(0.5, abs=1e-12)
        assert pots.free_energy == pytest.approx(0.5, abs=1e-12)

    def test_thermodynamic_identity(self):
        rng = np.random.default_rng(11)
        e = np.sort(rng.uniform(-3, 3, 25))
        g = rng.integers(1, 5, 25)
        s = Spectrum(e, g)
        for beta in np.geomspace(0.01, 100, 15):
            p = EnsemblePoint(beta=float(beta))
            pots = potentials(s, p)
            scale = max(1.0, abs(pots.free_energy))
            assert pots.free_energy == pytest.approx(-pots.ln_z / beta, abs=1e-14 * scale)
            assert pots.free_energy == pytest.approx(
                pots.energy - p.temperature * pots.entropy, rel=1e-12, abs=1e-12
            )
            assert pots.entropy >= -1e-12

    def test_energy_and_entropy_monotone_in_temperature(self):
        rng = np.random.default_rng(13)
        s = Spectrum(np.sort(rng.uniform(-4, 4, 30)))
        temps = np.geomspace(0.05, 50, 60)
        results = [potentials(s, EnsemblePoint.from_temperature(float(t))) for t in temps]
        energies = [r.energy for r in results]
        entropies = [r.entropy for r in results]
        assert all(b >= a - 1e-10 for a, b in zip(energies, energies[1:]))
        assert all(b >= a - 1e-10 for a, b in zip(entropies, entropies[1:]))


class TestThermalAverage:
    def test_constant_observable(self):
        s = Spectrum([0.0, 1.0, 3.0], [1, 2, 1])
        for beta in (0.1, 1.0, 20.0):
            got = thermal_average([4.2, 4.2, 4.2], s, EnsemblePoint(beta=beta))
            assert got == pytest.approx(4.2, abs=1e-14)

    def test_energies_reproduce_mean_energy(self):
        rng = np.random.default_rng(17)
        s = Spectrum(np.sort(rng.uniform(-2, 2, 20)), rng.integers(1, 4, 20))
        for beta in (0.3, 2.0):
            p = EnsemblePoint(beta=beta)
            avg = thermal_average(s.energies, s, p)
            assert avg == pytest.approx(potentials(s, p).energy, abs=1e-14)

    def test_two_level_hand_sum(self):
        got = thermal_average([0.0, 1.0], Spectrum([0.0, 1.0]), EnsemblePoint(beta=1.0))
        expected = math.exp(-1.0) / (1.0 + math.exp(-1.0))
        assert got == pytest.approx(expected, abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            thermal_average([1.0], Spectrum([0.0, 1.0]), EnsemblePoint(beta=1.0))


def _assert_close(got, want):
    assert abs(got - want) <= 1e-14 * max(1.0, abs(want))


class TestGrid:
    """A temperature grid gives the same numbers as one temperature at a time."""

    def test_scalar_in_scalar_out(self):
        s = Spectrum([0.0, 1.0, 2.0], [1, 3, 2])
        p = EnsemblePoint(beta=0.7)
        assert isinstance(log_partition(s, p), float)
        assert isinstance(thermal_average([1.0, 2.0, 3.0], s, p), float)
        assert all(isinstance(x, float) for x in vars(potentials(s, p)).values())

    @pytest.mark.parametrize("n_levels,n_temps", [(30, 60), (1601, 2000)],
                             ids=["one-block", "several-blocks"])
    def test_potentials_and_average_match_pointwise(self, n_levels, n_temps):
        rng = np.random.default_rng(n_levels)
        s = Spectrum(np.sort(rng.uniform(-3, 40, n_levels)), rng.integers(1, 6, n_levels))
        obs = rng.standard_normal(n_levels)
        temps = np.geomspace(0.01, 50.0, n_temps)
        grid = EnsemblePoint.from_temperature(temps)
        pots = potentials(s, grid)
        ln_z = log_partition(s, grid)
        avg = thermal_average(obs, s, grid)
        assert avg.shape == ln_z.shape == pots.energy.shape == (n_temps,)
        for k in range(0, n_temps, 7):
            point = EnsemblePoint.from_temperature(float(temps[k]))
            single = potentials(s, point)
            for field, value in vars(single).items():
                _assert_close(getattr(pots, field)[k], value)
            _assert_close(ln_z[k], log_partition(s, point))
            _assert_close(avg[k], thermal_average(obs, s, point))
