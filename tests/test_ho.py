import math

import numpy as np
import pytest

from thermohf import EnsemblePoint, central_diff, lambda_derivatives
from thermohf.models.ho import (
    HarmonicOscillator,
    ho_closed_potentials,
    ho_entropy_lambda_derivative,
    ho_potential_average,
    ho_spectrum,
    truncation_level,
)


class TestSpectrumConstruction:
    def test_unit_coupling_levels(self):
        s = ho_spectrum(1.0, 4)
        assert np.allclose(s.energies, [0.5, 1.5, 2.5, 3.5, 4.5])

    def test_coupling_four_doubles_frequency(self):
        s = ho_spectrum(4.0, 3)
        assert np.allclose(s.energies, [1.0, 3.0, 5.0, 7.0])

    def test_single_level(self):
        s = ho_spectrum(1.0, 0)
        assert np.allclose(s.energies, [0.5])

    def test_rejects_nonpositive_coupling(self):
        with pytest.raises(ValueError):
            ho_spectrum(0.0, 10)

    def test_truncation_rule(self):
        assert truncation_level(1.0) == 64
        assert truncation_level(20.0) == 800
        # tail weight below 1e-16 at the largest temperature
        n = truncation_level(20.0)
        assert math.exp(-(1.0 / 20.0) * n) < 1e-16


class TestClosedForms:
    def test_energy_at_beta_one(self):
        pots = ho_closed_potentials(1.0, EnsemblePoint(beta=1.0))
        assert pots.energy == pytest.approx(
            0.5 + math.exp(-1.0) / (1.0 - math.exp(-1.0)), abs=1e-15
        )

    def test_low_temperature_limit(self):
        pots = ho_closed_potentials(1.0, EnsemblePoint(beta=200.0))
        assert pots.free_energy == pytest.approx(0.5, abs=1e-12)
        assert pots.energy == pytest.approx(0.5, abs=1e-12)
        assert pots.entropy == pytest.approx(0.0, abs=1e-12)

    def test_high_temperature_asymptotics(self):
        t = 2000.0
        pots = ho_closed_potentials(1.0, EnsemblePoint.from_temperature(t))
        assert pots.energy == pytest.approx(t, rel=1e-3)
        assert pots.free_energy == pytest.approx(-t * math.log(t), rel=1e-2)

    def test_matches_truncated_spectrum(self):
        model = HarmonicOscillator(n_max=truncation_level(20.0))
        for t in np.linspace(0.05, 20.0, 50):
            point = EnsemblePoint.from_temperature(float(t))
            for lam in (0.9, 1.0, 1.1):
                numeric = model.potentials(lam, point)
                closed = ho_closed_potentials(lam, point)
                assert numeric.free_energy == pytest.approx(closed.free_energy, abs=1e-12)
                assert numeric.energy == pytest.approx(closed.energy, abs=1e-12)
                assert numeric.entropy == pytest.approx(closed.entropy, abs=1e-12)


class TestPotentialAverage:
    def test_low_temperature_quarter(self):
        assert ho_potential_average(EnsemblePoint(beta=100.0)) == pytest.approx(0.25, abs=1e-14)

    def test_high_temperature_half_t(self):
        t = 1000.0
        got = ho_potential_average(EnsemblePoint.from_temperature(t))
        assert got == pytest.approx(t / 2.0, rel=1e-3)

    def test_beta_one_value(self):
        got = ho_potential_average(EnsemblePoint(beta=1.0))
        assert got == pytest.approx(0.25 + 0.5 * math.exp(-1.0) / (1.0 - math.exp(-1.0)), abs=1e-15)
        assert got == pytest.approx(0.5409883534346632, abs=1e-12)

    def test_virial_half_energy(self):
        for t in np.linspace(0.05, 20.0, 100):
            point = EnsemblePoint.from_temperature(float(t))
            energy = ho_closed_potentials(1.0, point).energy
            assert ho_potential_average(point) == pytest.approx(0.5 * energy, abs=1e-12)


class TestEntropyDerivative:
    def test_low_temperature_zero(self):
        assert ho_entropy_lambda_derivative(EnsemblePoint(beta=100.0)) == pytest.approx(0.0, abs=1e-14)

    def test_high_temperature_minus_half(self):
        got = ho_entropy_lambda_derivative(EnsemblePoint.from_temperature(1000.0))
        assert got == pytest.approx(-0.5, rel=1e-4)

    def test_beta_one_value(self):
        got = ho_entropy_lambda_derivative(EnsemblePoint(beta=1.0))
        expected = -0.5 * math.exp(-1.0) / (1.0 - math.exp(-1.0)) ** 2
        assert got == pytest.approx(expected, abs=1e-15)

    def test_equals_minus_temperature_derivative_of_average(self):
        for t in (0.5, 2.0, 10.0):
            deriv, _ = central_diff(
                lambda temp: ho_potential_average(EnsemblePoint.from_temperature(temp)), t
            )
            got = ho_entropy_lambda_derivative(EnsemblePoint.from_temperature(t))
            assert got == pytest.approx(-deriv, abs=1e-6)


class TestHellmannFeynman:
    def test_free_energy_derivative_equals_potential_average(self):
        model = HarmonicOscillator(n_max=truncation_level(50.0))
        point = EnsemblePoint.from_temperature(np.geomspace(0.02, 50.0, 25))
        deriv = lambda_derivatives(lambda lam: model.potentials(lam, point)).free_energy
        assert deriv == pytest.approx(model.h1_direct(point), abs=1e-7)

    def test_zero_temperature_ground_state(self):
        # dE0/dlam at lam=1 is 1/4, the ground-state average of x^2/2
        deriv, _ = central_diff(lambda lam: 0.5 * math.sqrt(lam), 1.0)
        assert deriv == pytest.approx(0.25, abs=1e-10)
