import math

import numpy as np
import pytest

from thermohf import DiffConfig, EnsemblePoint, central_diff, potentials
from thermohf.models.ho import (
    HarmonicOscillator,
    ho_entropy_lambda_derivative,
    ho_potential_average,
    ho_spectrum,
)
from thermohf.sweep import sweep


class TestDiffConfig:
    def test_defaults(self):
        c = DiffConfig()
        assert c.relative_step == 1e-5
        assert c.richardson_levels == 2

    @pytest.mark.parametrize("step", [1e-13, 0.5])
    def test_rejects_bad_step(self, step):
        with pytest.raises(ValueError):
            DiffConfig(relative_step=step)

    @pytest.mark.parametrize("levels", [0, 6])
    def test_rejects_bad_levels(self, levels):
        with pytest.raises(ValueError):
            DiffConfig(richardson_levels=levels)


class TestCentralDiff:
    def test_quadratic(self):
        deriv, err = central_diff(lambda x: x * x, 3.0)
        assert deriv == pytest.approx(6.0, abs=1e-9)
        assert err < 1e-8

    def test_exponential_at_zero(self):
        deriv, _ = central_diff(math.exp, 0.0)
        assert deriv == pytest.approx(1.0, abs=1e-10)

    def test_oscillator_free_energy_derivative(self):
        # dF/dlam at lam=1, beta=1 equals 1/4 + (1/2) e^-1/(1-e^-1)
        model = HarmonicOscillator(n_max=1024)
        point = EnsemblePoint(beta=1.0)
        deriv, _ = central_diff(
            lambda lam: model.potentials(lam, point).free_energy, 1.0
        )
        assert deriv == pytest.approx(ho_potential_average(point), abs=1e-8)

    def test_single_level_is_plain_central_difference(self):
        config = DiffConfig(relative_step=1e-4, richardson_levels=1)
        deriv, err = central_diff(lambda x: x**3, 2.0, config)
        h = 1e-4 * 2.0
        expected = (((2 + h) ** 3) - ((2 - h) ** 3)) / (2 * h)
        assert deriv == expected
        assert math.isnan(err)

    def test_error_estimate_bounds_step_halving(self):
        for f, x0 in [(math.sin, 0.7), (math.exp, 1.3), (lambda x: 1 / x, 2.0)]:
            base = DiffConfig(relative_step=1e-4)
            halved = DiffConfig(relative_step=5e-5)
            d1, err = central_diff(f, x0, base)
            d2, _ = central_diff(f, x0, halved)
            assert abs(d2 - d1) <= max(err, 1e-13)

    def test_non_finite_propagates(self):
        with pytest.raises(ValueError):
            central_diff(lambda x: math.inf, 1.0)

    def test_array_argument_matches_elementwise(self):
        x0 = np.array([-3.0, 0.2, 0.7, 5.0])
        deriv, err = central_diff(np.sin, x0)
        for k, x in enumerate(x0):
            d1, e1 = central_diff(np.sin, float(x))
            assert deriv[k] == d1 and err[k] == e1
        assert deriv == pytest.approx(np.cos(x0), abs=1e-9)

    def test_non_finite_entry_propagates(self):
        with pytest.raises(ValueError):
            central_diff(lambda x: np.where(x > 0, x, np.inf), np.array([1.0, -2.0]))


class TestLambdaDerivative:
    def test_flat_model_gives_zero(self):
        point = EnsemblePoint(beta=1.0)
        spectrum = ho_spectrum(1.0, 128)  # frozen: ignores lam
        deriv, _ = central_diff(lambda lam: potentials(spectrum, point).free_energy, 1.0)
        assert deriv == pytest.approx(0.0, abs=1e-10)

    def test_entropy_derivative_matches_closed_form(self):
        model = HarmonicOscillator(n_max=1024)
        point = EnsemblePoint(beta=1.0)
        (deriv,) = sweep(model, [1.0]).ds_dlambda
        assert deriv == pytest.approx(ho_entropy_lambda_derivative(point), abs=1e-6)
        # closed form at beta=1: -(1/2) e^-1/(1-e^-1)^2
        assert deriv == pytest.approx(-0.4603367971038962, abs=1e-6)

    def test_chain_consistency(self):
        # dF/dlam = dE/dlam - T dS/dlam
        model = HarmonicOscillator(n_max=2048)
        table = sweep(model, [0.5, 2.0, 10.0])
        assert table.df_dlambda == pytest.approx(
            table.de_dlambda - table.temperature * table.ds_dlambda, abs=1e-7
        )
