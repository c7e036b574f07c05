import math

import numpy as np
import pytest

from thermohf import EnsemblePoint, central_diff
from thermohf.models import ho
from thermohf.models.ho import (
    MAX_LEVELS,
    HarmonicOscillator,
    ho_closed_potentials,
    ho_entropy_lambda_derivative,
    ho_spectrum,
    truncation_level,
)
from thermohf.sweep import sweep, temperature_grid


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

    def test_level_cap(self):
        assert truncation_level(MAX_LEVELS / 40.0) == MAX_LEVELS == 2**20
        assert HarmonicOscillator().t_max == MAX_LEVELS / 40.0
        for t_max in (math.nextafter(MAX_LEVELS / 40.0, math.inf), 1e7, 1e308):
            with pytest.raises(ValueError, match="oscillator levels"):
                truncation_level(t_max)
            with pytest.raises(ValueError, match="oscillator levels"):
                HarmonicOscillator(t_max=t_max)

    def test_rejects_nonpositive_t_max(self):
        for t_max in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="t_max must be positive"):
                HarmonicOscillator(t_max=t_max)
        point = EnsemblePoint.from_temperature(np.array([0.5, 2.0]))
        numpy_capped = HarmonicOscillator(t_max=np.float64(2.5)).potentials(1.0, point)
        assert np.array_equal(numpy_capped.energy,
                              HarmonicOscillator(t_max=2.5).potentials(1.0, point).energy)


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
        model = HarmonicOscillator(t_max=20.0)
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
        got = ho_closed_potentials(1.0, EnsemblePoint(beta=100.0)).h1
        assert got == pytest.approx(0.25, abs=1e-14)

    def test_high_temperature_half_t(self):
        t = 1000.0
        got = ho_closed_potentials(1.0, EnsemblePoint.from_temperature(t)).h1
        assert got == pytest.approx(t / 2.0, rel=1e-3)

    def test_beta_one_value(self):
        got = ho_closed_potentials(1.0, EnsemblePoint(beta=1.0)).h1
        assert got == pytest.approx(0.25 + 0.5 * math.exp(-1.0) / (1.0 - math.exp(-1.0)), abs=1e-15)
        assert got == pytest.approx(0.5409883534346632, abs=1e-12)

    def test_virial_half_energy(self):
        # the closed-form <x^2/2> against the engine's E, not the closed form's
        model = HarmonicOscillator(t_max=20.0)
        for t in np.linspace(0.05, 20.0, 100):
            pots = model.potentials(1.0, EnsemblePoint.from_temperature(float(t)))
            assert pots.h1 == pytest.approx(0.5 * pots.energy, abs=1e-12)


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
                lambda temp: ho_closed_potentials(1.0, EnsemblePoint.from_temperature(temp)).h1,
                t,
            )
            got = ho_entropy_lambda_derivative(EnsemblePoint.from_temperature(t))
            assert got == pytest.approx(-deriv, abs=1e-6)


class TestHellmannFeynman:
    def test_free_energy_derivative_equals_potential_average(self):
        model = HarmonicOscillator(t_max=50.0)
        table = sweep(model, np.geomspace(0.02, 50.0, 25))
        assert table.df_dlambda == pytest.approx(table.h1_direct, abs=1e-7)

    @pytest.mark.parametrize("lam", [0.4, 2.5])
    def test_closed_form_h1_off_unit_coupling(self, lam):
        # truncated for T = 20 at a coupling below every abscissa
        model = HarmonicOscillator(t_max=20.0 / math.sqrt(0.3))
        point = EnsemblePoint.from_temperature(np.geomspace(0.02, 20.0, 25))
        deriv, _ = central_diff(lambda x: model.potentials(x, point, h1=False).free_energy, lam)
        h1 = model.potentials(lam, point).h1
        assert np.max(np.abs(deriv - h1) / np.maximum(1.0, np.abs(h1))) <= 1e-7

    @pytest.mark.parametrize("t_min,t_max,steps", [(0.05, 20.0, 200), (0.02, 40.0, 2000)])
    def test_energy_derivative_matches_closed_form(self, t_min, t_max, steps):
        # E = w (1/2 + n) with w = sqrt(lam) and n = 1/(e^{beta w} - 1), so at
        # lam = 1 dE/dlam = (1/2)(1/2 + n) - (beta/2) n (1 + n)
        t_grid = temperature_grid(t_min, t_max, steps)
        point = EnsemblePoint.from_temperature(t_grid)
        occupation = 2.0 * ho_closed_potentials(1.0, point).h1 - 0.5
        exact = 0.5 * (0.5 + occupation) - 0.5 * point.beta * occupation * (1.0 + occupation)
        got = sweep(HarmonicOscillator(t_max=t_max), t_grid).de_dlambda
        assert np.max(np.abs(got - exact) / np.maximum(1.0, np.abs(exact))) <= 1e-7

    def test_zero_temperature_ground_state(self):
        # dE0/dlam at lam=1 is 1/4, the ground-state average of x^2/2
        deriv, _ = central_diff(lambda lam: 0.5 * math.sqrt(lam), 1.0)
        assert deriv == pytest.approx(0.25, abs=1e-10)


def rule_levels(temperature, lam):
    """truncation_level's count at one temperature and coupling, uncapped."""
    return max(64, math.ceil(40.0 * temperature / math.sqrt(lam)))


class TestPerTemperatureTruncation:
    """Each temperature is summed over the levels the truncation rule asks for
    at its own T and coupling, rounded up to 64 * 2^k and capped at the
    rule's count at t_max."""

    GRID = np.geomspace(0.02, 40.0, 400)

    @pytest.mark.parametrize("t_max", [40.0 / math.sqrt(0.3), 17.5],
                             ids=["below-cap", "capped"])
    @pytest.mark.parametrize("lam", [0.3, 1.0, 1.0 + 1e-5, 2.5])
    def test_levels_per_temperature(self, lam, t_max, monkeypatch):
        calls = []
        engine = ho.potentials

        def counted(spec, point, *args, n_levels):
            calls.append((len(spec), np.atleast_1d(point.beta), n_levels))
            return engine(spec, point, *args, n_levels=n_levels)

        monkeypatch.setattr(ho, "potentials", counted)
        HarmonicOscillator(t_max=t_max).potentials(lam, EnsemblePoint.from_temperature(self.GRID))
        cap = truncation_level(t_max)
        ((size, betas, n_levels),) = calls
        assert betas.size == n_levels.size == self.GRID.size and size == n_levels.max()
        for beta, count in zip(betas, n_levels):
            rule, n = rule_levels(1.0 / beta, lam), count - 1
            assert min(rule, cap) <= n <= cap and n < 2 * rule

    @pytest.mark.parametrize("lam", [0.3, 1.0, 2.5])
    def test_row_below_cap_is_its_temperature_alone(self, lam):
        cap = 1000
        model = HarmonicOscillator(t_max=cap / 40.0)
        grid = model.potentials(lam, EnsemblePoint.from_temperature(self.GRID))
        below_cap = 0
        for k, t in enumerate(self.GRID):
            single = model.potentials(lam, EnsemblePoint.from_temperature(float(t)))
            if 2 * rule_levels(t, lam) > cap:
                continue
            below_cap += 1
            for field, value in vars(single).items():
                assert np.array_equal(getattr(grid, field)[k], value), (t, field)
        assert 0 < below_cap < self.GRID.size

    def test_group_boundaries_keep_hellmann_feynman(self):
        # 40 T = 64 * 2^k: the derivative abscissae fall on both sides
        edges = 64.0 * 2.0 ** np.arange(5) / 40.0
        temps = np.sort(np.concatenate([edges, np.nextafter(edges, 0.0),
                                        np.nextafter(edges, np.inf)]))
        model = HarmonicOscillator(t_max=float(temps.max()) / math.sqrt(0.9))
        deriv = sweep(model, temps).df_dlambda
        closed = ho_closed_potentials(1.0, EnsemblePoint.from_temperature(temps)).h1
        assert np.max(np.abs(deriv - closed)) <= 1e-7

    @pytest.mark.parametrize("t", [30.0, 100.0, 1000.0])
    def test_default_model_is_not_cut_short(self, t):
        # the default t_max is 26214.4, so no temperature up to it is capped
        point = EnsemblePoint.from_temperature(t)
        numeric = HarmonicOscillator().potentials(1.0, point)
        closed = ho_closed_potentials(1.0, point)
        for name in ("free_energy", "energy", "entropy"):
            got, want = getattr(numeric, name), getattr(closed, name)
            assert abs(got - want) <= 1e-12 * abs(want), name

    def test_scalar_point_gives_floats(self):
        model = HarmonicOscillator(t_max=50.0)
        for t in (0.03, 1.6, 30.0):
            pots = model.potentials(1.0, EnsemblePoint.from_temperature(t))
            assert all(isinstance(x, float) for x in vars(pots).values())
            assert model.potentials(1.0, EnsemblePoint.from_temperature(t), h1=False).h1 is None

    @pytest.mark.parametrize("lam", [0.0, -1.0])
    def test_rejects_nonpositive_coupling(self, lam):
        point = EnsemblePoint.from_temperature(np.array([0.1, 10.0]))
        with pytest.raises(ValueError, match="coupling must be positive"):
            HarmonicOscillator().potentials(lam, point)

    @pytest.mark.parametrize("lam", [0.0, -1.0])
    def test_potential_average_rejects_nonpositive_coupling(self, lam):
        # unchecked, lam = 0 would give inf and lam = -1 a math domain error
        with pytest.raises(ValueError, match="coupling must be positive"):
            ho_closed_potentials(lam, EnsemblePoint.from_temperature(1.0))
