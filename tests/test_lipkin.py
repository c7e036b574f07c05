import math

import numpy as np
import pytest

from thermohf import EnsemblePoint, central_diff, lambda_derivatives, potentials
from thermohf.cli import main as cli_main
from thermohf.models.lipkin import (
    LipkinModel,
    build_block,
    build_block_h1,
    lipkin_levels_with_h1,
    lipkin_spectrum,
    multiplicity,
)


class TestMultiplicity:
    def test_maximal_j(self):
        assert multiplicity(10, 10) == 1  # j = 5

    def test_next_j(self):
        assert multiplicity(10, 8) == 9  # j = 4

    def test_dimension_sum_n10(self):
        total = sum((two_j + 1) * multiplicity(10, two_j) for two_j in range(0, 11, 2))
        assert total == 1024

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 33, 64])
    def test_dimension_sum_exact(self, n):
        total = sum(
            (two_j + 1) * multiplicity(n, two_j) for two_j in range(n % 2, n + 1, 2)
        )
        assert total == 2**n

    def test_rejects_invalid_j(self):
        with pytest.raises(ValueError):
            multiplicity(10, 7)  # wrong parity
        with pytest.raises(ValueError):
            multiplicity(10, 12)  # above N/2


class TestBlocks:
    def test_no_interaction_is_diagonal(self):
        h = build_block(6, epsilon=1.0, v_coupling=0.0)
        assert np.allclose(h, np.diag(np.arange(-3, 4, dtype=float)))

    def test_coupling_switch_off(self):
        assert np.allclose(
            build_block(8, 1.0, 5.0, lam=0.0), build_block(8, 1.0, 0.0)
        )

    def test_only_m_pm2_coupling(self):
        h = build_block(10, 1.0, 3.0)
        mask = np.zeros_like(h, dtype=bool)
        for k in (0, 2):
            mask |= np.eye(11, k=k, dtype=bool) | np.eye(11, k=-k, dtype=bool)
        assert np.all(h[~mask] == 0.0)

    def test_n2_j1_eigenvalues(self):
        # 3x3 block splits into m=0 and the 2x2 {-1,+1} sector
        values = np.linalg.eigvalsh(build_block(2, 1.0, 3.0))
        root = math.sqrt(10.0)
        assert values == pytest.approx([-root, 0.0, root], abs=1e-13)

    def test_h1_matrix_is_coupling_coefficient(self):
        h_on = build_block(6, 1.0, 3.0, lam=1.0)
        h_off = build_block(6, 1.0, 3.0, lam=0.0)
        assert np.allclose(h_on - h_off, build_block_h1(6, 3.0))


class TestSpectrum:
    def test_single_particle(self):
        s = lipkin_spectrum(LipkinModel(1, 1.0, 3.0))
        assert np.allclose(s.energies, [-0.5, 0.5])
        assert np.array_equal(s.degeneracies, [1, 1])

    def test_two_particles(self):
        s = lipkin_spectrum(LipkinModel(2, 1.0, 3.0))
        root = math.sqrt(10.0)
        assert s.energies == pytest.approx([-root, 0.0, 0.0, root], abs=1e-13)
        assert np.array_equal(s.degeneracies, [1, 1, 1, 1])

    def test_weighted_dimension(self):
        for n in (3, 6, 10):
            s = lipkin_spectrum(LipkinModel(n, 1.0, 3.0))
            assert s.dimension == 2**n

    @pytest.mark.parametrize("n", [63, 64, 70, 200])
    def test_multiplicities_beyond_int64(self, n, capsys):
        # from N = 63 the exact multiplicities and their sum outgrow int64
        assert lipkin_spectrum(LipkinModel(n, 1.0, 3.0)).dimension == 2**n
        code = cli_main(["sweep", "--model", "lipkin", "--N", str(n), "--t-steps", "5"])
        out = capsys.readouterr().out
        assert code == 0
        rows = [[float(x) for x in line.split(",")] for line in out.splitlines()[1:]]
        assert len(rows) == 5
        assert np.all(np.isfinite(rows))

    def test_no_interaction_symmetric_about_zero(self):
        s = lipkin_spectrum(LipkinModel(7, 1.0, 0.0))
        expanded = np.repeat(s.energies, s.degeneracies)
        assert np.allclose(np.sort(-expanded), np.sort(expanded))

    def test_negating_splitting_negates_levels(self):
        up = lipkin_spectrum(LipkinModel(6, 1.0, 2.0))
        down_block = [
            build_block(two_j, -1.0, 2.0) for two_j in range(0, 7, 2)
        ]  # epsilon < 0 rejected by the model type, compare block spectra directly
        down = np.sort(np.concatenate([
            np.repeat(np.linalg.eigvalsh(b), multiplicity(6, two_j))
            for two_j, b in zip(range(0, 7, 2), down_block)
        ]))
        expanded = np.repeat(up.energies, up.degeneracies)
        assert np.allclose(np.sort(-expanded), down)


class TestDirectAverage:
    def test_vanishes_without_interaction(self):
        model = LipkinModel(6, 1.0, 0.0)
        for t in (0.2, 1.0, 50.0):
            got = model.h1_direct(EnsemblePoint.from_temperature(t))
            assert got == pytest.approx(0.0, abs=1e-12)

    def test_low_temperature_matches_ground_state_derivative(self):
        model = LipkinModel(10, 1.0, 3.0)
        # low-lying parity doublets converge slowly, so go well below the gap
        cold = model.h1_direct(EnsemblePoint.from_temperature(0.005))
        ground, _ = central_diff(
            lambda lam: float(lipkin_spectrum(model, lam).energies[0]), 1.0
        )  # dE0/dlam at lam = 1
        assert cold == pytest.approx(ground, abs=1e-4)

    def test_matches_free_energy_derivative(self):
        model = LipkinModel(10, 1.0, 3.0)
        for t in (0.5, 2.0, 10.0, 50.0):
            point = EnsemblePoint.from_temperature(t)
            direct = model.h1_direct(point)
            deriv = lambda_derivatives(lambda lam: model.potentials(lam, point)).free_energy
            assert deriv == pytest.approx(direct, abs=1e-6 * max(1.0, abs(direct)))

    def test_entropy_corollary(self):
        model = LipkinModel(8, 1.0, 3.0)
        for t in (1.0, 5.0, 20.0):
            point = EnsemblePoint.from_temperature(t)
            d_s = lambda_derivatives(lambda lam: model.potentials(lam, point)).entropy
            dh1_dt, _ = central_diff(
                lambda temp: model.h1_direct(EnsemblePoint.from_temperature(temp)), t
            )
            assert d_s == pytest.approx(-dh1_dt, abs=1e-5)

    def test_equipartition_limit(self):
        model = LipkinModel(10, 1.0, 3.0)
        t_hot = 1e4 * max(model.epsilon, model.v_coupling * model.n_particles)
        point = EnsemblePoint.from_temperature(t_hot)
        spectrum, _ = lipkin_levels_with_h1(model)
        pots = potentials(spectrum, point)
        assert pots.entropy == pytest.approx(10 * math.log(2), abs=1e-3)
        # occupations uniform to 1e-3 relative
        beta = point.beta
        w = spectrum.degeneracies * np.exp(-beta * (spectrum.energies - spectrum.energies[0]))
        p = w / w.sum()
        uniform = spectrum.degeneracies / spectrum.dimension
        assert np.max(np.abs(p / uniform - 1.0)) < 1e-3


class TestModelValidation:
    def test_rejects_zero_particles(self):
        with pytest.raises(ValueError):
            LipkinModel(0, 1.0, 1.0)

    def test_rejects_nonpositive_splitting(self):
        with pytest.raises(ValueError):
            LipkinModel(4, 0.0, 1.0)
