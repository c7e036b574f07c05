import math

import numpy as np
import pytest

from thermohf import EnsemblePoint, central_diff, potentials
from thermohf.cli import main as cli_main
from thermohf.models import lipkin
from thermohf.models.lipkin import (
    LipkinModel,
    lipkin_levels_with_h1,
    lipkin_spectrum,
    multiplicity,
)
from thermohf.sweep import sweep, temperature_grid


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
            assert sum(s.degeneracies.tolist()) == 2**n

    @pytest.mark.parametrize("n", [63, 64, 70, 200])
    def test_multiplicities_beyond_int64(self, n, capsys):
        # from N = 63 the exact multiplicities and their sum outgrow int64
        degeneracies = lipkin_spectrum(LipkinModel(n, 1.0, 3.0)).degeneracies
        assert sum(degeneracies.tolist()) == 2**n
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


def build_block_h1(two_j: int, v_coupling: float) -> np.ndarray:
    """Dense matrix of H1 = -(V/2)(Jp^2 + Jm^2) in the ordered m-basis of one
    block: it couples only m <-> m+2, with element
    -(V/2) sqrt(j(j+1)-m(m+1)) sqrt(j(j+1)-(m+1)(m+2))."""
    dim = two_j + 1
    i = np.arange(dim - 2)
    m = -0.5 * two_j + i
    jj = 0.25 * two_j * (two_j + 2)  # j(j+1)
    h1 = np.zeros((dim, dim))
    h1[i, i + 2] = h1[i + 2, i] = (
        -0.5 * v_coupling * (np.sqrt(jj - m * (m + 1)) * np.sqrt(jj - (m + 1) * (m + 2)))
    )
    return h1


def build_block(two_j: int, epsilon: float, v_coupling: float, lam: float = 1.0) -> np.ndarray:
    """Dense block Hamiltonian eps*diag(m) + lam*H1 in the ordered m-basis."""
    m = -0.5 * two_j + np.arange(two_j + 1)
    return np.diag(epsilon * m) + lam * build_block_h1(two_j, v_coupling)


def reference_levels_with_h1(model: LipkinModel, lam: float):
    """The per-sector loop: one eigh per m-parity sector of each dense block,
    and <v|H1|v> from the dense sector matrix."""
    n = model.n_particles
    energies, degeneracies, h1_values = [], [], []
    for two_j in range(n % 2, n + 1, 2):
        h = build_block(two_j, model.epsilon, model.v_coupling, lam)
        h1 = build_block_h1(two_j, model.v_coupling)
        for p in (0, 1):
            values, vectors = np.linalg.eigh(h[p::2, p::2])
            energies.append(values)
            degeneracies.append(np.full(values.size, multiplicity(n, two_j), dtype=object))
            h1_values.append(np.einsum("ij,jk,ki->i", vectors.T, h1[p::2, p::2], vectors))
    e = np.concatenate(energies)
    order = np.argsort(e, kind="stable")
    return e[order], np.concatenate(degeneracies)[order], np.concatenate(h1_values)[order]


def reference_eigenvalues(model: LipkinModel, lam: float):
    """The per-sector loop with eigenvalues alone: one unpadded eigvalsh per
    m-parity sector of each dense block."""
    n = model.n_particles
    energies, degeneracies = [], []
    for two_j in range(n % 2, n + 1, 2):
        h = build_block(two_j, model.epsilon, model.v_coupling, lam)
        for p in (0, 1):
            values = np.linalg.eigvalsh(h[p::2, p::2])
            energies.append(values)
            degeneracies.append(np.full(values.size, multiplicity(n, two_j), dtype=object))
    e = np.concatenate(energies)
    order = np.argsort(e, kind="stable")
    return e[order], np.concatenate(degeneracies)[order]


# lam = 1 and the derivative abscissae of the default DiffConfig
LAMBDAS = (1.0, 1.0 + 1e-5, 1.0 - 1e-5, 1.0 + 5e-6, 1.0 - 5e-6)


def sector_loop_cases(n):
    """Every V at N, with eps and lam in turn, so that every (V, eps, lam)
    occurs across the N."""
    for i, v in enumerate((-3.0, 0.0, 4.7)):
        yield LipkinModel(n, (1e-3, 1.0, 1e3)[(n + i) % 3], v), LAMBDAS[(n // 3 + i) % 5]


def assert_matches_sector_loop(model: LipkinModel, lam: float):
    spectrum, h1 = lipkin_levels_with_h1(model, lam)
    energies, degeneracies, h1_ref = reference_levels_with_h1(model, lam)
    assert np.array_equal(spectrum.energies, energies)
    assert np.array_equal(spectrum.degeneracies, degeneracies)
    assert np.max(np.abs(h1 - h1_ref)) <= 1e-14 * max(1.0, np.max(np.abs(h1_ref)))
    values_only = lipkin_spectrum(model, lam)
    energies, degeneracies = reference_eigenvalues(model, lam)
    assert np.array_equal(values_only.energies, energies)
    assert np.array_equal(values_only.degeneracies, degeneracies)


class TestStackedSectors:
    """One stacked eigh (eigvalsh) per batch of sectors gives the per-sector
    loop's eigh (eigvalsh) eigenvalues bit for bit."""

    @pytest.mark.parametrize("n", range(1, 81))
    def test_matches_sector_loop(self, n):
        # N = 1, 2 have one-row sectors, and even N the empty odd sector at j = 0
        for model, lam in sector_loop_cases(n):
            assert_matches_sector_loop(model, lam)

    @pytest.mark.parametrize("v", [-3.0, 4.7])
    def test_matches_sector_loop_large_sectors(self, v):
        # N = 260: sectors past 25 rows (divide and conquer) and past 128
        # (blocked tridiagonal reduction)
        assert_matches_sector_loop(LipkinModel(260, 1.0, v), 1.0 - 5e-6)

    def test_matches_sector_loop_n150(self):
        for model, lam in sector_loop_cases(150):
            assert_matches_sector_loop(model, lam)

    def test_matches_sector_loop_in_small_batches(self, monkeypatch):
        monkeypatch.setattr(lipkin, "_BATCH_ELEMENTS", 50)
        for n in (8, 37):  # several sectors per batch, and one per batch
            for lam in LAMBDAS:
                assert_matches_sector_loop(LipkinModel(n, 1.0, -3.0), lam)

    def count_eigh(self, monkeypatch):
        stacks = []
        eigh = np.linalg.eigh

        def counted(a):
            stacks.append(a.shape)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        return stacks

    def test_one_eigh_per_spectrum(self, monkeypatch):
        stacks = self.count_eigh(monkeypatch)
        lipkin_levels_with_h1(LipkinModel(37, 1.0, 3.0), 1.0)
        assert stacks == [(38, 19, 19)]

    def test_batches_within_element_budget(self, monkeypatch):
        stacks = self.count_eigh(monkeypatch)
        spectrum, _ = lipkin_levels_with_h1(LipkinModel(400, 1.0, 3.0), 1.0)
        assert len(stacks) > 1
        assert all(math.prod(shape) <= lipkin._BATCH_ELEMENTS for shape in stacks)
        assert sum(shape[0] for shape in stacks) == 2 * 201  # every sector once
        assert spectrum.energies.size == 201**2  # sum of block dimensions


class TestEigenvalueSpectrum:
    """lipkin_spectrum against the eigh levels, and the spectra a sweep
    builds from the model's cached sector layout."""

    @pytest.mark.parametrize("n", [*range(1, 81, 3), 150, 260])
    def test_agrees_with_eigh_levels(self, n):
        # measured over these cases and all N up to 80: at most 4.4e-15 of
        # the largest |E|; the bound leaves a margin of 2.3
        for model, lam in sector_loop_cases(n):
            levels, _ = lipkin_levels_with_h1(model, lam)
            energies = lipkin_spectrum(model, lam).energies
            assert np.max(np.abs(energies - levels.energies)) <= 1e-14 * np.max(
                np.abs(levels.energies))

    def test_sweep_one_eigh_and_eigvalsh_per_abscissa(self, monkeypatch):
        calls = []
        for name in ("eigh", "eigvalsh"):
            def counted(a, _name=name, _solve=getattr(np.linalg, name)):
                calls.append(_name)
                return _solve(a)

            monkeypatch.setattr(np.linalg, name, counted)
        sweep(LipkinModel(37, 1.0, 3.0), temperature_grid(0.1, 100.0, 200, "geometric"))
        assert sorted(calls) == ["eigh"] + ["eigvalsh"] * 4

    def test_layout_built_once_and_read_only(self, monkeypatch):
        model = LipkinModel(37, 1.0, 3.0)
        lipkin_spectrum(model, 1.0)
        monkeypatch.setattr(lipkin, "_sectors", None)  # a rebuild would fail
        levels, _ = lipkin_levels_with_h1(model, 1.0 + 1e-5)
        spectrum = lipkin_spectrum(model, 1.0 - 1e-5)
        layout = model._layout
        batches = [array for batch in layout.batches for array in batch[:4]]
        for array in (*batches, *layout[1:], *vars(levels).values(), *vars(spectrum).values()):
            assert not array.flags.writeable


class TestDirectAverage:
    def test_vanishes_without_interaction(self):
        model = LipkinModel(6, 1.0, 0.0)
        for t in (0.2, 1.0, 50.0):
            got = model.potentials(1.0, EnsemblePoint.from_temperature(t)).h1
            assert got == pytest.approx(0.0, abs=1e-12)

    def test_low_temperature_matches_ground_state_derivative(self):
        model = LipkinModel(10, 1.0, 3.0)
        # low-lying parity doublets converge slowly, so go well below the gap
        cold = model.potentials(1.0, EnsemblePoint.from_temperature(0.005)).h1
        ground, _ = central_diff(
            lambda lam: float(lipkin_spectrum(model, lam).energies[0]), 1.0
        )  # dE0/dlam at lam = 1
        assert cold == pytest.approx(ground, abs=1e-4)

    @pytest.mark.parametrize("n,v", [(12, 3.0), (37, 4.7)])
    def test_per_level_h1_is_level_slope(self, n, v):
        # T = 0 Hellmann-Feynman theorem: <n|H1|n> = dE_n/dlam for every level
        model = LipkinModel(n, 1.0, v)
        _, h1 = lipkin_levels_with_h1(model, 1.0)
        slope, _ = central_diff(lambda lam: lipkin_spectrum(model, lam).energies, 1.0)
        assert np.max(np.abs(slope - h1) / np.maximum(1.0, np.abs(h1))) <= 1e-7

    def test_matches_free_energy_derivative(self):
        table = sweep(LipkinModel(10, 1.0, 3.0), [0.5, 2.0, 10.0, 50.0])
        direct = table.h1_direct
        assert np.all(np.abs(table.df_dlambda - direct) <= 1e-6 * np.maximum(1.0, np.abs(direct)))

    def test_entropy_corollary(self):
        model = LipkinModel(8, 1.0, 3.0)
        temps = np.array([1.0, 5.0, 20.0])
        dh1_dt, _ = central_diff(
            lambda t: model.potentials(1.0, EnsemblePoint.from_temperature(t)).h1, temps
        )
        assert sweep(model, temps).ds_dlambda == pytest.approx(-dh1_dt, abs=1e-5)

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
        uniform = spectrum.degeneracies / sum(spectrum.degeneracies.tolist())
        assert np.max(np.abs(p / uniform - 1.0)) < 1e-3


class TestModelValidation:
    def test_rejects_zero_particles(self):
        with pytest.raises(ValueError):
            LipkinModel(0, 1.0, 1.0)

    def test_rejects_non_integer_size(self):
        with pytest.raises(ValueError, match="n_particles must be an integer"):
            LipkinModel(7.5)
        numpy_sized = lipkin_spectrum(LipkinModel(np.int64(7)))
        assert np.array_equal(numpy_sized.energies, lipkin_spectrum(LipkinModel(7)).energies)

    def test_rejects_nonpositive_splitting(self):
        with pytest.raises(ValueError):
            LipkinModel(4, 0.0, 1.0)
