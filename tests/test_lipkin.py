import math

import numpy as np
import pytest

from thermohf import DiffConfig, EnsemblePoint, central_diff, potentials
from thermohf.cli import main as cli_main
from thermohf.models import lipkin
from thermohf.models.lipkin import (
    MAX_PARTICLES,
    LipkinModel,
    lipkin_levels,
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
        s, _ = lipkin_levels(LipkinModel(1, 1.0, 3.0), h1=False)
        assert np.allclose(s.energies, [-0.5, 0.5])
        assert np.array_equal(s.degeneracies, [1, 1])

    def test_two_particles(self):
        s, _ = lipkin_levels(LipkinModel(2, 1.0, 3.0), h1=False)
        root = math.sqrt(10.0)
        assert s.energies == pytest.approx([-root, 0.0, 0.0, root], abs=1e-13)
        assert np.array_equal(s.degeneracies, [1, 1, 1, 1])

    def test_weighted_dimension(self):
        for n in (3, 6, 10):
            s, _ = lipkin_levels(LipkinModel(n, 1.0, 3.0), h1=False)
            assert sum(s.degeneracies.tolist()) == 2**n

    @pytest.mark.parametrize("n", [63, 64, 70, 200])
    def test_multiplicities_beyond_int64(self, n, capsys):
        # from N = 63 the exact multiplicities and their sum outgrow int64
        degeneracies = lipkin_levels(LipkinModel(n, 1.0, 3.0), h1=False)[0].degeneracies
        assert sum(degeneracies.tolist()) == 2**n
        code = cli_main(["sweep", "--model", "lipkin", "--N", str(n), "--t-steps", "5"])
        out = capsys.readouterr().out
        assert code == 0
        rows = [[float(x) for x in line.split(",")] for line in out.splitlines()[1:]]
        assert len(rows) == 5
        assert np.all(np.isfinite(rows))

    def test_no_interaction_symmetric_about_zero(self):
        s, _ = lipkin_levels(LipkinModel(7, 1.0, 0.0), h1=False)
        expanded = np.repeat(s.energies, s.degeneracies)
        assert np.allclose(np.sort(-expanded), np.sort(expanded))

    def test_negating_splitting_negates_levels(self):
        up, _ = lipkin_levels(LipkinModel(6, 1.0, 2.0), h1=False)
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


def reference_levels(model: LipkinModel, lam: float, *, h1: bool = True):
    """The per-sector loop: one unpadded eigh (with h1) or eigvalsh (without)
    per m-parity sector of each dense block, and with h1 each <v|H1|v> from
    the dense sector matrix, else None in its place."""
    n = model.n_particles
    energies, degeneracies, h1_values = [], [], []
    for two_j in range(n % 2, n + 1, 2):
        h = build_block(two_j, model.epsilon, model.v_coupling, lam)
        h1_block = build_block_h1(two_j, model.v_coupling)
        for p in (0, 1):
            sector = h[p::2, p::2]
            if h1:
                values, vectors = np.linalg.eigh(sector)
                h1_values.append(np.einsum("ij,jk,ki->i", vectors.T, h1_block[p::2, p::2],
                                           vectors))
            else:
                values = np.linalg.eigvalsh(sector)
            energies.append(values)
            degeneracies.append(np.full(values.size, multiplicity(n, two_j), dtype=object))
    e = np.concatenate(energies)
    order = np.argsort(e, kind="stable")
    return (e[order], np.concatenate(degeneracies)[order],
            np.concatenate(h1_values)[order] if h1 else None)


# lam = 1 and the derivative abscissae of the default DiffConfig
LAMBDAS = (1.0, 1.0 + 1e-5, 1.0 - 1e-5, 1.0 + 5e-6, 1.0 - 5e-6)


def sector_loop_cases(n):
    """Every V at N, with eps and lam in turn, so that every (V, eps, lam)
    occurs across the N."""
    for i, v in enumerate((-3.0, 0.0, 4.7)):
        yield LipkinModel(n, (1e-3, 1.0, 1e3)[(n + i) % 3], v), LAMBDAS[(n // 3 + i) % 5]


def assert_matches_sector_loop(model: LipkinModel, lam: float):
    spectrum, h1 = lipkin_levels(model, lam)
    energies, degeneracies, h1_ref = reference_levels(model, lam)
    assert np.array_equal(spectrum.energies, energies)
    assert np.array_equal(spectrum.degeneracies, degeneracies)
    assert np.max(np.abs(h1 - h1_ref)) <= 1e-14 * max(1.0, np.max(np.abs(h1_ref)))
    values_only, no_h1 = lipkin_levels(model, lam, h1=False)
    assert no_h1 is None
    energies, degeneracies, _ = reference_levels(model, lam, h1=False)
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
        lipkin_levels(LipkinModel(37, 1.0, 3.0), 1.0)
        assert stacks == [(38, 19, 19)]

    def test_batches_within_element_budget(self, monkeypatch):
        stacks = self.count_eigh(monkeypatch)
        spectrum, _ = lipkin_levels(LipkinModel(400, 1.0, 3.0), 1.0)
        assert len(stacks) > 1
        assert all(math.prod(shape) <= lipkin._BATCH_ELEMENTS for shape in stacks)
        assert sum(shape[0] for shape in stacks) == 2 * 201  # every sector once
        assert spectrum.energies.size == 201**2  # sum of block dimensions


class TestEigenvalueSpectrum:
    """lipkin_levels' eigvalsh levels against its eigh levels, and the
    spectra a sweep builds from the model's cached sector layout."""

    @pytest.mark.parametrize("n", [*range(1, 81, 3), 150, 260])
    def test_agrees_with_eigh_levels(self, n):
        # measured over these cases and all N up to 80: at most 4.4e-15 of
        # the largest |E|; the bound leaves a margin of 2.3
        for model, lam in sector_loop_cases(n):
            levels, _ = lipkin_levels(model, lam)
            energies = lipkin_levels(model, lam, h1=False)[0].energies
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

    def test_sweep_one_solve_per_batch_and_abscissa(self, monkeypatch):
        # N = 200 takes four batches: the lam = 1 row solves each with eigh,
        # each of the four derivative abscissae with eigvalsh, once
        model = LipkinModel(200, 1.0, 3.0)
        batches = model._layout.batches
        assert len(batches) == 4
        step = DiffConfig().relative_step
        lams = (1.0, 1.0 + step, 1.0 - step, 1.0 + step / 2, 1.0 - step / 2)
        calls = []
        for name in ("eigh", "eigvalsh"):
            def counted(a, _name=name, _solve=getattr(np.linalg, name)):
                calls.append((_name, a))
                return _solve(a)

            monkeypatch.setattr(np.linalg, name, counted)
        sweep(model, temperature_grid(0.1, 100.0, 20, "geometric"))
        # each solved stack is the padded stack of one (batch, lam)
        stacks = {(b, lam): stack for lam in lams
                  for b, (_, stack) in enumerate(lipkin._padded_stacks(model, lam))}
        solved = [(name, *key) for name, stack in calls for key, padded in stacks.items()
                  if np.array_equal(stack, padded)]
        expected = [("eigh", b, 1.0) for b in range(4)]
        expected += [("eigvalsh", b, lam) for lam in lams[1:] for b in range(4)]
        assert len(calls) == len(solved) == 20
        assert sorted(solved) == sorted(expected)

    def test_layout_built_once_and_read_only(self, monkeypatch):
        model = LipkinModel(37, 1.0, 3.0)
        lipkin_levels(model, 1.0, h1=False)
        monkeypatch.setattr(lipkin, "_batch", None)  # a rebuild would fail
        levels, _ = lipkin_levels(model, 1.0 + 1e-5)
        spectrum, _ = lipkin_levels(model, 1.0 - 1e-5, h1=False)
        layout = model._layout
        batches = [array for batch in layout.batches for array in batch[:4]]
        for array in (*batches, *layout[1:], *vars(levels).values(), *vars(spectrum).values()):
            assert not array.flags.writeable

    @pytest.mark.parametrize("n", [200, 1040])
    def test_batch_arrays_at_batch_width(self, n):
        # each batch's diagonal and off-diagonal hold its own (sectors, k)
        # and (sectors, k - 1) elements, not views of wider arrays
        def owned(array):
            while array.base is not None:
                array = array.base
            return array.size

        for batch in LipkinModel(n, 1.0, 3.0)._layout.batches:
            sectors, k = batch.rows.shape
            assert batch.diagonal.shape == (sectors, k) and owned(batch.diagonal) == sectors * k
            assert batch.off.shape == (sectors, k - 1) and owned(batch.off) == sectors * (k - 1)


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
            lambda lam: float(lipkin_levels(model, lam, h1=False)[0].energies[0]), 1.0
        )  # dE0/dlam at lam = 1
        assert cold == pytest.approx(ground, abs=1e-4)

    @pytest.mark.parametrize("n,v", [(12, 3.0), (37, 4.7)])
    def test_per_level_h1_is_level_slope(self, n, v):
        # T = 0 Hellmann-Feynman theorem: <n|H1|n> = dE_n/dlam for every level
        model = LipkinModel(n, 1.0, v)
        _, h1 = lipkin_levels(model, 1.0)
        slope, _ = central_diff(
            lambda lam: lipkin_levels(model, lam, h1=False)[0].energies, 1.0)
        assert np.max(np.abs(slope - h1) / np.maximum(1.0, np.abs(h1))) <= 1e-7

    def test_matches_free_energy_derivative(self):
        table = sweep(LipkinModel(10, 1.0, 3.0), [0.5, 2.0, 10.0, 50.0])
        direct = table.h1_direct
        assert np.all(np.abs(table.df_dlambda - direct) <= 1e-6 * np.maximum(1.0, np.abs(direct)))

    @pytest.mark.parametrize("n,epsilon,v", [(10, 1.0, 3.0), (25, 0.7, -3.0),
                                              (37, 1.0, 4.7), (200, 1.0, 3.0)])
    def test_energy_derivative_by_fluctuations(self, n, epsilon, v):
        # dE/dlam = <H1> - beta cov(E, H1), the covariance by the two-pass sum
        model = LipkinModel(n, epsilon, v)
        t_grid = temperature_grid(0.1, 100.0, 200, "geometric")
        beta = 1.0 / t_grid[:, None]
        spectrum, h1 = lipkin_levels(model)
        log_w = spectrum.log_degeneracies - beta * spectrum.energies
        prob = np.exp(log_w - log_w.max(axis=1, keepdims=True))
        prob /= prob.sum(axis=1, keepdims=True)
        mean_e, mean_h1 = prob @ spectrum.energies, prob @ h1
        cov = np.sum(prob * (spectrum.energies - mean_e[:, None]) * (h1 - mean_h1[:, None]), axis=1)
        want = mean_h1 - beta[:, 0] * cov
        got = sweep(model, t_grid).de_dlambda
        assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-8

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
        spectrum, _ = lipkin_levels(model)
        pots = potentials(spectrum, point)
        assert pots.entropy == pytest.approx(10 * math.log(2), abs=1e-3)
        # occupations uniform to 1e-3 relative
        beta = point.beta
        w = spectrum.degeneracies * np.exp(-beta * (spectrum.energies - spectrum.energies[0]))
        p = w / w.sum()
        uniform = spectrum.degeneracies / sum(spectrum.degeneracies.tolist())
        assert np.max(np.abs(p / uniform - 1.0)) < 1e-3


# (epsilon, V, lam) of every case at N <= 37: both signs of V, and lam = 1
# and lam != 1
TRACE_CASES = [(eps, v, lam) for eps in (0.7, 1.0) for v in (-3.0, 3.0, 4.7) for lam in (1.0, 0.8)]


class TestTraceMoments:
    """Trace moments of H(lam) = eps*J0 + lam*H1 from single-site algebra,
    with no SU(2) blocks: per 2^N, Tr H = 0, Tr H^2 = (N/4)(eps^2 +
    lam^2 V^2 (N - 1)), Tr H1 = 0 and Tr(H1 H) = lam V^2 N(N - 1)/4. The
    per-level h1 is the diagonal of H1 in the eigenbasis, so the g-weighted
    sums over lipkin_levels' levels must give them, past the Fock oracle's
    N = 12 as well."""

    # Measured worst over N in {1, 2, 10, 37, 200} and every TRACE_CASES
    # case: 5.9e-15 relative for the second moments (2.7e-15 up to N = 37;
    # 6.6e-15 at N = 400, eps = 1, V = 3, lam = 0.8) and 8.4e-17 for the
    # scaled zero moments (9.5e-17 at that N = 400 case). The bounds are
    # about 3x and 4x those.
    RELATIVE = 2e-14
    ZERO = 4e-16

    @pytest.mark.parametrize("n,cases", [
        *((n, TRACE_CASES) for n in (1, 2, 10, 37)),
        # about 0.1 s a case
        (200, [(0.7, -3.0, 0.8), (1.0, 4.7, 1.0)]),
    ], ids=["N1", "N2", "N10", "N37", "N200"])
    def test_weighted_moments(self, n, cases):
        for eps, v, lam in cases:
            spectrum, h1 = lipkin_levels(LipkinModel(n, eps, v), lam)
            e = spectrum.energies
            # g / 2^N as floats overflows past N of about 1020
            w = np.exp(spectrum.log_degeneracies - n * math.log(2))
            tr_h2 = n / 4 * (eps**2 + lam**2 * v**2 * (n - 1))
            tr_h1_sq = v**2 * n * (n - 1) / 4
            assert abs(w @ e**2 / tr_h2 - 1) <= self.RELATIVE
            assert abs(w @ e) <= self.ZERO * math.sqrt(tr_h2)
            if n == 1:  # N(N - 1) = 0: H1 vanishes, compared absolutely
                assert abs(w @ (h1 * e)) <= self.ZERO and abs(w @ h1) <= self.ZERO
            else:
                assert abs(w @ (h1 * e) / (lam * tr_h1_sq) - 1) <= self.RELATIVE
                assert abs(w @ h1) <= self.ZERO * math.sqrt(tr_h1_sq)


class TestCheckedSpectrum:
    @pytest.mark.parametrize("n", [62, 63, 64, 69])
    def test_log_degeneracies_are_math_log(self, n):
        # multiplicities are int64 up to N = 62 and Python ints from 63; the
        # spectrum's ln g is math.log of each level's multiplicity either way
        spectrum, _ = lipkin_levels(LipkinModel(n, 1.0, 3.0), h1=False)
        g = spectrum.degeneracies
        assert g.dtype == (np.int64 if n <= 62 else object)
        assert sum(g.tolist()) == 2**n
        assert np.array_equal(spectrum.log_degeneracies, [math.log(x) for x in g.tolist()])

    @pytest.mark.parametrize("h1,name", [(True, "eigh"), (False, "eigvalsh")])
    def test_nan_level_is_refused(self, h1, name, monkeypatch):
        # the levels pass the spectrum's own checks; a NaN was once kept
        solve = getattr(np.linalg, name)

        def with_nan(a):
            result = solve(a)
            (result[0] if h1 else result)[0, 0] = np.nan
            return result

        monkeypatch.setattr(np.linalg, name, with_nan)
        with pytest.raises(ValueError, match="spectrum energies must be finite"):
            lipkin_levels(LipkinModel(16, 1.0, 3.0), h1=h1)


class TestModelValidation:
    def test_rejects_zero_particles(self):
        with pytest.raises(ValueError):
            LipkinModel(0, 1.0, 1.0)

    def test_particle_cap(self):
        assert LipkinModel(MAX_PARTICLES).n_particles == MAX_PARTICLES == 1040
        for n in (MAX_PARTICLES + 1, 10**5):
            with pytest.raises(ValueError, match=f"need 1 to 1040 particles, got {n}"):
                LipkinModel(n)

    def test_rejects_non_integer_size(self):
        with pytest.raises(ValueError, match="n_particles must be an integer"):
            LipkinModel(7.5)
        numpy_sized, _ = lipkin_levels(LipkinModel(np.int64(7)), h1=False)
        assert np.array_equal(numpy_sized.energies,
                              lipkin_levels(LipkinModel(7), h1=False)[0].energies)

    def test_rejects_nonpositive_splitting(self):
        with pytest.raises(ValueError):
            LipkinModel(4, 0.0, 1.0)
