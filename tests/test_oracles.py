import math

import numpy as np
import pytest

from thermohf import EnsemblePoint, potentials
from thermohf.models.ising import IsingChain
from thermohf.models.lipkin import LipkinModel, lipkin_spectrum
from thermohf.oracles import ising_enumerate, lipkin_fock


class TestIsingEnumeration:
    def test_two_spins_hand_sum(self):
        ln_z, _, _ = ising_enumerate(2, 1.0, 0.0, 1.0)
        assert math.exp(ln_z) == pytest.approx(4 * math.cosh(2.0), rel=1e-14)

    def test_independent_spins(self):
        ln_z, _, _ = ising_enumerate(3, 0.0, 1.0, 1.0)
        assert math.exp(ln_z) == pytest.approx((2 * math.cosh(1.0)) ** 3, rel=1e-13)

    def test_energy_is_sum_of_parts(self):
        rng = np.random.default_rng(53)
        for _ in range(8):
            j = float(rng.uniform(-2, 2))
            h = float(rng.uniform(-2, 2))
            n = int(rng.integers(2, 10))
            lam1 = float(rng.uniform(0.5, 1.5))
            lam2 = float(rng.uniform(0.5, 1.5))
            params = IsingChain(lam1 * j, lam2 * h, n)
            _, h_j, h_h = ising_enumerate(n, params.coupling_j, params.field_h, 0.7)
            assert h_j + h_h == pytest.approx(
                params.potentials(1.0, EnsemblePoint(beta=0.7)).energy, abs=1e-12
            )

    def test_matches_transfer_matrix_default_figure_params(self):
        params = IsingChain(2.0, 1.0, 10)
        ln_z, _, _ = ising_enumerate(10, 2.0, 1.0, 1.0)
        assert params.potentials(1.0, EnsemblePoint(beta=1.0)).ln_z == pytest.approx(
            ln_z, rel=1e-12)

    def test_capacity_cap(self):
        with pytest.raises(ValueError):
            ising_enumerate(21, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("n", [0, 1])
    def test_needs_two_spins(self, n):
        with pytest.raises(ValueError):
            ising_enumerate(n, 1.0, 1.0, 1.0)

    def test_scalars_give_floats(self):
        assert all(type(x) is np.float64 for x in ising_enumerate(5, -1.3, 0.4, 0.9))

    def test_broadcast_equals_one_call_per_chain(self):
        # each chain's sums depend on its own couplings and beta alone
        rng = np.random.default_rng(59)
        coupling = rng.uniform(-2.5, 2.5, (3, 1))
        field = rng.uniform(-2.5, 2.5, 4)
        beta = rng.uniform(0.05, 3.0, (3, 4))
        got = ising_enumerate(7, coupling, field, beta)
        assert all(x.shape == (3, 4) for x in got)
        for i, k in np.ndindex(3, 4):
            want = ising_enumerate(7, float(coupling[i, 0]), float(field[k]),
                                   float(beta[i, k]))
            assert [x[i, k] for x in got] == list(want)

    def test_large_beta_anchored(self):
        ln_z, h_j, h_h = ising_enumerate(6, 2.0, 1.0, 200.0)
        assert math.isfinite(ln_z)
        assert (h_j + h_h) / 6 == pytest.approx(-3.0, abs=1e-12)


class TestLipkinFock:
    def test_single_particle(self):
        s = lipkin_fock(LipkinModel(1, 1.0, 0.0))
        assert np.allclose(s.energies, [-0.5, 0.5])

    def test_two_particles(self):
        s = lipkin_fock(LipkinModel(2, 1.0, 3.0))
        root = math.sqrt(10.0)
        assert s.energies == pytest.approx([-root, 0.0, 0.0, root], abs=1e-12)

    def test_capacity_cap(self):
        with pytest.raises(ValueError):
            lipkin_fock(LipkinModel(13, 1.0, 1.0))

    @pytest.mark.parametrize("n,v,lam", [(3, 2.0, 1.0), (4, 3.0, 0.8), (6, 1.5, 1.2)])
    def test_matches_block_spectrum(self, n, v, lam):
        model = LipkinModel(n, 1.0, v)
        block = lipkin_spectrum(model, lam)
        fock = lipkin_fock(model, lam)
        expanded = np.repeat(block.energies, block.degeneracies)
        assert fock.energies == pytest.approx(expanded, abs=1e-9)

    def test_log_partition_agreement(self):
        model = LipkinModel(6, 1.0, 3.0)
        block = lipkin_spectrum(model)
        fock = lipkin_fock(model)
        for beta in np.geomspace(0.05, 20.0, 8):
            point = EnsemblePoint(beta=float(beta))
            assert potentials(block, point).ln_z == pytest.approx(
                potentials(fock, point).ln_z, abs=1e-9
            )


def kronecker_fock_hamiltonian(model, lam):
    """H(lam) on the 2^N Fock space from site operators and matrix products:
    eps*J0 - lam*(V/2)(Jp^2 + Jm^2), site 0 the leading Kronecker factor and
    level 0 of each site the upper one."""
    n = model.n_particles

    def site_operator(op, site):
        out = np.array([[1.0]])
        for p in range(n):
            out = np.kron(out, op if p == site else np.eye(2))
        return out

    sz_half = np.array([[0.5, 0.0], [0.0, -0.5]])
    sp = np.array([[0.0, 1.0], [0.0, 0.0]])  # raises bottom -> top
    dim = 2**n
    j0 = np.zeros((dim, dim))
    jp = np.zeros((dim, dim))
    for site in range(n):
        j0 += site_operator(sz_half, site)
        jp += site_operator(sp, site)
    jm = jp.T
    return model.epsilon * j0 - lam * 0.5 * model.v_coupling * (jp @ jp + jm @ jm)


class TestFockHamiltonian:
    """lipkin_fock's matrix, bit for bit the Kronecker construction's."""

    @pytest.mark.parametrize("n", range(1, 11))
    @pytest.mark.parametrize("v", [-3.3, 3.3])
    def test_equals_kronecker_construction(self, n, v, monkeypatch):
        solved, solve = [], np.linalg.eigvalsh

        def eigvalsh(h):
            solved.append(h.copy())
            return solve(h)

        model = LipkinModel(n, 0.7, v)
        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        lipkin_fock(model, 1.3)
        monkeypatch.undo()
        assert np.array_equal(solved[0], kronecker_fock_hamiltonian(model, 1.3))
