import math

import numpy as np
import pytest

from thermohf import EnsemblePoint, oracles, potentials
from thermohf.models.ising import IsingChain
from thermohf.models.lipkin import LipkinModel, lipkin_spectrum
from thermohf.oracles import ising_enumerate, lipkin_fock


class TestIsingEnumeration:
    def test_two_spins_hand_sum(self):
        result = ising_enumerate(IsingChain(1.0, 0.0, 2), EnsemblePoint(beta=1.0))
        assert math.exp(result.ln_z) == pytest.approx(4 * math.cosh(2.0), rel=1e-14)

    def test_independent_spins(self):
        result = ising_enumerate(IsingChain(0.0, 1.0, 3), EnsemblePoint(beta=1.0))
        assert math.exp(result.ln_z) == pytest.approx((2 * math.cosh(1.0)) ** 3, rel=1e-13)

    def test_energy_is_sum_of_parts(self):
        rng = np.random.default_rng(53)
        for _ in range(8):
            j = float(rng.uniform(-2, 2))
            h = float(rng.uniform(-2, 2))
            n = int(rng.integers(2, 10))
            lam1 = float(rng.uniform(0.5, 1.5))
            lam2 = float(rng.uniform(0.5, 1.5))
            params = IsingChain(lam1 * j, lam2 * h, n)
            point = EnsemblePoint(beta=0.7)
            result = ising_enumerate(params, point)
            assert result.h_j_average + result.h_h_average == pytest.approx(
                params.potentials(1.0, point).energy, abs=1e-12
            )

    def test_matches_transfer_matrix_default_figure_params(self):
        params = IsingChain(2.0, 1.0, 10)
        point = EnsemblePoint(beta=1.0)
        result = ising_enumerate(params, point)
        assert params.potentials(1.0, point).ln_z == pytest.approx(result.ln_z, rel=1e-12)

    def test_capacity_cap(self):
        with pytest.raises(ValueError):
            ising_enumerate(IsingChain(1.0, 1.0, 21), EnsemblePoint(beta=1.0))

    def test_interleaved_sizes_equal_fresh_enumerations(self):
        # the configuration sums are cached for one chain size at a time
        chains = [IsingChain(1.1 * -1.3, 0.8 * 0.4, n) for n in (5, 7, 5)]
        point = EnsemblePoint(beta=0.9)
        got = [ising_enumerate(chain, point) for chain in chains]
        assert oracles._configuration_sums.cache_info().currsize == 1
        for chain, result in zip(chains, got):
            oracles._configuration_sums.cache_clear()
            assert ising_enumerate(chain, point) == result

    def test_cached_sums_are_read_only(self):
        bond_sum, site_sum = oracles._configuration_sums(4)
        assert bond_sum.shape == site_sum.shape == (16,)
        for array in (bond_sum, site_sum):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_large_beta_anchored(self):
        result = ising_enumerate(IsingChain(2.0, 1.0, 6), EnsemblePoint(beta=200.0))
        assert math.isfinite(result.ln_z)
        energy = result.h_j_average + result.h_h_average
        assert energy / 6 == pytest.approx(-3.0, abs=1e-12)


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
