import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermohf import EnsemblePoint
from thermohf.models.ising import IsingChain, ising_transfer
from thermohf.oracles import ising_enumerate


class TestParams:
    def test_rejects_single_spin(self):
        with pytest.raises(ValueError):
            IsingChain(n_spins=1)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            IsingChain(coupling_j=math.inf)

    def test_rejects_non_integer_size(self):
        # the transfer formulas would give NaN potentials for 9.5 spins
        with pytest.raises(ValueError, match="n_spins must be an integer"):
            IsingChain(-1.0, 0.5, 9.5)
        point = EnsemblePoint(beta=1.0)
        assert (IsingChain(-1.0, 0.5, np.int64(9)).potentials(1.0, point)
                == IsingChain(-1.0, 0.5, 9).potentials(1.0, point))


class TestLogZ:
    def test_zero_field_closed_form(self):
        # lnZ = ln[(2 cosh bJ)^N + (2 sinh bJ)^N]
        for n, j, beta in [(4, 1.0, 0.7), (7, 2.0, 0.3), (10, 0.5, 1.4)]:
            got = IsingChain(j, 0.0, n).potentials(1.0, EnsemblePoint(beta=beta)).ln_z
            expected = math.log(
                (2 * math.cosh(beta * j)) ** n + (2 * math.sinh(beta * j)) ** n
            )
            assert got == pytest.approx(expected, abs=1e-12)

    def test_two_spins_hand_sum(self):
        got = IsingChain(1.0, 0.0, 2).potentials(1.0, EnsemblePoint(beta=1.0)).ln_z
        assert math.exp(got) == pytest.approx(4 * math.cosh(2.0), rel=1e-14)

    def test_couplings_identity_matches_enumeration(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            params = IsingChain(
                coupling_j=float(rng.uniform(-2, 2)),
                field_h=float(rng.uniform(-2, 2)),
                n_spins=int(rng.integers(2, 11)),
            )
            beta = float(rng.uniform(0.1, 2.0))
            ln_z, _, _ = ising_enumerate(params.n_spins, params.coupling_j, params.field_h, beta)
            assert params.potentials(1.0, EnsemblePoint(beta=beta)).ln_z == pytest.approx(
                ln_z, rel=1e-12, abs=1e-12
            )

    def test_even_in_field(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            j = float(rng.uniform(-2, 2))
            h = float(rng.uniform(0, 2))
            n = int(rng.integers(2, 13))
            point = EnsemblePoint(beta=float(rng.uniform(0.1, 2.0)))
            assert IsingChain(j, h, n).potentials(1.0, point).ln_z == pytest.approx(
                IsingChain(j, -h, n).potentials(1.0, point).ln_z, abs=1e-13
            )

    def test_large_system_no_overflow(self):
        got = IsingChain(2.0, 1.0, 10**6).potentials(1.0, EnsemblePoint(beta=5.0)).ln_z
        assert math.isfinite(got)


class TestTransferOverChains:
    def test_one_call_per_size_matches_per_chain_calls(self):
        # chains of one size in one call, against a call per chain with
        # Python floats (as IsingChain.potentials makes them), bit for bit. Zero
        # field puts rho = tanh(beta J) near +-1, where rho^N shows in every
        # output; odd antiferromagnets with strong coupling take the
        # cancellation branch.
        rng = np.random.default_rng(7)
        for n in range(2, 14):
            coupling = np.concatenate([rng.uniform(-2.5, 2.5, 80), [-2.0, -1.3, -2.5]])
            field = np.concatenate([rng.uniform(-2.5, 2.5, 40), np.zeros(40), [0.3, 0.7, 0.0]])
            beta = np.concatenate([rng.uniform(0.05, 3.0, 80), [2.0, 3.0, 1.5]])
            got = ising_transfer(n, coupling, field, beta)
            want = np.array([[np.asarray(x).item() for x in ising_transfer(n, float(j), float(h),
                                                                             float(b))]
                             for j, h, b in zip(coupling, field, beta)]).T
            for value, expected in zip(got, want):
                assert np.array_equal(value, expected)
            if n % 2:
                # 1 + rho^N cancels where rho = lam_-/lam_+ < -1/2
                a, b = beta * np.abs(field), beta * coupling
                r = np.sqrt(np.sinh(a) ** 2 + np.exp(-4.0 * b))
                assert np.any((np.cosh(a) - r) / (np.cosh(a) + r) < -0.5)

    @pytest.mark.parametrize("lam", [1.0, 1.0 - 1e-5, 0.7, 1.4])
    def test_chain_potentials_are_the_transfer_at_scaled_couplings(self, lam):
        # IsingChain(J, h, N).potentials(lam, .) is ising_transfer at
        # (lam J, lam h) and its completion to F, E, S and h1, bit for bit;
        # the odd antiferromagnets take the cancellation branch
        rng = np.random.default_rng(11)
        chains = [IsingChain(float(rng.uniform(-2.5, 2.5)), float(rng.uniform(-2.5, 2.5)), n)
                  for n in range(2, 14)]
        chains += [IsingChain(-2.0, 0.3, 7), IsingChain(-1.3, 0.0, 9), IsingChain(-2.5, -0.7, 3)]
        point = EnsemblePoint.from_temperature(np.geomspace(0.05, 40.0, 60))
        beta = point.beta
        for chain in chains:
            got = chain.potentials(lam, point)
            ln_z, h_j, h_h = ising_transfer(chain.n_spins, lam * chain.coupling_j,
                                            lam * chain.field_h, beta)
            free_energy = -ln_z / beta
            energy = h_j + h_h
            want = (ln_z, free_energy, energy, beta * (energy - free_energy), energy / lam)
            for value, expected in zip((got.ln_z, got.free_energy, got.energy, got.entropy,
                                        got.h1), want):
                assert np.array_equal(value, expected)
        for chain in chains[-3:]:
            a, b = beta * abs(lam * chain.field_h), beta * lam * chain.coupling_j
            r = np.sqrt(np.sinh(a) ** 2 + np.exp(-4.0 * b))
            assert np.any((np.cosh(a) - r) / (np.cosh(a) + r) < -0.5)


class TestTermAverages:
    def test_zero_bond_coupling(self):
        for t in (0.2, 1.0, 10.0):
            _, got, _ = ising_transfer(6, 0.0, 1.0, 1.0 / t)
            assert got == pytest.approx(0.0, abs=1e-9)

    def test_zero_field(self):
        for t in (0.2, 1.0, 10.0):
            _, _, got = ising_transfer(6, 1.5, 0.0, 1.0 / t)
            assert got == pytest.approx(0.0, abs=1e-9)

    def test_matches_enumeration(self):
        _, exact_hj, exact_hh = ising_enumerate(4, 1.0, 0.5, 1.0)
        _, h_j, h_h = ising_transfer(4, 1.0, 0.5, 1.0)
        assert h_j == pytest.approx(exact_hj, abs=1e-13)
        assert h_h == pytest.approx(exact_hh, abs=1e-13)

    def test_low_temperature_per_spin_limits(self):
        _, h_j, h_h = ising_transfer(10, 2.0, 1.0, 1.0 / 0.05)
        assert h_j / 10 == pytest.approx(-2.0, abs=1e-3)
        assert h_h / 10 == pytest.approx(-1.0, abs=1e-3)

    def test_field_average_vanishes_at_high_temperature(self):
        _, _, h_h = ising_transfer(10, 2.0, 1.0, 1.0 / 500.0)
        got = h_h / 10
        assert abs(got) < 1e-2


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
                params.potentials(1.0, EnsemblePoint(beta=beta + h)).ln_z
                - params.potentials(1.0, EnsemblePoint(beta=beta - h)).ln_z
            ) / (2 * h)
            got = params.potentials(1.0, EnsemblePoint(beta=beta)).energy
            assert got == pytest.approx(numeric, rel=1e-7, abs=1e-6)

    def test_low_temperature_per_spin(self):
        point = EnsemblePoint.from_temperature(0.05)
        got = IsingChain(2.0, 1.0, 10).potentials(1.0, point).energy
        assert got / 10 == pytest.approx(-3.0, abs=1e-6)

    def test_high_temperature_decay(self):
        t = 300.0
        point = EnsemblePoint.from_temperature(t)
        got = IsingChain(2.0, 1.0, 10).potentials(1.0, point).energy / 10
        assert got == pytest.approx(-(4.0 + 1.0) / t, rel=0.05)

    def test_equals_sum_of_term_averages(self):
        params = IsingChain(2.0, 1.0, 10)
        point = EnsemblePoint.from_temperature(np.geomspace(0.1, 30.0, 12))
        total = params.potentials(1.0, point).energy
        _, h_j, h_h = ising_transfer(10, 2.0, 1.0, point.beta)
        assert total == pytest.approx(h_j + h_h, abs=1e-6)

    def test_free_energy_entropy_identity(self):
        params = IsingChain(2.0, 1.0, 10)
        for t in (0.5, 3.0, 20.0):
            point = EnsemblePoint.from_temperature(t)
            pots = params.potentials(1.0, point)
            assert pots.free_energy == pytest.approx(
                pots.energy - t * pots.entropy, rel=1e-12, abs=1e-10
            )
            assert pots.entropy >= -1e-12


class TestGrid:
    """A temperature grid gives the same numbers as one temperature at a time."""

    @pytest.mark.parametrize("params", [
        IsingChain(2.0, 1.0, 10),
        IsingChain(-1.5, 0.4, 7),  # odd antiferromagnet: the cancellation branch
        IsingChain(1.3 * -0.8, 0.6 * -1.2, 12),
    ], ids=["ferro", "odd-antiferro", "scaled"])
    def test_potentials_match_pointwise(self, params):
        temps = np.geomspace(0.02, 40.0, 300)
        grid = params.potentials(1.0, EnsemblePoint.from_temperature(temps))
        for k in range(0, temps.size, 11):
            single = params.potentials(1.0, EnsemblePoint.from_temperature(float(temps[k])))
            for field, value in vars(single).items():
                got = getattr(grid, field)
                assert abs(got[k] - value) <= 1e-14 * max(1.0, abs(value))


def scaled_chain(coupling_j, field_h, n_spins, lam1, lam2):
    """The chain with couplings lam1 J and lam2 h."""
    return IsingChain(lam1 * coupling_j, lam2 * field_h, n_spins)


def chains(max_spins):
    """Both signs of J and h (and h = 0), odd and even N."""
    return st.builds(
        scaled_chain,
        coupling_j=st.floats(-2.5, 2.5),
        field_h=st.one_of(st.just(0.0), st.floats(-2.5, 2.5)),
        n_spins=st.integers(2, max_spins),
        lam1=st.floats(0.5, 1.5),
        lam2=st.floats(0.5, 1.5),
    )


betas = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)
properties = settings(max_examples=300, deadline=None, derandomize=True)


def energy_scale(params):
    """Largest magnitude either term average can reach, at least 1."""
    n = params.n_spins
    return max(1.0, n * (abs(params.coupling_j) + abs(params.field_h)))


class TestTransferProperties:
    """Properties of the closed-form transfer eigensystem at any temperature."""

    @properties
    @given(params=chains(41), beta=betas)
    def test_finite_even_in_field_and_consistent(self, params, beta):
        point = EnsemblePoint(beta=beta)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            pots = params.potentials(1.0, point)
            _, h_j, h_h = ising_transfer(params.n_spins, params.coupling_j, params.field_h,
                                         beta)
            flipped = replace(params, field_h=-params.field_h).potentials(1.0, point).ln_z
        values = (pots.ln_z, pots.free_energy, pots.energy, pots.entropy, h_j, h_h)
        assert all(math.isfinite(x) for x in values)
        assert flipped == pytest.approx(pots.ln_z, rel=1e-15, abs=1e-15)
        assert h_j + h_h == pytest.approx(pots.energy, abs=1e-13 * energy_scale(params))
        assert pots.entropy >= -1e-9

    @properties
    @given(params=chains(12), beta=betas)
    def test_matches_enumeration(self, params, beta):
        couplings = (params.n_spins, params.coupling_j, params.field_h, beta)
        exact_ln_z, exact_hj, exact_hh = ising_enumerate(*couplings)
        _, h_j, h_h = ising_transfer(*couplings)
        scale = energy_scale(params)
        ln_z = params.potentials(1.0, EnsemblePoint(beta=beta)).ln_z
        assert ln_z == pytest.approx(exact_ln_z, rel=1e-12, abs=1e-12)
        assert abs(h_j - exact_hj) <= 1e-12 * scale
        assert abs(h_h - exact_hh) <= 1e-12 * scale
