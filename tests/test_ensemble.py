import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermohf import EnsemblePoint, Spectrum, potentials
from thermohf import ensemble
from thermohf.ensemble import _BLOCK_ELEMENTS, _EXP_ZERO_BELOW


class TestSpectrum:
    def test_default_degeneracies(self):
        s = Spectrum([0.0, 1.0, 2.0])
        assert np.array_equal(s.degeneracies, [1, 1, 1])

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
        assert potentials(Spectrum([0.0]), EnsemblePoint(beta=1.0)).ln_z == 0.0

    def test_two_level_closed_form(self):
        got = potentials(Spectrum([0.0, 1.0]), EnsemblePoint(beta=1.0)).ln_z
        assert got == pytest.approx(math.log(1.0 + math.exp(-1.0)), abs=1e-15)

    def test_truncated_oscillator_vs_csch(self):
        # sum_{n=0}^{200} e^{-(n+1/2)} vs (1/2) csch(1/2)
        s = Spectrum(np.arange(201) + 0.5)
        got = potentials(s, EnsemblePoint(beta=1.0)).ln_z
        assert got == pytest.approx(math.log(0.5 / math.sinh(0.5)), abs=1e-14)

    def test_degeneracy_counts(self):
        # {(0,2)} is the same as {(0,1),(0,1)}
        got = potentials(Spectrum([0.0], [2]), EnsemblePoint(beta=3.0)).ln_z
        assert got == pytest.approx(math.log(2.0), abs=1e-15)

    def test_large_beta_no_overflow(self):
        s = Spectrum([-1000.0, 0.0])
        got = potentials(s, EnsemblePoint(beta=1e4)).ln_z
        assert math.isfinite(got)
        assert got == pytest.approx(1e7, rel=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(7)
        e = np.sort(rng.uniform(-5, 5, 40))
        s = Spectrum(e)
        for beta in (0.1, 1.0, 10.0):
            p = EnsemblePoint(beta=beta)
            base = potentials(s, p).ln_z
            shifted = potentials(Spectrum(e + 3.7), p).ln_z
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
            got = potentials(s, EnsemblePoint(beta=beta), [4.2, 4.2, 4.2]).h1
            assert got == pytest.approx(4.2, abs=1e-14)

    def test_energies_reproduce_mean_energy(self):
        rng = np.random.default_rng(17)
        s = Spectrum(np.sort(rng.uniform(-2, 2, 20)), rng.integers(1, 4, 20))
        for beta in (0.3, 2.0):
            p = EnsemblePoint(beta=beta)
            avg = potentials(s, p, s.energies).h1
            assert avg == pytest.approx(potentials(s, p).energy, abs=1e-14)

    def test_two_level_hand_sum(self):
        got = potentials(Spectrum([0.0, 1.0]), EnsemblePoint(beta=1.0), [0.0, 1.0]).h1
        expected = math.exp(-1.0) / (1.0 + math.exp(-1.0))
        assert got == pytest.approx(expected, abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            potentials(Spectrum([0.0, 1.0]), EnsemblePoint(beta=1.0), [1.0])


def _assert_close(got, want):
    assert abs(got - want) <= 1e-14 * max(1.0, abs(want))


class TestGrid:
    """A temperature grid gives the same numbers as one temperature at a time."""

    def test_scalar_in_scalar_out(self):
        s = Spectrum([0.0, 1.0, 2.0], [1, 3, 2])
        p = EnsemblePoint(beta=0.7)
        pots = potentials(s, p, [1.0, 2.0, 3.0])
        assert all(isinstance(x, float) for x in vars(pots).values())
        assert potentials(s, p).h1 is None

    @pytest.mark.parametrize("n_levels,n_temps", [(30, 60), (1601, 2000)],
                             ids=["one-block", "several-blocks"])
    def test_potentials_and_average_match_pointwise(self, n_levels, n_temps):
        rng = np.random.default_rng(n_levels)
        s = Spectrum(np.sort(rng.uniform(-3, 40, n_levels)), rng.integers(1, 6, n_levels))
        obs = rng.standard_normal(n_levels)
        temps = np.geomspace(0.01, 50.0, n_temps)
        grid = EnsemblePoint.from_temperature(temps)
        pots = potentials(s, grid, obs)
        assert pots.h1.shape == pots.ln_z.shape == pots.energy.shape == (n_temps,)
        for k in range(0, n_temps, 7):
            point = EnsemblePoint.from_temperature(float(temps[k]))
            single = potentials(s, point, obs)
            for field, value in vars(single).items():
                _assert_close(getattr(pots, field)[k], value)


def naive_potentials(spectrum, beta, h1):
    """One temperature at a time: every weight by np.exp, full-row sums."""
    e0 = spectrum.energies[0]
    gap = spectrum.energies - e0
    fields = []
    for b in np.atleast_1d(beta):
        w = np.exp(spectrum.log_degeneracies - b * gap)
        z0 = w.sum()
        ln_z = -b * e0 + np.log(z0)
        energy = (w * spectrum.energies).sum() / z0
        free_energy = -ln_z / b
        entropy = b * (energy - free_energy)
        fields.append((ln_z, free_energy, energy, entropy, (w * h1).sum() / z0))
    return np.array(fields).T


@st.composite
def spectra(draw):
    """Sorted levels from one to three clusters, each with gaps up to between
    1e-3 and 1e4; the ground state sometimes at exactly 0 and its H1 value
    sometimes 0, so that tiny weights decide E and <H1>. Degeneracies are all
    one, int64 up to 1e18, or Lipkin N = 70 multiplicities (beyond int64)."""
    n = draw(st.integers(1, 1200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    widths = 10.0 ** rng.uniform(-3.0, 4.0, draw(st.integers(1, 3)))
    gaps = np.sort(rng.uniform(0.0, rng.choice(widths, n)))
    energies = draw(st.one_of(st.just(0.0), st.floats(-50.0, 50.0))) + gaps - gaps[0]
    kind = draw(st.sampled_from(["one", "int64", "object"]))
    if kind == "one":
        degeneracies = None
    elif kind == "int64":
        degeneracies = rng.integers(1, 10**18, n)
    else:
        degeneracies = np.array([math.comb(70, k) for k in rng.integers(0, 71, n)],
                                dtype=object)
    h1 = rng.standard_normal(n)
    if draw(st.booleans()):
        h1[0] = 0.0
    return Spectrum(energies, degeneracies), h1


@st.composite
def betas(draw):
    """A scalar beta or an unsorted 1-D grid, beta from 1e-2 to 10."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return 10.0 ** draw(st.floats(-2.0, 1.0))
    return 10.0 ** rng.uniform(-2.0, 1.0, draw(st.integers(1, 300)))


properties = settings(max_examples=300, deadline=None, derandomize=True)


class TestExactBoltzmannSums:
    """The grid engine gives the naive per-temperature sums bit for bit,
    including where beta * gap puts weights in the exact-zero region and the
    subnormal band."""

    def test_cutoff_is_in_the_exact_zero_region(self):
        assert np.exp(_EXP_ZERO_BELOW) == 0.0
        assert np.exp(np.nextafter(_EXP_ZERO_BELOW, -np.inf)) == 0.0

    @properties
    @given(case=spectra(), beta=betas())
    # one level; the last subnormal weight, 5e-324; a first excited level
    # swept through the subnormal band; many oscillator levels over several
    # blocks of a geometric grid; Lipkin-sized ln g with zeros past the cutoff;
    # non-monotone Lipkin-sized ln g, where in one block levels 2 and 3 each
    # cross the cutoff between adjacent rows and level 2 is 0.0 in rows where
    # level 3 is not; the same kind of ln g over several blocks of an
    # unsorted grid
    @example(case=(Spectrum([-3.0]), np.array([0.5])), beta=2.0)
    @example(case=(Spectrum([0.0, 1.0]), np.array([0.0, 1.0])), beta=745.0)
    @example(case=(Spectrum([0.0, 1.0, 1.5]), np.array([0.0, -1.0, 1.0])),
             beta=np.linspace(760.0, 709.0, 200))
    @example(case=(Spectrum(np.arange(1201) + 0.5), np.arange(1201.0)),
             beta=1.0 / np.geomspace(0.02, 40, 300)[::-1])
    @example(case=(Spectrum(np.linspace(0.0, 1e3, 800), [math.comb(70, 35)] * 800),
                   np.ones(800)), beta=np.geomspace(10.0, 1e-2, 250))
    @example(case=(Spectrum([0.0, 1.0, 2.0, 2.05], [1, 1, 1, math.comb(70, 35)]),
                   np.array([0.0, 1.0, -1.0, 1.0])), beta=np.linspace(368.0, 392.0, 49))
    @example(case=(Spectrum(np.linspace(0.0, 1e3, 800), [1, math.comb(70, 35)] * 400),
                   np.cos(np.arange(800.0))),
             beta=np.geomspace(1e-2, 10.0, 250)[np.arange(250) * 97 % 250])
    # every ln g 0 (exponent beta * -gap) with a negative ground energy, across
    # the cutoff and the subnormal band; one level of degeneracy 2 among ones
    @example(case=(Spectrum(np.arange(1500) * 0.37 - 12.5), np.sin(np.arange(1500.0))),
             beta=np.geomspace(0.02, 20.0, 120)[::-1])
    @example(case=(Spectrum(np.linspace(-4.0, 60.0, 700), [1] * 350 + [2] + [1] * 349),
                   np.cos(np.arange(700.0))),
             beta=np.linspace(5.0, 30.0, 200))
    def test_matches_naive_sums(self, case, beta):
        spectrum, h1 = case
        point = EnsemblePoint(beta=beta)
        got = potentials(spectrum, point, h1)
        want = naive_potentials(spectrum, beta, h1)
        fields = (got.ln_z, got.free_energy, got.energy, got.entropy, got.h1)
        if np.ndim(beta) == 0:
            assert all(isinstance(x, float) for x in fields)
        for value, expected in zip(fields, want):
            assert np.array_equal(np.atleast_1d(value), expected)

    @properties
    @given(case=spectra(), beta=betas(), seed=st.integers(0, 2**32 - 1),
           sort=st.booleans())
    def test_per_temperature_levels_match_naive_sums(self, case, beta, seed, sort):
        # a few distinct counts per grid, in runs when sorted, shuffled when not
        spectrum, h1 = case
        rng = np.random.default_rng(seed)
        choices = rng.integers(1, len(spectrum) + 1, rng.integers(1, 5))
        n_levels = rng.choice(choices, np.shape(beta))
        if sort and np.ndim(beta):
            n_levels = np.sort(n_levels)
        got = potentials(spectrum, EnsemblePoint(beta=beta), h1, n_levels=n_levels)
        prefixes = {}
        for i, (b, count) in enumerate(zip(np.atleast_1d(beta), np.atleast_1d(n_levels))):
            if count not in prefixes:
                prefixes[count] = Spectrum(spectrum.energies[:count],
                                           spectrum.degeneracies[:count])
            want = naive_potentials(prefixes[count], b, h1[:count])[:, 0]
            fields = (got.ln_z, got.free_energy, got.energy, got.entropy, got.h1)
            assert np.array_equal([np.atleast_1d(x)[i] for x in fields], want)

    @pytest.mark.parametrize("spectrum,temperatures,n_levels", [
        # every level, given explicitly: the same bits as n_levels=None
        (Spectrum(np.arange(1601) * 0.37 - 2.0, np.arange(1601) % 7 + 1),
         np.geomspace(0.01, 50.0, 300), None),
        # counts that rise, fall and repeat, so runs start and stop anywhere,
        # one-temperature runs among them
        (Spectrum(np.linspace(-4.0, 60.0, 700), [1, 3] * 350),
         np.geomspace(0.05, 20.0, 120),
         np.array([700, 700, 3, 3, 3, 250, 1, 700, 699, 699] * 12)),
        # 5000 levels, 13 temperatures a block: the hot blocks need exp on every
        # level (no straddle, no zeros), the cold ones mask a straddle
        (Spectrum(np.arange(5000) * 0.37), np.geomspace(0.5, 100.0, 60),
         np.array([5000] * 30 + [4000] * 30)),
    ], ids=["every-level-explicit", "non-monotone-counts", "blocks-without-straddle"])
    def test_level_counts_match_naive_sums(self, spectrum, temperatures, n_levels):
        h1 = np.cos(np.arange(len(spectrum), dtype=float))
        point = EnsemblePoint.from_temperature(temperatures)
        counts = np.full(temperatures.shape, len(spectrum)) if n_levels is None else n_levels
        got = potentials(spectrum, point, h1, n_levels=counts)
        fields = ("ln_z", "free_energy", "energy", "entropy", "h1")
        if n_levels is None:
            every = potentials(spectrum, point, h1)
            assert all(np.array_equal(getattr(got, f), getattr(every, f)) for f in fields)
        for i, (b, count) in enumerate(zip(point.beta, counts)):
            prefix = Spectrum(spectrum.energies[:count], spectrum.degeneracies[:count])
            want = naive_potentials(prefix, b, h1[:count])[:, 0]
            assert np.array_equal([getattr(got, f)[i] for f in fields], want)

    def test_scalar_point_with_a_level_count(self):
        spectrum = Spectrum(np.arange(50) * 0.7 - 1.0, np.arange(1, 51))
        h1 = np.cos(np.arange(50.0))
        for count in (1, 17, 50):
            got = potentials(spectrum, EnsemblePoint(beta=0.9), h1, n_levels=count)
            prefix = Spectrum(spectrum.energies[:count], spectrum.degeneracies[:count])
            want = naive_potentials(prefix, 0.9, h1[:count])
            fields = (got.ln_z, got.free_energy, got.energy, got.entropy, got.h1)
            assert all(isinstance(x, float) for x in fields)
            assert np.array_equal(np.array(fields)[:, None], want)

    @pytest.mark.parametrize("n_levels", [0, 4, np.array([2, 0]), np.array([1, 4]),
                                          np.array([2, 2, 2]), np.array([1.0, 2.0])],
                             ids=["zero", "above-len", "zero-in-grid", "above-len-in-grid",
                                  "wrong-shape", "float"])
    def test_rejects_bad_level_counts(self, n_levels):
        spectrum = Spectrum([0.0, 1.0, 2.0])
        beta = 1.0 if np.ndim(n_levels) == 0 else np.array([1.0, 2.0])
        with pytest.raises(ValueError, match="n_levels"):
            potentials(spectrum, EnsemblePoint(beta=beta), n_levels=n_levels)


def run_in_thread(target, timeout=60.0):
    """target() in a new thread; returns what it returned."""
    result = []
    thread = threading.Thread(target=lambda: result.append(target()))
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive() and len(result) == 1
    return result[0]


def scratch_array():
    return getattr(ensemble._scratch, "array", None)


class TestBlockBuffers:
    """_boltzmann_sums keeps one scratch array per thread for its block
    buffers, and none for a block too large for it."""

    GRID = EnsemblePoint.from_temperature(np.geomspace(0.02, 40.0, 700))

    def test_consecutive_calls_reuse_one_scratch_array(self):
        def calls():
            seen = []
            for n in (1601, 30, 4000, 1):
                potentials(Spectrum(np.arange(n) + 0.5), self.GRID)
                seen.append(scratch_array())
            return seen

        seen = run_in_thread(calls)
        assert seen[0].shape == (2 * _BLOCK_ELEMENTS,)
        assert all(array is seen[0] for array in seen)

    def test_large_block_leaves_no_retained_buffer(self):
        spectrum = Spectrum(np.arange(_BLOCK_ELEMENTS + 1) + 0.5)
        point = EnsemblePoint.from_temperature(np.array([0.5, 3e4]))

        def call():
            pots = potentials(spectrum, point)
            return pots, scratch_array()

        pots, retained = run_in_thread(call)
        assert retained is None
        want = naive_potentials(spectrum, point.beta, np.zeros(len(spectrum)))
        for value, expected in zip((pots.ln_z, pots.free_energy, pots.energy, pots.entropy),
                                   want):
            assert np.array_equal(value, expected)

    def test_threads_give_the_sequential_bits(self):
        rng = np.random.default_rng(5)
        cases = [(Spectrum(np.arange(n) * step - 3.0), rng.standard_normal(n))
                 for n, step in ((1601, 1.0), (700, 0.3), (64, 2.0))]
        cases.append((Spectrum(np.sort(rng.uniform(-2.0, 900.0, 900)),
                               rng.integers(1, 10**6, 900)), rng.standard_normal(900)))
        expected = [potentials(s, self.GRID, h1) for s, h1 in cases]
        start = threading.Barrier(2 * len(cases))
        mismatches = []

        def work(k):
            spectrum, h1 = cases[k % len(cases)]
            start.wait(timeout=60)
            for _ in range(15):
                got = potentials(spectrum, self.GRID, h1)
                want = expected[k % len(cases)]
                if not all(np.array_equal(getattr(got, f), getattr(want, f))
                           for f in ("ln_z", "free_energy", "energy", "entropy", "h1")):
                    mismatches.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(2 * len(cases))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []
