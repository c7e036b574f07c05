"""Canonical-ensemble potentials and averages from a discrete spectrum.

All thermodynamics here is derived from a list of (energy, degeneracy)
levels -- the only representation of the density operator used anywhere.
Conventions: k_B = 1, beta = 1/T, energies in the model's natural units.

Numerical stability: every Boltzmann sum is anchored at the ground-state
energy, so all exponentials are <= 1 and lnZ stays finite for arbitrarily
large beta. np.exp is exactly 0.0 below about -745.14 and slow to get
there (as for results in the subnormal band), and slower still under a
where= mask. So a weight whose exponent lies below -746 is stored as an
exact 0.0: past a block's last level that can be nonzero exp does not run
at all, and before it such an exponent goes into exp as 0.0, whose exp is
fast, and its weight is zeroed after. Results in the subnormal band still
go through exp. The sums still run over full rows, since numpy's pairwise
summation groups its operands by row length and a shorter row would round
differently. Results are bit for bit those of exp on every weight.

A point may hold one temperature or a 1-D grid of them. A grid is
evaluated as one (temperatures x levels) log-sum-exp, formed a block of
temperatures at a time; a single temperature gives floats, a grid arrays.
Each temperature may sum its own number of lowest levels, in a full row of
that length, so one call serves a grid whose truncation varies with T.
The block buffers are views of one scratch array per thread, allocated at
the thread's first call and kept, so repeated calls touch no fresh pages.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Spectrum",
    "EnsemblePoint",
    "ThermoPotentials",
    "potentials",
]

# Most (temperature, level) weights formed at once; bounds the temporaries
# of a whole-grid evaluation.
_BLOCK_ELEMENTS = 2**16
# np.exp is exactly 0.0 below about -745.14; the margin covers the rounding
# of ln g - beta * gap and of the cutoff itself.
_EXP_ZERO_BELOW = -746.0
# Largest pair of block buffers kept between calls, in doubles (1 MiB), and
# the per-thread array that holds them: no two threads share one.
_SCRATCH_ELEMENTS = 2 * _BLOCK_ELEMENTS
_scratch = threading.local()


@dataclass(frozen=True)
class Spectrum:
    """Sorted eigenvalues with exact integer degeneracies.

    Parameters
    ----------
    energies : array_like
        Level energies, ascending.
    degeneracies : array_like, optional
        Positive integer weight per level. Defaults to all ones. Weights
        beyond the int64 range are kept as Python ints in an object array.

    ``log_degeneracies`` holds ln g per level, computed once, so Boltzmann
    weights never form g itself as a float.
    """

    energies: np.ndarray
    degeneracies: np.ndarray = None
    log_degeneracies: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        e = np.atleast_1d(np.asarray(self.energies, dtype=float))
        if e.size == 0:
            raise ValueError("spectrum must contain at least one level")
        if not np.all(np.isfinite(e)):
            raise ValueError("spectrum energies must be finite")
        if np.any(np.diff(e) < 0):
            raise ValueError("spectrum energies must be sorted ascending")
        if self.degeneracies is None:
            g = np.ones(e.shape, dtype=np.int64)
        else:
            g = np.atleast_1d(np.asarray(self.degeneracies))
            if g.shape != e.shape:
                raise ValueError("degeneracies must align with energies")
            if g.dtype == object:
                if not all(isinstance(x, (int, np.integer)) for x in g):
                    raise ValueError("degeneracies must be integers")
            elif not np.issubdtype(g.dtype, np.integer):
                gi = g.astype(np.int64)
                if not np.array_equal(gi, g):
                    raise ValueError("degeneracies must be integers")
                g = gi
            if np.any(g < 1):
                raise ValueError("degeneracies must be >= 1")
        e = e.copy()
        e.flags.writeable = False
        g = g.copy()
        g.flags.writeable = False
        # math.log takes integers of any size; np.log only fixed-width ones
        log_g = np.array([math.log(x) for x in g]) if g.dtype == object else np.log(g)
        log_g.flags.writeable = False
        object.__setattr__(self, "energies", e)
        object.__setattr__(self, "degeneracies", g)
        object.__setattr__(self, "log_degeneracies", log_g)

    @classmethod
    def _from_valid_levels(cls, energies, degeneracies, log_degeneracies) -> "Spectrum":
        """A spectrum from arrays that are valid by construction: energies
        finite and ascending, degeneracies positive integers (int64 or Python
        ints), log_degeneracies their logarithms. Nothing is checked; the
        arrays are made read-only and kept without a copy."""
        spectrum = object.__new__(cls)
        for name, value in (("energies", energies), ("degeneracies", degeneracies),
                            ("log_degeneracies", log_degeneracies)):
            value.flags.writeable = False
            object.__setattr__(spectrum, name, value)
        return spectrum

    def __len__(self):
        return self.energies.size


def _check_positive(name: str, value):
    v = np.asarray(value, dtype=float)
    if v.ndim > 1 or not (np.isfinite(v) & (v > 0)).all():
        raise ValueError(f"{name} must be finite and positive, got {value}")
    return v


@dataclass(frozen=True)
class EnsemblePoint:
    """One temperature or a 1-D grid of them; beta is the internal variable.

    Every entry must be finite and positive. A grid is stored as a
    read-only float array.
    """

    beta: float | np.ndarray

    def __post_init__(self):
        beta = _check_positive("beta", self.beta)
        if beta.ndim == 1:
            beta = beta.copy()
            beta.flags.writeable = False
            object.__setattr__(self, "beta", beta)

    @classmethod
    def from_temperature(cls, temperature) -> "EnsemblePoint":
        t = _check_positive("temperature", temperature)
        return cls(beta=1.0 / t if t.ndim else 1.0 / float(t))

    @property
    def temperature(self):
        return 1.0 / self.beta


@dataclass(frozen=True)
class ThermoPotentials:
    """Bundle {lnZ, F, E, S} at one (beta, lam) point, or arrays over a grid.

    h1 is the derivative-free thermal average <H1>_T. Every model's
    ``potentials(lam, point)`` fills it, and leaves it None when called with
    ``h1=False``; the engine's ``potentials`` leaves it None when given no
    per-level H1 values.
    """

    ln_z: float | np.ndarray
    free_energy: float | np.ndarray
    energy: float | np.ndarray
    entropy: float | np.ndarray
    h1: float | np.ndarray | None = None


def _block_buffers(rows: int, columns: int):
    """Two (rows x columns) float buffers. Up to _SCRATCH_ELEMENTS in all they
    are views of this thread's scratch array, allocated at the first call and
    kept; a larger pair is allocated for the call alone."""
    size = rows * columns
    if 2 * size > _SCRATCH_ELEMENTS:
        return np.empty((rows, columns)), np.empty((rows, columns))
    flat = getattr(_scratch, "array", None)
    if flat is None:
        flat = _scratch.array = np.empty(_SCRATCH_ELEMENTS)
    return flat[:size].reshape(rows, columns), flat[size:2 * size].reshape(rows, columns)


def _boltzmann_sums(spectrum: Spectrum, betas: np.ndarray, values, counts):
    """Per temperature: sum_n w_n, then sum_n w_n v_n for each v in values.

    Returns one row per sum, one column per temperature of the 1-D betas.
    Temperature i sums the lowest counts[i] levels in a full row of that
    length (every level when counts is None); consecutive temperatures with
    the same count form one run and share blocks.
    w_n = exp(ln g_n - beta (E_n - E_min)) is anchored at the ground state.
    A weight whose exponent is below _EXP_ZERO_BELOW is exactly 0.0 and is
    stored as such. In each block of temperatures the levels fall into three
    runs: up to gap <= (min ln g - _EXP_ZERO_BELOW) / max(beta) every weight
    is exp's, past gap > (max ln g - _EXP_ZERO_BELOW) / min(beta) every weight
    is 0.0 and exp does not run, and in between, in the straddle, an exponent
    below the cutoff goes into exp as 0.0 and its weight is zeroed after (exp
    is slow where its result is 0.0, and slower under a where= mask). min and
    max run over every level of the spectrum, which only widens the
    straddle. A block without a straddle makes no mask, and one in which
    every row needs every level stores no zeros. The rows are summed in
    full, each reduced straight into its column of the result, so each
    temperature's sums depend only on its own beta and count, and a grid
    gives the same numbers as its temperatures one at a time on spectra of
    their own counts. beta * gap is one product per weight (an einsum outer
    product); where every ln g is 0 the exponent is (-beta) * gap, the same
    bits as 0 - beta * gap. The two block buffers come from _block_buffers.
    """
    log_g = spectrum.log_degeneracies
    gap = spectrum.energies - spectrum.energies[0]
    sums = np.empty((1 + len(values), betas.size))
    if not betas.size:
        return sums
    # ln g >= 0, so its maximum is 0 only where every level is non-degenerate.
    # An exponent is above _EXP_ZERO_BELOW for gap <= floor / beta (every
    # level) and below it for gap > reach / beta (every level).
    top = float(log_g.max())
    non_degenerate = top == 0.0
    floor = (0.0 if non_degenerate else float(log_g.min())) - _EXP_ZERO_BELOW
    reach = top - _EXP_ZERO_BELOW
    signed_betas = -betas if non_degenerate else betas
    # runs of equal counts, [start, stop) each
    if counts is None:
        edges = [0, betas.size]
    else:
        edges = [0, *(np.flatnonzero(counts[1:] != counts[:-1]) + 1).tolist(), betas.size]
    for start, stop in zip(edges, edges[1:]):
        count = gap.size if counts is None else int(counts[start])
        rows = max(1, _BLOCK_ELEMENTS // count)
        w_buf, wv_buf = _block_buffers(min(rows, stop - start), count)
        for i in range(start, stop, rows):
            j = min(i + rows, stop)
            block = betas[i:j]
            w, wv = w_buf[:j - i], wv_buf[:j - i]
            # Python float division: a tiny beta gives inf, not an overflow error
            cut = min(count, gap.searchsorted(reach / float(block.min()), side="right"))
            full = min(cut, gap.searchsorted(floor / float(block.max()), side="right"))
            exponent = wv[:, :cut]
            np.einsum("i,j->ij", signed_betas[i:j], gap[:cut], out=exponent)
            if not non_degenerate:
                np.subtract(log_g[:cut], exponent, out=exponent)
            if full < cut:
                # 0.0 in place of an exponent below the cutoff, whose exp
                # (like that of -inf) takes the slow path
                straddle = exponent[:, full:]
                below = straddle < _EXP_ZERO_BELOW
                np.copyto(straddle, 0.0, where=below)
                np.exp(exponent, out=w[:, :cut])
                np.copyto(w[:, full:cut], 0.0, where=below)
            else:
                np.exp(exponent, out=w[:, :cut])
            if cut < count:
                w[:, cut:] = 0.0
            np.add.reduce(w, axis=1, out=sums[0, i:j])
            for k, v in enumerate(values, 1):
                np.add.reduce(np.multiply(w, v[:count], out=wv), axis=1, out=sums[k, i:j])
    return sums


def potentials(spectrum: Spectrum, point: EnsemblePoint, h1=None, *,
               n_levels=None) -> ThermoPotentials:
    """Free energy, mean energy and entropy of a spectrum at each temperature.

    E is the ensemble average sum_n p_n E_n (no differentiation in beta);
    F = -lnZ/beta and S = beta (E - F). Given per-level expectations
    ``h1[n]`` of the interaction term, each already averaged over level n's
    degenerate subspace (trace over the subspace divided by the degeneracy),
    the result's h1 is their average with the same Boltzmann weights.

    ``n_levels`` gives one integer per temperature, each in
    [1, len(spectrum)]: temperature i then sums the lowest n_levels[i]
    levels, bit for bit as a spectrum of only those levels would. None
    means every level at every temperature. A grid sorted by count makes
    the fewest blocks.
    """
    values = [spectrum.energies]
    if h1 is not None:
        h1 = np.asarray(h1, dtype=float)
        if h1.shape != spectrum.energies.shape:
            raise ValueError(
                f"per-level H1 values ({h1.shape}) must align with spectrum "
                f"({spectrum.energies.shape})"
            )
        values.append(h1)
    beta = np.atleast_1d(point.beta)
    counts = None
    if n_levels is not None:
        counts = np.atleast_1d(n_levels)
        if not (counts.shape == beta.shape and np.issubdtype(counts.dtype, np.integer)
                and ((counts >= 1) & (counts <= len(spectrum))).all()):
            raise ValueError(f"n_levels must give one integer in [1, {len(spectrum)}] "
                             "per temperature")
    sums = _boltzmann_sums(spectrum, beta, values, counts)
    z0 = sums[0]
    sums[1:] /= z0  # E, then <H1>
    ln_z = -beta * spectrum.energies[0] + np.log(z0)
    free_energy = -ln_z / beta
    entropy = beta * (sums[1] - free_energy)
    fields = (ln_z, free_energy, sums[1], entropy, *sums[2:])
    if np.ndim(point.beta) == 0:
        fields = [float(x[0]) for x in fields]
    return ThermoPotentials(*fields)
