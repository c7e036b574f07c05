"""Seeded op pools for the benchmark workloads.

An op is one `thermohf` command line plus what the output checks need to
know about it. A workload is a pool of ops that the runner cycles through
until its time is up. The structure of each pool (how many ops of each
kind, which output format, which size stratum) is fixed; only parameter
values come from the seed. Every drawn parameter is stratified: a pool of
k ops takes one value from each of k equal slices of the parameter's
range, in shuffled order. Runs with different seeds therefore do the same
amount and mix of work, which keeps medians comparable across seeds
without narrowing any range.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# Temperature grid of `thermohf sweep --model lipkin` when no t-flags are given.
LIPKIN_DEFAULT_GRID = (0.1, 100.0, 200, "geometric")
GRID_STEPS = 2000


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the facts its output is checked against."""

    argv: tuple[str, ...]
    model: str | None = None  # "ho", "ising", "lipkin"; None for verify
    grid: tuple[float, float, int, str] | None = None  # t_min, t_max, steps, kind
    fmt: str = "csv"
    size: int | None = None  # spins or particles, for the entropy bound


def _strata(rng: random.Random, lo: float, hi: float, k: int, log: bool = False,
            order: int = 1, shift: int = 0):
    """k values; the i-th is drawn uniformly from slice (order*i + shift) mod k.

    The slices are k equal parts of [lo, hi] (of its logarithm when log is
    set), and `order` must be coprime to k. Giving the parameters of one
    pool different orders pairs their slices in a fixed, decorrelated
    pattern, so the seed moves each value only within its slice.
    """
    if log:
        lo, hi = math.log(lo), math.log(hi)
    width = (hi - lo) / k
    values = [lo + width * ((order * i + shift) % k + rng.random()) for i in range(k)]
    return [math.exp(v) for v in values] if log else values


def _round(x: float) -> float:
    """Six significant digits, so the argv text and the checked value agree."""
    return float(f"{x:.6g}")


def _sweep_op(model: str, fmt: str, grid, size, extra) -> Op:
    t_min, t_max, steps, kind = grid
    argv = ["sweep", "--model", model, "--t-min", repr(t_min), "--t-max", repr(t_max),
            "--t-steps", str(steps), "--grid", kind, *extra]
    if fmt == "json":
        argv += ["--format", "json"]
    return Op(tuple(argv), model, grid, fmt, size)


def lipkin_sweep(rng: random.Random) -> list[Op]:
    """Eight Lipkin sweeps on the default grid, N = 16, 19, ... 37 (odd and even).

    V comes from the seed, one value per eighth of [0.5, 5]. N >= 68, where
    the int64 multiplicities overflow, is left out only because one such
    op would cost ~10 s of Jacobi.
    """
    ops = []
    for n, v in zip(range(16, 40, 3), _strata(rng, 0.5, 5.0, 8, order=3)):
        argv = ("sweep", "--model", "lipkin", "--N", str(n), "--V", repr(_round(v)))
        ops.append(Op(argv, "lipkin", LIPKIN_DEFAULT_GRID, "csv", n))
    rng.shuffle(ops)
    return ops


def grid_sweep(rng: random.Random) -> list[Op]:
    """Ten oscillator and six Ising sweeps on 2000-point grids, half as JSON,
    plus the oscillator and Ising self-checks (engine, numdiff, enumeration).

    Ising t-min reaches down to 1e-3 and J takes either sign. The two
    coldest Ising ops are antiferromagnetic, and the parent code's
    transfer terms overflow there (exit 3); they count as failed ops and
    are deliberately kept.
    """
    ops = [Op(("verify", "--scope", "ho")), Op(("verify", "--scope", "ising"))]
    n_ho, n_ising = 10, 6
    for i, (t_min, t_max) in enumerate(zip(
        _strata(rng, 0.02, 0.5, n_ho, log=True),
        _strata(rng, 5.0, 40.0, n_ho, order=3),
    )):
        grid = (_round(t_min), _round(t_max), GRID_STEPS, ("linear", "geometric")[i // 2 % 2])
        ops.append(_sweep_op("ho", ("csv", "json")[i % 2], grid, None, []))
    # Fixed per t-min slice, coldest first.
    j_signs = (-1.0, -1.0, 1.0, 1.0, -1.0, 1.0)
    formats = ("csv", "json", "json", "csv", "csv", "json")
    for i, (t_min, t_max, j_abs, h_abs, n) in enumerate(zip(
        _strata(rng, 1e-3, 1.0, n_ising, log=True),
        _strata(rng, 5.0, 50.0, n_ising, order=5),
        _strata(rng, 0.5, 3.0, n_ising, order=5, shift=5),
        _strata(rng, 0.2, 2.0, n_ising, shift=3),
        _strata(rng, 2, 41, n_ising, order=5, shift=2),
    )):
        h = _round(h_abs) * (-1.0) ** (i // 3)
        extra = ["--J", repr(_round(j_signs[i] * j_abs)), "--h", repr(h), "--N", str(int(n))]
        grid = (_round(t_min), _round(t_max), GRID_STEPS, ("linear", "geometric")[i % 2])
        ops.append(_sweep_op("ising", formats[i], grid, int(n), extra))
    rng.shuffle(ops)
    return ops


def verify(rng: random.Random) -> list[Op]:
    """`verify --scope all`; its input is fixed, so the seed is unused.

    Not listed in BENCHMARK.json: at the parent code one op takes 11-15 s,
    9 s of it the 256x256 Fock diagonalization, and its run-to-run spread
    is wider than the benchmark's bounds. Run it by hand for its trace.
    """
    return [Op(("verify", "--scope", "all"))]


WORKLOADS = {
    "lipkin-sweep": lipkin_sweep,
    "grid-sweep": grid_sweep,
    "verify": verify,
}


def make_pool(workload: str, seed: int) -> list[Op]:
    return WORKLOADS[workload](random.Random(seed))
