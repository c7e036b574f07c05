"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.
"""

import math
import time
from dataclasses import replace

import numpy as np

from thermohf import (
    EnsemblePoint,
    central_diff,
    potentials,
)
from thermohf.cli import main as cli_main
from thermohf.models.ho import (
    HarmonicOscillator,
    ho_closed_potentials,
    ho_entropy_lambda_derivative,
)
from thermohf.models.ising import IsingChain
from thermohf.models.lipkin import (
    LipkinModel,
    lipkin_levels,
    multiplicity,
)
from thermohf.oracles import ising_enumerate, lipkin_fock
from thermohf.sweep import sweep, temperature_grid


def report(name, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] {name}" + (f" ({detail})" if detail else ""))
    assert passed, f"{name}: {detail}"


def max_abs(values):
    return float(np.max(np.abs(values)))


def test_criterion_1_ho_closed_form_agreement():
    start = time.perf_counter()
    t_grid = temperature_grid(0.05, 20.0, 200)
    model = HarmonicOscillator(t_max=20.0)
    point = EnsemblePoint.from_temperature(t_grid)
    table = sweep(model, t_grid)
    closed = ho_closed_potentials(1.0, point)
    dev = max(
        max_abs(table.free_energy - closed.free_energy),
        max_abs(table.energy - closed.energy),
        max_abs(table.entropy - closed.entropy),
        max_abs(table.df_dlambda - closed.h1),
        max_abs(table.ds_dlambda - ho_entropy_lambda_derivative(point)),
    )
    elapsed = time.perf_counter() - start
    report(
        "criterion 1: HO generic engine vs closed forms <= 1e-6, < 1 s",
        dev <= 1e-6 and elapsed < 1.0,
        f"max dev {dev:.2e}, {elapsed:.2f} s",
    )


def test_criterion_2_ho_paper_limits():
    cold = ho_closed_potentials(1.0, EnsemblePoint.from_temperature(0.005)).h1
    ok_cold = abs(cold - 0.25) < 1e-12

    # dF/dlam from the sweep's T = 20 row, dS/dlam from its T = 50 row
    model = HarmonicOscillator(t_max=50.0)
    hf_rows = sweep(model, [20.0, 50.0])
    d_f = float(hf_rows.df_dlambda[0])
    ok_df = abs(d_f - 10.0) / 10.0 <= 0.02

    d_s = float(hf_rows.ds_dlambda[1])
    ok_ds = abs(d_s + 0.5) / 0.5 <= 0.02

    # the closed-form <x^2/2> against the engine's E, on the 200-point grid
    t_grid = temperature_grid(0.05, 20.0, 200)
    table = sweep(HarmonicOscillator(t_max=20.0), t_grid)
    dev_virial = max_abs(table.h1_direct - 0.5 * table.energy)
    ok_virial = dev_virial <= 1e-10
    report(
        "criterion 2: HO limits (1/4, T/2, -1/2) and virial",
        ok_cold and ok_df and ok_ds and ok_virial,
        f"cold {cold:.6f}, dF(20) {d_f:.4f}, dS(50) {d_s:.4f}, virial dev {dev_virial:.2e}",
    )


def test_criterion_3_ising_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(1234)
    dev = 0.0
    for n in range(2, 13):
        chains, betas = [], []
        for _ in range(20):
            j = float(rng.uniform(-2.5, 2.5))
            h = float(rng.uniform(-2.5, 2.5))
            lam1 = float(rng.uniform(0.5, 1.5))
            lam2 = float(rng.uniform(0.5, 1.5))
            chains.append(IsingChain(lam1 * j, lam2 * h, n))
            betas.append(float(rng.uniform(0.05, 3.0)))
        # the 20 chains of this size in one enumeration
        exact_ln_z, _, _ = ising_enumerate(n, [c.coupling_j for c in chains],
                                           [c.field_h for c in chains], betas)
        for params, beta, exact in zip(chains, betas, exact_ln_z):
            rel = abs(params.potentials(1.0, EnsemblePoint(beta=beta)).ln_z - exact) / abs(exact)
            dev = max(dev, rel)
    elapsed = time.perf_counter() - start
    report(
        "criterion 3: Ising transfer matrix vs enumeration <= 1e-12, < 60 s",
        dev <= 1e-12 and elapsed < 60.0,
        f"max rel dev {dev:.2e}, {elapsed:.1f} s",
    )


def hf_term_averages(params, point):
    """<H_J>, <H_h> of a chain as dF/dlam1, dF/dlam2 of the chain with lam1 J
    and lam2 h, at lam1 = lam2 = 1."""

    def free_energy(**coupling):
        return -replace(params, **coupling).potentials(1.0, point).ln_z / point.beta

    h_j, _ = central_diff(lambda l1: free_energy(coupling_j=l1 * params.coupling_j), 1.0)
    h_h, _ = central_diff(lambda l2: free_energy(field_h=l2 * params.field_h), 1.0)
    return h_j, h_h


def test_criterion_4_ising_hf_decomposition():
    params = IsingChain(2.0, 1.0, 10)
    point = EnsemblePoint.from_temperature(temperature_grid(0.1, 30.0, 60))
    h_j, h_h = hf_term_averages(params, point)
    dev = max_abs(h_j + h_h - params.potentials(1.0, point).energy)
    ok_sum = dev <= 1e-6 * params.n_spins

    cold = EnsemblePoint.from_temperature(0.1)
    hj, hh = (x / 10 for x in hf_term_averages(params, cold))
    e_cold = params.potentials(1.0, cold).energy / 10
    ok_cold = abs(hj + 2.0) <= 0.01 and abs(hh + 1.0) <= 0.01 and abs(e_cold + 3.0) <= 0.01

    t_hot = 300.0
    e_hot = params.potentials(1.0, EnsemblePoint.from_temperature(t_hot)).energy / 10
    law = -(2.0**2 + 1.0**2) / t_hot
    ok_hot = abs(e_hot - law) <= 0.05 * abs(law)
    report(
        "criterion 4: Ising HF decomposition and T limits",
        ok_sum and ok_cold and ok_hot,
        f"sum dev {dev:.2e}, cold ({hj:.3f},{hh:.3f},{e_cold:.3f}), hot {e_hot:.5f} vs {law:.5f}",
    )


def test_criterion_5_lipkin_fock_cross_validation():
    start = time.perf_counter()
    model = LipkinModel(8, 1.0, 3.0)
    block, _ = lipkin_levels(model, h1=False)
    fock = lipkin_fock(model)
    expanded = np.repeat(block.energies, block.degeneracies)
    dev_levels = float(np.max(np.abs(expanded - fock.energies)))
    dev_lnz = max(
        abs(
            potentials(block, EnsemblePoint(beta=float(b))).ln_z
            - potentials(fock, EnsemblePoint(beta=float(b))).ln_z
        )
        for b in np.geomspace(0.01, 10.0, 10)
    )
    elapsed = time.perf_counter() - start
    report(
        "criterion 5: Lipkin block vs Fock oracle (N=8), < 5 min",
        dev_lnz <= 1e-9 and dev_levels <= 1e-8 and elapsed < 300.0,
        f"lnZ dev {dev_lnz:.2e}, level dev {dev_levels:.2e}, {elapsed:.1f} s",
    )


def test_criterion_6_lipkin_hf_theorem():
    model = LipkinModel(10, 1.0, 3.0)
    table = sweep(model, temperature_grid(0.1, 100.0, 50, "geometric"))
    direct = table.h1_direct
    dev = float(np.max(np.abs(table.df_dlambda - direct) / np.maximum(1.0, np.abs(direct))))
    report(
        "criterion 6: Lipkin dF/dlam vs direct <H1> <= 1e-6",
        dev <= 1e-6,
        f"max scaled dev {dev:.2e}",
    )


def test_criterion_7_lipkin_entropy_corollary():
    model = LipkinModel(10, 1.0, 3.0)
    t_grid = temperature_grid(0.1, 100.0, 50, "geometric")[1:-1]
    d_s = sweep(model, t_grid).ds_dlambda
    dh1_dt, _ = central_diff(
        lambda temps: model.potentials(1.0, EnsemblePoint.from_temperature(temps)).h1,
        t_grid,
    )
    dev = max_abs(d_s + dh1_dt)
    report(
        "criterion 7: Lipkin dS/dlam = -d<H1>/dT <= 1e-4",
        dev <= 1e-4,
        f"max dev {dev:.2e}",
    )


def test_criterion_8_lipkin_limits():
    model = LipkinModel(10, 1.0, 3.0)
    s_hot = potentials(
        lipkin_levels(model, h1=False)[0], EnsemblePoint.from_temperature(1e4)
    ).entropy
    ok_entropy = abs(s_hot - 10 * math.log(2)) <= 1e-3

    t_grid = temperature_grid(0.5, 100.0, 60, "geometric")
    de = sweep(model, t_grid).de_dlambda
    idx = int(np.argmin(de))
    t_min_loc = float(t_grid[idx])
    ok_min = 0 < idx < len(de) - 1 and 5.0 <= t_min_loc <= 20.0
    report(
        "criterion 8: Lipkin equipartition entropy and dE/dlam dip window",
        ok_entropy and ok_min,
        f"S(1e4) dev {abs(s_hot - 10 * math.log(2)):.2e}, dip at T = {t_min_loc:.2f}",
    )


def test_criterion_9_structural_identities():
    ok_dim = all(
        sum((two_j + 1) * multiplicity(n, two_j) for two_j in range(n % 2, n + 1, 2))
        == 2**n
        for n in range(1, 65)
    )

    rng = np.random.default_rng(987)
    dev_res = 0.0
    dev_orth = 0.0
    for _ in range(100):
        order = int(rng.integers(2, 65))
        m = rng.standard_normal((order, order))
        m = 0.5 * (m + m.T)
        values, vectors = np.linalg.eigh(m)
        fro = np.linalg.norm(m)
        dev_res = max(
            dev_res,
            float(np.linalg.norm(m @ vectors - vectors * values, axis=0).max()) / fro,
        )
        dev_orth = max(
            dev_orth,
            float(np.max(np.abs(vectors.T @ vectors - np.eye(order)))),
        )
    report(
        "criterion 9: dimension identity (N<=64) and eigensolver bounds",
        ok_dim and dev_res <= 1e-10 and dev_orth <= 1e-12,
        f"residual {dev_res:.2e}, orthonormality {dev_orth:.2e}",
    )


def test_criterion_10_fig_lipkin_determinism(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert cli_main(["fig", "lipkin", "--out", str(a)]) == 0
    assert cli_main(["fig", "lipkin", "--out", str(b)]) == 0
    capsys.readouterr()
    identical = a.read_bytes() == b.read_bytes()
    report("criterion 10: fig lipkin byte-identical across runs", identical)
