"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.
"""

import math
import time

import numpy as np

from thermohf import (
    EnsemblePoint,
    central_diff,
    lambda_derivatives,
    potentials,
)
from thermohf.cli import main as cli_main
from thermohf.models.ho import (
    HarmonicOscillator,
    ho_closed_potentials,
    ho_entropy_lambda_derivative,
    ho_potential_average,
    truncation_level,
)
from thermohf.models.ising import (
    IsingChain,
    ising_log_z,
    ising_term_averages,
    ising_total_energy,
)
from thermohf.models.lipkin import (
    LipkinModel,
    lipkin_spectrum,
    multiplicity,
)
from thermohf.oracles import ising_enumerate, lipkin_fock
from thermohf.sweep import temperature_grid


def report(name, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] {name}" + (f" ({detail})" if detail else ""))
    assert passed, f"{name}: {detail}"


def max_abs(values):
    return float(np.max(np.abs(values)))


def test_criterion_1_ho_closed_form_agreement():
    start = time.perf_counter()
    t_grid = temperature_grid(0.05, 20.0, 200)
    model = HarmonicOscillator(n_max=truncation_level(20.0))
    point = EnsemblePoint.from_temperature(t_grid)
    numeric = model.potentials(1.0, point)
    closed = ho_closed_potentials(1.0, point)
    deriv = lambda_derivatives(lambda lam: model.potentials(lam, point))
    dev = max(
        max_abs(numeric.free_energy - closed.free_energy),
        max_abs(numeric.energy - closed.energy),
        max_abs(numeric.entropy - closed.entropy),
        max_abs(deriv.free_energy - ho_potential_average(point)),
        max_abs(deriv.entropy - ho_entropy_lambda_derivative(point)),
    )
    elapsed = time.perf_counter() - start
    report(
        "criterion 1: HO generic engine vs closed forms <= 1e-6, < 1 s",
        dev <= 1e-6 and elapsed < 1.0,
        f"max dev {dev:.2e}, {elapsed:.2f} s",
    )


def test_criterion_2_ho_paper_limits():
    cold = ho_potential_average(EnsemblePoint.from_temperature(0.005))
    ok_cold = abs(cold - 0.25) < 1e-12

    model = HarmonicOscillator(n_max=truncation_level(50.0))
    hot = EnsemblePoint.from_temperature(20.0)
    d_f = lambda_derivatives(lambda lam: model.potentials(lam, hot)).free_energy
    ok_df = abs(d_f - 10.0) / 10.0 <= 0.02

    d_s = ho_entropy_lambda_derivative(EnsemblePoint.from_temperature(50.0))
    ok_ds = abs(d_s + 0.5) / 0.5 <= 0.02

    grid = EnsemblePoint.from_temperature(temperature_grid(0.05, 20.0, 200))
    dev_virial = max_abs(
        ho_potential_average(grid) - 0.5 * ho_closed_potentials(1.0, grid).energy
    )
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
        for _ in range(20):
            params = IsingChain(
                coupling_j=float(rng.uniform(-2.5, 2.5)),
                field_h=float(rng.uniform(-2.5, 2.5)),
                n_spins=n,
                lambda1=float(rng.uniform(0.5, 1.5)),
                lambda2=float(rng.uniform(0.5, 1.5)),
            )
            point = EnsemblePoint(beta=float(rng.uniform(0.05, 3.0)))
            exact = ising_enumerate(params, point)
            rel = abs(ising_log_z(params, point) - exact.ln_z) / abs(exact.ln_z)
            dev = max(dev, rel)
    elapsed = time.perf_counter() - start
    report(
        "criterion 3: Ising transfer matrix vs enumeration <= 1e-12, < 60 s",
        dev <= 1e-12 and elapsed < 60.0,
        f"max rel dev {dev:.2e}, {elapsed:.1f} s",
    )


def test_criterion_4_ising_hf_decomposition():
    params = IsingChain(2.0, 1.0, 10)
    point = EnsemblePoint.from_temperature(temperature_grid(0.1, 30.0, 60))
    h_j, h_h = ising_term_averages(params, point)
    dev = max_abs(h_j + h_h - ising_total_energy(params, point))
    ok_sum = dev <= 1e-6 * params.n_spins

    cold = EnsemblePoint.from_temperature(0.1)
    hj, hh = (x / 10 for x in ising_term_averages(params, cold))
    e_cold = ising_total_energy(params, cold) / 10
    ok_cold = abs(hj + 2.0) <= 0.01 and abs(hh + 1.0) <= 0.01 and abs(e_cold + 3.0) <= 0.01

    t_hot = 300.0
    e_hot = ising_total_energy(params, EnsemblePoint.from_temperature(t_hot)) / 10
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
    block = lipkin_spectrum(model)
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
    point = EnsemblePoint.from_temperature(temperature_grid(0.1, 100.0, 50, "geometric"))
    d_f = lambda_derivatives(lambda lam: model.potentials(lam, point)).free_energy
    direct = model.h1_direct(point)
    dev = float(np.max(np.abs(d_f - direct) / np.maximum(1.0, np.abs(direct))))
    report(
        "criterion 6: Lipkin dF/dlam vs direct <H1> <= 1e-6",
        dev <= 1e-6,
        f"max scaled dev {dev:.2e}",
    )


def test_criterion_7_lipkin_entropy_corollary():
    model = LipkinModel(10, 1.0, 3.0)
    t_grid = temperature_grid(0.1, 100.0, 50, "geometric")[1:-1]
    point = EnsemblePoint.from_temperature(t_grid)
    d_s = lambda_derivatives(lambda lam: model.potentials(lam, point)).entropy
    dh1_dt, _ = central_diff(
        lambda temps: model.h1_direct(EnsemblePoint.from_temperature(temps)), t_grid
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
        lipkin_spectrum(model), EnsemblePoint.from_temperature(1e4)
    ).entropy
    ok_entropy = abs(s_hot - 10 * math.log(2)) <= 1e-3

    t_grid = temperature_grid(0.5, 100.0, 60, "geometric")
    point = EnsemblePoint.from_temperature(t_grid)
    de = lambda_derivatives(lambda lam: model.potentials(lam, point)).energy
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
