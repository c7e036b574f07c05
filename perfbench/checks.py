"""Output checks that use none of the package's code.

Each check parses one op's CLI output and returns the rows it found, the
Hellmann-Feynman and closed-form deviations, and a list of problems. Any
problem makes the op failed and the run incorrect.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field

COLUMNS = ("T", "E", "F", "S", "dF_dlambda", "dE_dlambda", "dS_dlambda", "H1_direct")
# Acceptance tolerance of the HF identity and of the oscillator closed forms.
TOLERANCE = 1e-6
# Relative agreement of the printed temperatures with the requested grid.
GRID_RTOL = 1e-12
_VERIFY_TOTAL = re.compile(r"^(\d+)/(\d+) checks passed$")


@dataclass
class Verdict:
    rows: int = 0
    hf_dev: float | None = None  # None when no row has a direct route
    ref_dev: float | None = None  # None for models without closed forms
    problems: list[str] = field(default_factory=list)


def _expected_grid(t_min: float, t_max: float, steps: int, kind: str):
    if kind == "linear":
        return [t_min + (t_max - t_min) * i / (steps - 1) for i in range(steps)]
    ratio = math.log(t_max / t_min)
    return [t_min * math.exp(ratio * i / (steps - 1)) for i in range(steps)]


def _parse_csv(text: str):
    lines = text.splitlines()
    if not lines or lines[0] != ",".join(COLUMNS):
        raise ValueError(f"unexpected CSV header {lines[:1]}")
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != len(COLUMNS):
            raise ValueError(f"row with {len(fields)} fields")
        rows.append([float(f) if f else None for f in fields])
    return rows


def _parse_json(text: str, model: str):
    payload = json.loads(text)
    if payload["config"]["model"] != model:
        raise ValueError(f"config echo names model {payload['config']['model']!r}")
    rows = []
    for row in payload["rows"]:
        if tuple(row) != COLUMNS:
            raise ValueError(f"unexpected row keys {list(row)}")
        rows.append([None if row[c] is None else float(row[c]) for c in COLUMNS])
    return rows


def ho_closed_form(t: float):
    """F, E, S of the oscillator with unit frequency at temperature t."""
    beta = 1.0 / t
    free_energy = 0.5 + t * math.log1p(-math.exp(-beta))
    energy = 0.5 + 1.0 / math.expm1(beta)
    return free_energy, energy, beta * (energy - free_energy)


def check_sweep(op, text: str) -> Verdict:
    verdict = Verdict()
    try:
        rows = _parse_csv(text) if op.fmt == "csv" else _parse_json(text, op.model)
    except (ValueError, KeyError, TypeError) as exc:
        verdict.problems.append(f"unparseable output: {exc}")
        return verdict
    verdict.rows = len(rows)
    t_min, t_max, steps, kind = op.grid
    if len(rows) != steps:
        verdict.problems.append(f"{len(rows)} rows, expected {steps}")
    hf_dev = ref_dev = 0.0
    s_max = op.size * math.log(2.0) if op.model in ("ising", "lipkin") else math.inf
    for row, t_want in zip(rows, _expected_grid(t_min, t_max, steps, kind)):
        t, energy, free, entropy, df, _, _, h1 = row
        if not all(math.isfinite(v) for v in row[:7]) or (h1 is not None and not math.isfinite(h1)):
            verdict.problems.append(f"non-finite value in row T={t}")
            break
        if abs(t - t_want) > GRID_RTOL * t_want:
            verdict.problems.append(f"temperature {t} where the grid has {t_want}")
            break
        if not -TOLERANCE <= entropy <= s_max + TOLERANCE:
            verdict.problems.append(f"entropy {entropy} outside [0, {s_max}] at T={t}")
            break
        # For Ising the CLI's lambda scales the whole Hamiltonian, so <H1> = E.
        direct = energy if op.model == "ising" else h1
        if direct is None:
            verdict.problems.append(f"missing H1_direct at T={t}")
            break
        hf_dev = max(hf_dev, abs(df - direct) / max(1.0, abs(direct)))
        if op.model == "ho":
            for got, want in zip((free, energy, entropy), ho_closed_form(t)):
                ref_dev = max(ref_dev, abs(got - want) / max(1.0, abs(want)))
    verdict.hf_dev = hf_dev
    if hf_dev > TOLERANCE:
        verdict.problems.append(f"HF deviation {hf_dev:.3e} above {TOLERANCE:g}")
    if op.model == "ho":
        verdict.ref_dev = ref_dev
        if ref_dev > TOLERANCE:
            verdict.problems.append(f"closed-form deviation {ref_dev:.3e} above {TOLERANCE:g}")
    return verdict


def check_verify(text: str) -> Verdict:
    verdict = Verdict()
    lines = text.splitlines()
    found = _VERIFY_TOTAL.match(lines[-1]) if lines else None
    if not found:
        verdict.problems.append("no 'k/n checks passed' summary line")
        return verdict
    passed, total = int(found.group(1)), int(found.group(2))
    n_pass = sum(line.startswith("PASS") for line in lines)
    n_fail = sum(line.startswith("FAIL") for line in lines)
    verdict.rows = n_pass + n_fail
    if total < 1 or passed != total or n_pass != total or n_fail:
        verdict.problems.append(
            f"{passed}/{total} checks passed ({n_pass} PASS, {n_fail} FAIL lines)"
        )
    return verdict


def check(op, exit_code: int, text: str) -> Verdict:
    """Verdict on one op that ran; exit_code is what `thermohf` returned."""
    if op.model is None:
        verdict = check_verify(text)
        if exit_code != 0:
            verdict.problems.append(f"verify exited {exit_code}")
        return verdict
    return check_sweep(op, text)
