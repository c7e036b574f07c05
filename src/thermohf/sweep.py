"""Temperature sweeps and their CSV/JSON serialization.

One SweepRow per grid point carries the potentials, the three coupling
derivatives at lam = 1 and, where the model supports it, the directly
computed thermal average of the interaction term. A model is any object
with ``potentials(lam, point)`` and ``h1_direct(point)``; the whole grid
goes through it at once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .ensemble import EnsemblePoint
from .numdiff import DiffConfig, lambda_derivatives

__all__ = [
    "SweepRow",
    "temperature_grid",
    "sweep",
    "grid_derivative",
    "rows_to_csv",
    "rows_to_json",
    "CSV_HEADER",
]

CSV_HEADER = "T,E,F,S,dF_dlambda,dE_dlambda,dS_dlambda,H1_direct"


@dataclass(frozen=True)
class SweepRow:
    """One temperature grid point; h1_direct is None when no direct path exists."""

    temperature: float
    energy: float
    free_energy: float
    entropy: float
    df_dlambda: float
    de_dlambda: float
    ds_dlambda: float
    h1_direct: float | None = None


def temperature_grid(t_min: float, t_max: float, steps: int, kind: str = "linear") -> np.ndarray:
    """Strictly increasing temperature grid, linear or geometric."""
    if not (0.0 < t_min < t_max):
        raise ValueError(f"need 0 < t_min < t_max, got [{t_min}, {t_max}]")
    if steps < 2:
        raise ValueError(f"need at least 2 grid points, got {steps}")
    if kind == "linear":
        return np.linspace(t_min, t_max, steps)
    if kind == "geometric":
        return np.geomspace(t_min, t_max, steps)
    raise ValueError(f"unknown grid kind {kind!r}")


def sweep(model, t_grid, config: DiffConfig = DiffConfig()) -> list[SweepRow]:
    """One row per temperature of the grid.

    model.potentials is called once per coupling abscissa, each time on the
    whole grid. The derivative columns differentiate with respect to the
    model's lam; h1_direct is the model's derivative-free <H1>_T, or None.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    point = EnsemblePoint.from_temperature(t_grid)
    pots = model.potentials(1.0, point)
    deriv = lambda_derivatives(lambda lam: model.potentials(lam, point), 1.0, config)
    direct = model.h1_direct(point)
    columns = np.column_stack([
        t_grid, pots.energy, pots.free_energy, pots.entropy,
        deriv.free_energy, deriv.energy, deriv.entropy,
    ]).tolist()
    h1 = [None] * len(columns) if direct is None else np.asarray(direct).tolist()
    return [SweepRow(*values, h1_direct=h) for values, h in zip(columns, h1)]


def grid_derivative(t_grid, values) -> np.ndarray:
    """Derivative of tabulated values on a (possibly nonuniform) grid.

    Three-point stencils exact for quadratics; one-sided at the endpoints.
    """
    t = np.asarray(t_grid, dtype=float)
    f = np.asarray(values, dtype=float)
    if t.size != f.size or t.size < 3:
        raise ValueError("need aligned grids with at least 3 points")
    out = np.empty_like(f)
    h_prev = t[1:-1] - t[:-2]
    h_next = t[2:] - t[1:-1]
    out[1:-1] = (
        -h_next / (h_prev * (h_prev + h_next)) * f[:-2]
        + (h_next - h_prev) / (h_prev * h_next) * f[1:-1]
        + h_prev / (h_next * (h_prev + h_next)) * f[2:]
    )
    out[0] = (f[1] - f[0]) / (t[1] - t[0])
    out[-1] = (f[-1] - f[-2]) / (t[-1] - t[-2])
    return out


def _fmt(x: float | None) -> str:
    return "" if x is None else format(x, ".17g")


def _row_values(row: SweepRow):
    return [
        row.temperature, row.energy, row.free_energy, row.entropy,
        row.df_dlambda, row.de_dlambda, row.ds_dlambda, row.h1_direct,
    ]


def rows_to_csv(rows) -> str:
    """Deterministic CSV with 17-significant-digit floats."""
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in _row_values(row)))
    return "\n".join(lines) + "\n"


def rows_to_json(rows, config_echo: dict) -> str:
    """Same rows as JSON objects, plus an echo of the run configuration."""
    keys = CSV_HEADER.split(",")
    payload = {
        "config": config_echo,
        "rows": [dict(zip(keys, _row_values(row))) for row in rows],
    }
    return json.dumps(payload, indent=2) + "\n"
