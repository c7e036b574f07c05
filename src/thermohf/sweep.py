"""Temperature sweeps and their CSV/JSON serialization.

A sweep is one record array with a row per grid point: the potentials, the
three coupling derivatives at lam = 1 and the directly computed thermal
average of the interaction term. A model is any object with
``potentials(lam, point, *, h1=True)`` whose result carries that average as
``h1``, and None with ``h1=False``; the whole grid goes through it at once.
"""

from __future__ import annotations

import json

import numpy as np

from .ensemble import EnsemblePoint
from .numdiff import DiffConfig, lambda_derivatives

__all__ = [
    "SWEEP_DTYPE",
    "temperature_grid",
    "sweep",
    "rows_to_csv",
    "rows_to_json",
    "CSV_HEADER",
    "MAX_GRID_POINTS",
]

CSV_HEADER = "T,E,F,S,dF_dlambda,dE_dlambda,dS_dlambda,H1_direct"
# One float64 field per CSV_HEADER column, in its order, so a table's
# values row after row are its .view(np.float64); h1_direct is <H1>_T by a
# derivative-free route.
SWEEP_DTYPE = np.dtype([(name, np.float64) for name in (
    "temperature", "energy", "free_energy", "entropy",
    "df_dlambda", "de_dlambda", "ds_dlambda", "h1_direct",
)])
# Most temperatures in one grid; bounds a sweep's memory (a default sweep at
# the cap peaks near 0.65 GB RSS, see README).
MAX_GRID_POINTS = 10**6


def temperature_grid(t_min: float, t_max: float, steps: int, kind: str = "linear") -> np.ndarray:
    """Strictly increasing temperature grid, linear or geometric, of 2 to
    MAX_GRID_POINTS points; raises ValueError before allocating otherwise."""
    if not (0.0 < t_min < t_max < np.inf):
        raise ValueError(f"need 0 < t_min < t_max < inf, got [{t_min}, {t_max}]")
    if steps < 2:
        raise ValueError(f"need at least 2 grid points, got {steps}")
    if steps > MAX_GRID_POINTS:
        raise ValueError(f"need at most {MAX_GRID_POINTS} grid points, got {steps}")
    if kind == "linear":
        return np.linspace(t_min, t_max, steps)
    if kind == "geometric":
        return np.geomspace(t_min, t_max, steps)
    raise ValueError(f"unknown grid kind {kind!r}")


def sweep(model, t_grid, config: DiffConfig = DiffConfig()) -> np.recarray:
    """One SWEEP_DTYPE row per temperature of the grid, as a record array
    of shape (len(t_grid),).

    model.potentials is called once per coupling abscissa, each time on the
    whole grid. The derivative columns differentiate with respect to the
    model's lam, from abscissae evaluated without <H1>; h1_direct is the
    model's derivative-free <H1>_T at lam = 1.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    point = EnsemblePoint.from_temperature(t_grid)
    pots = model.potentials(1.0, point)
    deriv = lambda_derivatives(lambda lam: model.potentials(lam, point, h1=False), 1.0, config)
    table = np.empty(t_grid.shape, dtype=SWEEP_DTYPE).view(np.recarray)
    for name, column in zip(SWEEP_DTYPE.names, (
        t_grid, pots.energy, pots.free_energy, pots.entropy,
        deriv.free_energy, deriv.energy, deriv.entropy, pots.h1,
    )):
        table[name] = column
    return table


def _flat_values(table) -> list:
    """Every row's values in CSV_HEADER order, row after row, as floats."""
    return np.ascontiguousarray(table).view(np.float64).tolist()


def rows_to_csv(table) -> str:
    """Deterministic CSV with 17-significant-digit floats.

    One %-format call over all rows; "%.17g" % v is format(v, ".17g").
    """
    row_format = ",".join(["%.17g"] * len(CSV_HEADER.split(",")))
    return "\n".join([CSV_HEADER, *[row_format] * len(table)]) % tuple(
        _flat_values(table)) + "\n"


def rows_to_json(table, config_echo: dict) -> str:
    """Same rows as JSON objects, plus an echo of the run configuration.

    The text is json.dumps(payload, indent=2). The float tokens come from
    one json.dumps of all values (same repr, NaN and Infinity spellings)
    and fill a fixed per-row layout after the config, which is dumped as is.
    """
    text = json.dumps({"config": config_echo, "rows": []}, indent=2)
    if not len(table):
        return text + "\n"
    row_format = "    {\n" + ",\n".join(
        f"      {json.dumps(key)}: %s" for key in CSV_HEADER.split(",")
    ) + "\n    }"
    tokens = tuple(json.dumps(_flat_values(table))[1:-1].split(", "))
    body = ",\n".join([row_format] * len(table)) % tokens
    return text[:-len("[]\n}")] + "[\n" + body + "\n  ]\n}\n"
