"""Temperature sweeps and their CSV/JSON serialization.

A sweep is one record array with a row per grid point: the potentials, the
three coupling derivatives at lam = 1 and the directly computed thermal
average of the interaction term. A model is any object with
``potentials(lam, point, *, h1=True)`` whose result carries that average as
``h1``, and None with ``h1=False``; the whole grid goes through it at once.
"""

from __future__ import annotations

import json
import numbers

import numpy as np

from . import floattext
from .ensemble import EnsemblePoint
from .numdiff import DiffConfig, central_diff

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
# the cap peaks near 0.5 GB RSS, see README).
MAX_GRID_POINTS = 10**6


def temperature_grid(t_min: float, t_max: float, steps: int, kind: str = "linear") -> np.ndarray:
    """Strictly increasing temperature grid, linear or geometric, of 2 to
    MAX_GRID_POINTS points, whose every 1/T is a finite float (t_min at
    least about 5.6e-309); raises ValueError before allocating otherwise, and
    after it where rounding leaves the grid not strictly increasing."""
    if not (0.0 < t_min < t_max < np.inf):
        raise ValueError(f"need 0 < t_min < t_max < inf, got [{t_min}, {t_max}]")
    EnsemblePoint.from_temperature(t_min)  # refuses a t_min whose 1/t_min overflows
    if not isinstance(steps, numbers.Integral):
        raise ValueError(f"steps must be an integer, got {steps!r}")
    if steps < 2:
        raise ValueError(f"need at least 2 grid points, got {steps}")
    if steps > MAX_GRID_POINTS:
        raise ValueError(f"need at most {MAX_GRID_POINTS} grid points, got {steps}")
    if kind == "linear":
        grid = np.linspace(t_min, t_max, steps)
    elif kind == "geometric":
        grid = np.geomspace(t_min, t_max, steps)
    else:
        raise ValueError(f"unknown grid kind {kind!r}")
    if not np.all(np.diff(grid) > 0):
        raise ValueError(f"{steps} {kind} points in [{t_min}, {t_max}] are not strictly increasing")
    return grid


def sweep(model, t_grid, config: DiffConfig = DiffConfig()) -> np.recarray:
    """One SWEEP_DTYPE row per temperature of the grid, as a record array
    of shape (len(t_grid),).

    model.potentials is called once per coupling abscissa, each time on the
    whole grid. The derivative columns are one central_diff in the model's
    lam of the stacked (F, E, S), from abscissae evaluated without <H1>;
    h1_direct is the model's derivative-free <H1>_T at lam = 1.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    point = EnsemblePoint.from_temperature(t_grid)
    pots = model.potentials(1.0, point)

    def stacked(lam):
        p = model.potentials(lam, point, h1=False)
        return np.array([p.free_energy, p.energy, p.entropy])

    (d_f, d_e, d_s), _ = central_diff(stacked, 1.0, config)
    columns = (t_grid, pots.energy, pots.free_energy, pots.entropy, d_f, d_e, d_s, pots.h1)
    # the values row after row, a table row's fields side by side
    values = np.stack(columns, axis=-1)
    return values.view(SWEEP_DTYPE)[..., 0].view(np.recarray)


_FIELDS = len(SWEEP_DTYPE.names)
# The text before and after each field's value: CSV's separators, and a
# JSON row's keys (the first after the row's "{") and its closing "},"
# (the table's last "," is cut).
_CSV_BEFORE = ("",) * _FIELDS
_CSV_AFTER = (",",) * (_FIELDS - 1) + ("\n",)
_JSON_BEFORE = tuple(("    {\n" if k == 0 else ",\n") + f"      {json.dumps(key)}: "
                     for k, key in enumerate(CSV_HEADER.split(",")))
_JSON_AFTER = ("",) * (_FIELDS - 1) + ("\n    },\n",)


def rows_to_csv(table) -> str:
    """Deterministic CSV with 17-significant-digit floats, each the bytes
    of "%.17g" % v, written floattext.CHUNK_ROWS rows at a time."""
    values = np.asarray(table).view((np.float64, _FIELDS))  # (rows, fields), no copy
    parts = floattext.rows_text(values, _CSV_BEFORE, _CSV_AFTER, shortest=False)
    return "".join([CSV_HEADER + "\n", *parts])


def rows_to_json(table, config_echo: dict) -> str:
    """Same rows as JSON objects, plus an echo of the run configuration.

    The text is json.dumps(payload, indent=2): the config is dumped as is,
    and the rows, floattext.CHUNK_ROWS at a time, are laid out with
    json.dumps's tokens for their values.
    """
    text = json.dumps({"config": config_echo, "rows": []}, indent=2)
    if not len(table):
        return text + "\n"
    values = np.asarray(table).view((np.float64, _FIELDS))
    parts = floattext.rows_text(values, _JSON_BEFORE, _JSON_AFTER, shortest=True)
    parts[-1] = parts[-1][:-len(",\n")]
    return "".join([text[:-len("[]\n}")] + "[\n", *parts, "\n  ]\n}\n"])
