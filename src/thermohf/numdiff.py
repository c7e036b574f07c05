"""Central finite differences with Richardson extrapolation.

Used for the coupling-strength derivatives dF/dlam, dE/dlam, dS/dlam and
for temperature derivatives of thermal averages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["DiffConfig", "central_diff"]


@dataclass(frozen=True)
class DiffConfig:
    """Step control for central differences.

    relative_step scales with max(|x0|, 1); richardson_levels is the number
    of step halvings fed into the extrapolation table (1 = plain central
    difference).
    """

    relative_step: float = 1e-5
    richardson_levels: int = 2

    def __post_init__(self):
        if not (1e-12 < self.relative_step < 1e-1):
            raise ValueError(f"relative_step out of range: {self.relative_step}")
        if not (1 <= self.richardson_levels <= 5):
            raise ValueError(f"richardson_levels out of range: {self.richardson_levels}")


def central_diff(f, x0, config: DiffConfig = DiffConfig()):
    """Derivative of f at x0 by central differences.

    Returns (derivative, error_estimate). With richardson_levels > 1 the
    step is halved repeatedly and the results extrapolated; the error
    estimate is the difference between the last two extrapolation levels
    (nan when only one level is available). f may return arrays, and x0
    may be an array, in which case each entry gets its own step.
    """
    h0 = config.relative_step * np.maximum(np.abs(x0), 1.0)
    levels = config.richardson_levels

    def slope(h):
        fp = f(x0 + h)
        fm = f(x0 - h)
        if not (np.isfinite(fp).all() and np.isfinite(fm).all()):
            raise ValueError(f"function returned non-finite value near x0={x0}")
        return (fp - fm) / (2.0 * h)

    # diag[k] is the best estimate using steps h0 .. h0/2^k
    row = [slope(h0)]
    diag = [row[0]]
    for k in range(1, levels):
        new_row = [slope(h0 / 2.0**k)]
        for j in range(1, k + 1):
            p = 4.0**j
            new_row.append((p * new_row[j - 1] - row[j - 1]) / (p - 1.0))
        row = new_row
        diag.append(row[-1])

    if levels == 1:
        return diag[0], math.nan
    return diag[-1], abs(diag[-1] - diag[-2])

