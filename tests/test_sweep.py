import json

import numpy as np
import pytest

from thermohf.models.ho import HarmonicOscillator, truncation_level
from thermohf.models.ising import IsingChain
from thermohf.models.lipkin import LipkinModel
from thermohf.sweep import (
    CSV_HEADER,
    grid_derivative,
    rows_to_csv,
    rows_to_json,
    sweep,
    temperature_grid,
)


def sweep_ho(t_grid):
    """Oscillator sweep truncated for the grid's largest temperature."""
    return sweep(HarmonicOscillator(n_max=truncation_level(float(t_grid.max()))), t_grid)


class TestTemperatureGrid:
    def test_linear(self):
        g = temperature_grid(1.0, 3.0, 5)
        assert np.allclose(g, [1.0, 1.5, 2.0, 2.5, 3.0])

    def test_geometric(self):
        g = temperature_grid(0.1, 10.0, 3, "geometric")
        assert np.allclose(g, [0.1, 1.0, 10.0])

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            temperature_grid(2.0, 1.0, 10)
        with pytest.raises(ValueError):
            temperature_grid(0.0, 1.0, 10)
        with pytest.raises(ValueError):
            temperature_grid(1.0, 2.0, 1)


class TestGridDerivative:
    def test_exact_for_quadratic_nonuniform(self):
        t = np.geomspace(1.0, 10.0, 20)
        f = 3 * t * t - 2 * t + 1
        d = grid_derivative(t, f)
        assert np.allclose(d[1:-1], 6 * t[1:-1] - 2, rtol=1e-10)


class TestSweeps:
    def test_ho_rows_consistent(self):
        rows = sweep_ho(temperature_grid(0.1, 5.0, 10))
        for row in rows:
            assert row.free_energy == pytest.approx(
                row.energy - row.temperature * row.entropy, abs=1e-10
            )
            assert row.h1_direct == pytest.approx(row.df_dlambda, abs=1e-7)

    def test_ising_rows_have_no_direct_path(self):
        rows = sweep(IsingChain(2.0, 1.0, 6), temperature_grid(0.5, 5.0, 5))
        assert all(row.h1_direct is None for row in rows)
        # global coupling derivative of F equals the total energy average
        for row in rows:
            assert row.df_dlambda == pytest.approx(row.energy, abs=1e-6)

    def test_lipkin_hf_suite(self):
        model = LipkinModel(6, 1.0, 3.0)
        t_grid = temperature_grid(0.5, 50.0, 80, "geometric")
        rows = sweep(model, t_grid)
        dh1_dt = grid_derivative(t_grid, [r.h1_direct for r in rows])
        assert len(rows) == 80 and dh1_dt.shape == (80,)
        for row in rows:
            assert row.free_energy == pytest.approx(
                row.energy - row.temperature * row.entropy, abs=1e-9
            )
            assert row.free_energy <= row.energy
        free_energies = [r.free_energy for r in rows]
        assert all(b < a for a, b in zip(free_energies, free_energies[1:]))
        for row in rows:
            assert row.df_dlambda == pytest.approx(row.h1_direct, abs=1e-6)
        # coarse-grid temperature derivative tracks -dS/dlam
        for k in range(10, 70):
            assert dh1_dt[k] == pytest.approx(-rows[k].ds_dlambda, rel=0.05, abs=1e-3)

    @pytest.mark.parametrize("model,t_grid", [
        (HarmonicOscillator(n_max=1600), temperature_grid(0.02, 40.0, 2000)),
        (IsingChain(-1.3, 0.7, 9), temperature_grid(0.05, 30.0, 300, "geometric")),
        (IsingChain(2.0, 1.0, 10), temperature_grid(0.1, 30.0, 200)),
        (LipkinModel(12, 1.0, 3.0), temperature_grid(0.1, 100.0, 200, "geometric")),
    ], ids=["ho-several-blocks", "ising-odd-antiferro", "ising", "lipkin"])
    def test_grid_equals_pointwise(self, model, t_grid):
        rows = sweep(model, t_grid)
        assert len(rows) == t_grid.size
        for k in range(0, t_grid.size, 37):
            (single,) = sweep(model, t_grid[k:k + 1])
            for got, want in zip(vars(rows[k]).values(), vars(single).values()):
                if want is None:
                    assert got is None
                else:
                    assert abs(got - want) <= 1e-14 * max(1.0, abs(want))


class TestSerialization:
    def test_csv_header_and_missing_field(self):
        rows = sweep(IsingChain(2.0, 1.0, 4), temperature_grid(1.0, 2.0, 2))
        text = rows_to_csv(rows)
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        assert lines[1].endswith(",")  # empty H1_direct

    def test_csv_round_trip_17_digits(self):
        rows = sweep_ho(temperature_grid(0.3, 1.0, 3))
        lines = rows_to_csv(rows).splitlines()
        fields = lines[1].split(",")
        assert float(fields[1]) == rows[0].energy

    def test_csv_deterministic(self):
        grid = temperature_grid(0.5, 5.0, 4)
        a = rows_to_csv(sweep(LipkinModel(4, 1.0, 3.0), grid))
        b = rows_to_csv(sweep(LipkinModel(4, 1.0, 3.0), grid))
        assert a == b

    def test_json_mirrors_csv(self):
        rows = sweep_ho(temperature_grid(0.3, 1.0, 3))
        payload = json.loads(rows_to_json(rows, {"model": "ho"}))
        assert payload["config"] == {"model": "ho"}
        assert len(payload["rows"]) == 3
        assert set(payload["rows"][0]) == set(CSV_HEADER.split(","))
        assert payload["rows"][0]["T"] == rows[0].temperature
